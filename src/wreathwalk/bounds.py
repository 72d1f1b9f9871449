"""Distance curves and every bound chain: the collapsed independent-walk
sum, the relaxed paired-walk upper bound, coupling and dominant-term and
Chebyshev witnesses, and the step-count threshold tables.

Every l2 sum (the spectral one in walks too) is sum_i w_i y_i^{2k} over
Atoms: (weight, value) pairs plus tail majorants that count toward the
upper edge only.  One evaluator, power_sums, takes a whole list of k:
exact Fractions, or certified (lower, upper) floats by log-sum-exp.  The
collapsed and relaxed atoms are one per (n_1, content) row of the shared
partition table; above FULL_ENUM_MAX an n_1 gets a deficit window (first
row n_1 - j, j <= J_WINDOW) plus one tail majorant per larger deficit.
The window depends on n alone, the logged table rows below it on the
cutoff; |G| and the walk enter only as the per-slot offsets ln w(n_1) and
ln scale(n_1).  Both are read by need (_gate): each table level and window
slot size is at most a closed form in k (_unit_certs), and a k reads only
those not below 2^-60 of the [n-1] atom's term (held by the lower edge)
over their count, adding the rest's closed form to the upper edge.  The
window runs slot size by slot size from n down, so a k reads a prefix,
built as far as some k has read (Window): near the cutoff no partition
table and a few dozen window slot sizes are built.  At k = 0 the sum is
the weights' total, |G|^n n! - 1 (for the relaxed bound (s/2)(|G|^n n! -
1) + delta_n/4): the collapsed and relaxed atoms carry it as Atoms.zero,
and a float k = 0 reads it with no pass.

The float sums stream: windowed Atoms hold those |G|-free blocks by
reference, the O(n) offsets, and the tail majorants as their slot sizes,
in closed form in (n_1, j); of these about n^2/2 a pass evaluates each
slot size's first few and certifies the rest (_tail_segments).  Chunks
of ATOM_CHUNK (ln w, ln |y|) fold into a running log-sum-exp per k.  A
windowed bracket so holds the window slot sizes built so far (18 bytes
an atom) and one chunk, never a copy of them or the tail; terms below
2^-1022 of a chunk's largest are left out, which no float sum can see.
Exact and spectral atoms are the one-block case: no offsets and no tail.

Exactness is a property of the atoms, decided once in _atoms: the
collapsed (sym, independent) atoms are exact, int weights and numerators
over the one denominator n^2, iff n <= FULL_ENUM_MAX; the relaxed bound's
values share no denominator and are never exact.  Every evaluator then
gives a Fraction iff the atoms are exact and k <= EXACT_K_MAX, else a
float.  l2n_sq(k) always means |group| * ||P^{*k} - U||_2^2 with the
trivial line excluded.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import count
from typing import NamedTuple

import numpy as np

from .classes import class_count
from .groups import GroupTable
from .partitions import (
    WORD_M_MAX,
    char_ratio_transposition,
    content_rows,
    enumerate_partitions,
    partition_counts,
    partition_table,
    partitions_of,
)
from .reps import MAX_LABELS
from .wreath import refuse_past_memory, walk_base

J_WINDOW = 12          # deficit window for large-n inner sums
FULL_ENUM_MAX = 40     # every partition, exactly: the collapsed sums' exact atoms
EXACT_K_MAX = 64       # exact Fraction path of every l2 sum
ATOM_CHUNK = 2 ** 15   # atoms per pass of the float evaluator
LN_TINY = math.log(np.finfo(float).tiny)      # e^t is subnormal below this
# peak bytes of a windowed bracket reading every window slot size (tracemalloc
# peaks of a cold l2n_sq_collapsed_bounds run 23 and 120): per window shape
# atom, its (m, ln d^2, ln |top|), 18, and the build's temporaries; per atom
# of one chunk, the tail's closed form and the evaluator's arrays
SHAPE_ATOM_BYTES = 24
CHUNK_ATOM_BYTES = 128


# ---------------------------------------------------------------------------
# atoms and the one evaluator

class Atoms(NamedTuple):
    """Terms w y^{2k} of an l2 sum as blocks (m, ln d^2, ln |top|): an atom
    at slot size m has ln w = ln_w[m] + ln d^2 and ln |y| = ln |top| -
    ln_scale[m] (m None: no offsets, ln w = ln d^2 and ln |y| = ln |top|).
    A block may be a callable, built when first read; when `tail` is set,
    the last is a Window of the slot sizes in `tail`, and each of those
    adds one majorant per deficit j_window < j < m, in closed form
    over lnf = ln i!, for the upper edge only; `segments` builds their
    bounds, tail's in its last rows.  When exact, `weights` and `nums`
    repeat them as ints.  `zero`, when set, is the float sum at k = 0 in
    closed form, which power_sums returns as both edges without a pass."""
    blocks: tuple
    ln_w: np.ndarray | None = None
    ln_scale: np.ndarray | None = None
    tail: np.ndarray = np.zeros(0, dtype=np.int64)
    j_window: int = 0
    lnf: np.ndarray | None = None
    segments: tuple | None = None
    weights: tuple | None = None
    nums: tuple | None = None
    den: int = 1
    zero: float | None = None


def _ln(q) -> float:
    """ln |q| for an int or Fraction of any size; -inf at 0."""
    q = abs(q)
    return math.log(q.numerator) - math.log(q.denominator) if q else -math.inf


def _float_or_inf(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def exact_atoms(weights, nums, den: int) -> Atoms:
    """Atoms from int weights at values num / den, one int den for all: one
    block, its logs built on the first float read, no offsets and no tail."""
    weights, nums = tuple(weights), tuple(nums)

    @cache
    def logs() -> tuple:
        ln_y = np.array([_ln(y) for y in nums], dtype=float) - math.log(den)
        return None, np.array([_ln(w) for w in weights], dtype=float), ln_y
    return Atoms((logs,), weights=weights, nums=nums, den=den)


class Table(NamedTuple):
    """The block of the table rows at slot sizes m <= full, _table_logs(full),
    read by need: power_sums reads it only at the ks of _gate."""
    full: int

    def __call__(self) -> tuple:
        return _table_logs(self.full)


def _block_chunks(atoms: Atoms, block, stop: int = sys.maxsize):
    """(ln w, ln |y|) of one block's first stop atoms in their fixed order,
    at most ATOM_CHUNK at a time from its first, offset chunk by chunk; a
    callable block is built (or taken from its cache) here, the Window only
    as far as stop and the atoms' smallest slot size."""
    if not stop:
        return
    if isinstance(block, Window):
        block = block(min(stop, block.stop(atoms.tail[0])))
    m, ln_d2, ln_top = block() if callable(block) else block
    for at in range(0, len(ln_d2), ATOM_CHUNK):
        part = slice(at, at + ATOM_CHUNK)
        if m is None:
            yield ln_d2[part], ln_top[part]
        else:
            yield _offset(atoms, m[part], ln_d2[part], ln_top[part])


def _unit_certs(atoms: Atoms, ks, top: int) -> np.ndarray:
    """ln cert(k) per (k, unit), the units table levels m = 1..top, then
    window slot sizes m = atoms.tail: cert(k) = w(m) sum_j c(m,j) (y(m,j) /
    scale(m))^{2k}.  Level m holds d^2 mass m! at |y| <= m^2 / scale(m);
    slot size m's atoms at deficit j <= j_window, own and conjugate, at most
    2 C(m,j)^2 j! at |y| <= (m + cmax(m,j)) / scale(m).  A few ks at a time."""
    big, levels = atoms.tail, np.arange(1, top + 1)
    units, jj = np.concatenate([levels, big]), np.arange(atoms.j_window + 1)[:, None]
    ln_c, ln_y = np.full((2, jj.size, units.size), -math.inf)
    ln_c[0, :top], ln_y[:, :top] = atoms.lnf[levels], 2 * np.log(levels)
    ln_c[:, top:] = _ln_count(atoms.lnf, big, jj)
    ln_y[:, top:] = np.log(big + _cmax_at_deficit(big, jj))
    ln_c += atoms.ln_w[units]
    ln_y -= atoms.ln_scale[units]
    two_k, ln_cert = 2.0 * np.array(ks, dtype=float), np.empty((len(ks), units.size))
    step = ATOM_CHUNK // ln_c.size + 1
    for at in range(0, len(ks), step):
        t = two_k[at:at + step, None, None] * ln_y + ln_c
        peak = t.max(1)
        ln_cert[at:at + step] = peak + np.log(np.exp(t - peak[:, None]).sum(1))
    return ln_cert


def _gate(atoms: Atoms, ks) -> tuple[list, list]:
    """Per block, how many of its first atoms each k reads; per k, the
    certificate (top, sum) of the rest, a tail part of hi.  A unit, a table
    level or a window slot size, is needed iff its _unit_certs >= 2^-60
    ref(k) / (units), ref(k) = w(n-1) ((n-1)^2 / scale(n-1))^{2k} the slot
    n-1 atom [n-1]'s term, which lo holds.  A k reads the Table block iff
    one of its levels is needed, the Window (its last block) from n down to
    the smallest needed slot size (n at least, sym's one): the rest adds
    below 2^-60 ref(k) to hi, and k alone decides."""
    if not atoms.tail.size:
        return [[sys.maxsize] * len(ks)] * len(atoms.blocks), [(-math.inf, 0.0)] * len(ks)
    n, big, window = atoms.ln_w.size - 1, atoms.tail, atoms.blocks[-1]
    top = window.full if any(isinstance(b, Table) for b in atoms.blocks) else 0
    ln_ref = atoms.ln_w[n - 1] + 2.0 * np.array(ks, dtype=float) * (2 * math.log(n - 1)
                                                                     - atoms.ln_scale[n - 1])
    ln_cert = _unit_certs(atoms, ks, top)
    need = ln_cert >= (ln_ref - 60 * math.log(2.0) - math.log(top + big.size))[:, None]
    need[:, -1] = True
    first, table = need[:, top:].argmax(1), need[:, :top].any(1)   # first: the smallest needed
    skip = np.arange(top + big.size) < top + first[:, None]
    skip[:, :top] = ~table[:, None]
    stops = {Table: [sys.maxsize * read for read in table.tolist()],
             Window: [window.stop(m) for m in big[first].tolist()]}
    return ([stops.get(type(b), [sys.maxsize] * len(ks)) for b in atoms.blocks],
            [_exp_sum(t) for t in np.where(skip, ln_cert, -math.inf)])


def _majorants(atoms: Atoms, counts):
    """(ln w, ln |y|, i, j) of tail[i]'s majorants at j_window < j <= j_window
    + counts[i], for any counts in the chunks of whole slot sizes of the full tail."""
    every = atoms.tail - 1 - atoms.j_window
    ends = np.cumsum(every)
    r = 0
    while r < every.size:                             # whole slot sizes, about a chunk
        rows = slice(r, max(r + 1, int(np.searchsorted(ends, ends[r] - every[r] + ATOM_CHUNK,
                                                       side="right"))))
        r, c = rows.stop, counts[rows]
        if not c.any():
            continue
        ii = np.repeat(np.arange(rows.start, r), c)
        jj = np.arange(ii.size) - np.repeat(np.cumsum(c) - c, c) + atoms.j_window + 1
        top = atoms.tail[ii] + _cmax_at_deficit(atoms.tail[ii], jj)
        keep = top > 0
        ii, jj, top = ii[keep], jj[keep], top[keep]
        mm = atoms.tail[ii]
        yield *_offset(atoms, mm, _ln_count(atoms.lnf, mm, jj), np.log(top)), ii, jj


def _ln_count(lnf, m, j):
    """ln 2 C(m,j)^2 j! >= ln d^2 of all lambda |- m with first row or column m - j."""
    return math.log(2.0) + 2 * (lnf[m] - lnf[j] - lnf[m - j]) + lnf[j]


@lru_cache(maxsize=2)
def _tail_segments(n: int, j_window: int, full: int) -> tuple:
    """|G|-free bounds on the tail majorants of m = full+1..n in segments
    [g, h) of deficits, lengths growing 1.15-fold (g - j_window - 1 in offs;
    a last one empty).  m + cmax(m,j) falls in j and 2 C(m,j)^2 j! is
    log-concave, so (h - g) times the count at its peak, at y(m, g), bounds a
    segment.  Per (m, segment): ln of that (h - g) count (-inf if the segment
    is empty or m + cmax(m, g) <= 0) and ln (m + cmax(m, g))."""
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    offs = [0]
    while j_window + 1 + offs[-1] < n:
        offs.append(max(offs[-1] + 1, int(offs[-1] * 1.15)))
    offs = np.array(offs + offs[-1:])
    starts, (ln_count, ln_top) = j_window + 1 + offs, np.empty((2, n - full, len(offs) - 1))
    step = ATOM_CHUNK // len(offs) + 1                           # slot sizes at a time
    for at in range(0, n - full, step):
        big, rows = np.arange(full + 1, n + 1)[at:at + step, None], slice(at, at + step)
        g, h = np.minimum(starts[:-1], big - 1), np.minimum(starts[1:], big)
        top = big + _cmax_at_deficit(big, g)
        off = (starts[:-1] >= h) | (top <= 0)
        u = (np.sqrt(4 * big + 5).astype(np.int64) - 1) // 2     # peak: largest u(u+1) <= m+1
        ln_count[rows] = _ln_count(lnf, big, np.clip(big - u, g, h - 1)) + np.log(h - g + off)
        ln_count[rows][off] = -math.inf
        ln_top[rows] = np.log(np.where(off, 1, top))
    return ln_count, ln_top, offs


def _tail_cuts(atoms: Atoms, k: int, lo: float) -> tuple:
    """(majorants to evaluate per slot size, (top, sum) of the certificate of
    the rest) at k: from the first segment whose rest is below 2^-60 lo / (slot sizes)."""
    (ln_count, ln_top, offs), big = atoms.segments(), atoms.tail
    ln_count, ln_top = ln_count[-big.size:], ln_top[-big.size:]
    ln_cap = (math.log(lo) if lo else LN_TINY) - 60 * math.log(2.0) - math.log(big.size)
    t = ln_top * (2 * k)
    t += ln_count
    t += (atoms.ln_w[big] - 2 * k * atoms.ln_scale[big] - ln_cap)[:, None]
    with np.errstate(over="ignore"):
        rest = np.cumsum(np.exp(t, out=t)[:, ::-1], axis=1)[:, ::-1]   # sum_{>= i} / e^ln_cap
    cut = (rest >= 1).sum(1)                          # rest falls in i, to 0 at the empty segment
    cert = float(rest[np.arange(big.size), cut].sum())
    return np.minimum(offs[cut], big - 1 - atoms.j_window), (ln_cap if cert else -math.inf, cert)


def _offset(atoms: Atoms, m, ln_d2, ln_top) -> tuple:
    """(ln_w[m] + ln d^2, ln |top| - ln_scale[m])."""
    w = np.take(atoms.ln_w, m)
    w += ln_d2
    y = np.take(atoms.ln_scale, m)
    return w, np.subtract(ln_top, y, out=y)


def power_sums(atoms: Atoms, ks, exact: bool = False) -> list:
    """sum_i w_i y_i^{2k} for every k in ks.

    exact: Fractions over den^{2k}, from the exact atoms' ints; atoms
    with equal num^2 share one weight, and their terms w num^{2k}, an
    object array, step by num^{2(k' - k)} from one k to the next k'.
    Otherwise certified (lower, upper) floats by log-sum-exp, one pass
    over the atom chunks for all ks: the lower edge sums the atoms, the
    upper edge adds per k the tail majorants up to _tail_cuts and a
    certificate for the rest.  Each k sums the Table block only if it
    reads it and the Window only to its smallest needed slot size
    (_gate), a prefix of the shared chunks, and adds the certificate of
    the rest to the upper edge: a bracket depends on k alone.  k = 0 is
    the atoms' zero, when they have one."""
    if not ks:
        return []
    if exact:
        if atoms.weights is None:
            raise ValueError("these atoms have no exact form")
        by_y2 = {}
        for w, y in zip(atoms.weights, atoms.nums):
            by_y2[y * y] = by_y2.get(y * y, 0) + w
        y2s = np.array(list(by_y2), dtype=object)
        terms, at, got = np.array(list(by_y2.values()), dtype=object), 0, {}
        for k in sorted(set(ks)):
            terms *= y2s if k - at == 1 else y2s ** (k - at)
            got[k], at = Fraction(terms.sum(), atoms.den ** (2 * k)), k
        return [got[k] for k in ks]
    if atoms.zero is not None and 0 in ks:                # k = 0 in closed form, no pass
        rest = [k for k in ks if k]
        got = dict(zip(rest, power_sums(atoms, rest)))
        return [got.get(k, (atoms.zero, atoms.zero)) for k in ks]
    stops, certs = _gate(atoms, ks)
    mains, tails = [[] for _ in ks], [[cert] for cert in certs]   # per k: (max, sum) per chunk
    for block, stop in zip(atoms.blocks, stops):
        for at, (ln_w, ln_y) in zip(count(0, ATOM_CHUNK), _block_chunks(atoms, block, max(stop))):
            on = [i for i, s in enumerate(stop) if s > at]
            _fold(ln_w, ln_y, [ks[i] for i in on], [mains[i] for i in on],
                  [stop[i] - at for i in on])
    los = [_total(main) for main in mains]
    if atoms.tail.size:                       # the ks' majorants built once, each k's summed
        cuts = [_tail_cuts(atoms, k, lo) for k, lo in zip(ks, los)]
        for ln_w, ln_y, ii, jj in _majorants(atoms, np.max([c for c, _ in cuts], axis=0)):
            for k, (counts, _), tail in zip(ks, cuts, tails):
                mine = jj <= atoms.j_window + counts[ii]
                _fold(ln_w[mine], ln_y[mine], [k], [tail], [None])
        for (_, cert), tail in zip(cuts, tails):
            tail.append(cert)
    return [(lo, lo + _total(tail)) for lo, tail in zip(los, tails)]


def _fold(ln_w, ln_y, ks, parts, stops) -> None:
    """Append each k's (top, sum) of w y^{2k} over the chunk's first
    stops[i] atoms (None: all) to its parts."""
    buf = np.empty_like(ln_w)
    for k, got, stop in zip(ks, parts, stops):
        w, t = ln_w[:stop], buf[:stop]
        if k:
            np.multiply(ln_y[:stop], 2 * k, out=t)
            t += w
        else:
            np.copyto(t, w)                                # 0 * ln 0 is nan
        got.append(_exp_sum(t))


def _exp_sum(t: np.ndarray) -> tuple[float, float]:
    """(top, sum of e^(t - top)) with top = max t, overwriting t.  Terms
    below the smallest normal float, 2^-1022 of the top term's 1 each, are
    left out: they cannot move the sum, and numpy's exp is 10-70 times
    slower on them."""
    top = t.max(initial=-math.inf)
    if top == -math.inf:
        return top, 0.0
    t -= top
    keep = t >= LN_TINY
    return top, float(np.exp(t, out=t, where=keep).sum(where=keep))


def _total(parts) -> float:
    """sum of e^t over chunks' (top, sum) without overflow: e^top times the
    sums where e^top is a normal float, else in logs (inf past the float range)."""
    top = max((p for p, _ in parts), default=-math.inf)
    if top == -math.inf:
        return 0.0
    s = sum(s * math.exp(p - top) for p, s in parts)
    if -700 < top < 700:
        return math.exp(top) * s
    with np.errstate(over="ignore"):
        return float(np.exp(top + math.log(s)))


def l2_column(atoms: Atoms, ks) -> list:
    """One l2 value per k: an exact Fraction where the atoms are exact and
    k <= EXACT_K_MAX, else the float upper edge."""
    exact = [k for k in ks if atoms.weights is not None and k <= EXACT_K_MAX]
    got = dict(zip(exact, power_sums(atoms, exact, exact=True)))
    rest = [k for k in ks if k not in got]
    got.update((k, hi) for k, (_, hi) in zip(rest, power_sums(atoms, rest)))
    return [got[k] for k in ks]


# ---------------------------------------------------------------------------
# collapsed l2 sum for the independent walk (and, with g_order=1, the
# transposition walk on S_n alone)

def _slot_atoms(g_order: int, n: int, window: tuple | None, paired: tuple | None = None) -> Atoms:
    """Atoms of the collapsed sum: weight C(n,n_1)(n!/n_1!)(|G|-1)^{n-n_1} d^2
    at y = (n_1 + content)/n^2 per lambda |- n_1, the trivial line (n_1 = n,
    [n]) excluded.  paired = (s, delta_n) gives the relaxed bound instead:
    y = (n_1 + content)/(n n_1), weights times s/2, and delta_n/4 at (n-1)/n.

    window None: every lambda, exactly, as ints over n^2 (a paired request
    raises ValueError).  window (j_window, full_enum_max): logs only, and
    each n_1 above max(full_enum_max, 2 j_window + 2) gets deficit-window
    atoms and tail majorants (slot sizes, _tail_segments' rows) instead of
    all its partitions.  Window atoms are _window_shape's (per n, built by
    need) and, for |G| > 1, table rows at n_1 <= full are _table_logs' (once
    per full; a Table block when n - 1 > full), held by reference, offset by
    ln w(n_1) and -ln scale(n_1) chunk by chunk; |G| = 1 has the one slot
    n_1 = n.  Either way zero is the weights' total in closed form.
    Not cached: no block outlives its cache."""
    if window is None and paired:
        raise ValueError("the relaxed bound has no exact atoms: its values share no denominator")
    half_s, extra = (Fraction(paired[0], 2), Fraction(paired[1], 4)) if paired else (1, 0)
    zero = _float_or_inf(half_s * (g_order ** n * math.factorial(n) - 1) + extra)
    full = n if window is None else min(n, max(window[1], 2 * window[0] + 2))
    if window is not None:
        need, atoms = _window_bytes(n, window[0], full)
        refuse_past_memory(need, f"the windowed brackets at n = {n} need about {need} bytes "
                                 f"for {atoms} window atoms and a chunk of {ATOM_CHUNK} atoms")
    slots = range(n + 1) if g_order > 1 else [n]            # |G| = 1: n_1 = n only
    if window is None or g_order == 1:
        table = content_rows(max((m for m in slots if m <= full), default=0))
        rows = [(m, c, d2) for m in slots if m <= full for c, d2 in table[m]
                if not (m == n and c == m * (m - 1))]
    if window is None:
        w = [math.comb(n, m) * math.perm(n, n - m) * (g_order - 1) ** (n - m) for m in range(n + 1)]
        atoms = exact_atoms([w[m] * d2 for m, _, d2 in rows], [m + c for m, c, _ in rows], n * n)
        return atoms._replace(zero=zero)
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])      # ln i!
    ms = np.arange(n + 1)
    ln_w = (_ln(half_s) + 2 * lnf[n] - 2 * lnf - lnf[::-1]
            + (n - ms) * math.log(max(g_order - 1, 1)))
    ln_scale = np.log(n * np.maximum(ms, 1)) if paired else np.full(n + 1, 2 * math.log(n))
    # blocks (m, ln d^2, ln |top|) of atoms at slot sizes m with y = |top| / scale:
    # the paired extra atom, table rows, window; then the tail majorants
    blocks = [(None, np.array([_ln(extra)]),
               np.array([_ln(Fraction(n - 1, n))]))] if paired else []
    if g_order == 1:
        blocks.append(_row_logs(rows))
    elif n - 1 > full:                 # read by need: lo holds the [n-1] atom
        blocks.append(Table(full))
    else:
        table = _table_logs(full)
        if n == full:                  # the trivial line [n] is level n's first row
            table = tuple(np.delete(col, np.searchsorted(table[0], n)) for col in table)
        blocks.append(table)
    big = np.array([m for m in slots if m > full], dtype=np.int64)
    # the window shape is built by need and the tail segments when first
    # read, so a table read (the pass's first block) holds neither
    segments = partial(_tail_segments, n, window[0], full)
    if big.size:
        blocks.append(_window_shape(n, window[0], full))
    return Atoms(tuple(blocks), ln_w, ln_scale, big, window[0], lnf, segments, zero=zero)


def _window_bytes(n: int, j_window: int, full: int) -> tuple[int, int]:
    """(bytes, window atoms) of the windowed brackets, in closed form before
    any is built: _window_shape's 2 (n - full) sum_{j <= j_window} p(j) - 1
    atoms at SHAPE_ATOM_BYTES, held once per n for every |G|, and one chunk
    of ATOM_CHUNK atoms at CHUNK_ATOM_BYTES.  The tail's _tail_segments, 16
    bytes per (n_1, segment), fit in the shape build's temporaries."""
    atoms = 2 * (n - full) * sum(partition_counts(j_window)) - 1 if n > full else 0
    return SHAPE_ATOM_BYTES * atoms + CHUNK_ATOM_BYTES * ATOM_CHUNK, atoms


def _row_logs(rows) -> tuple:
    """(m, ln d^2, ln |m + content|) arrays of (m, content, d^2) table rows,
    m in the smallest integer dtype that holds it."""
    sizes = np.array([m for m, _, _ in rows], dtype=np.int64)
    with np.errstate(divide="ignore"):
        return (sizes.astype(np.min_scalar_type(sizes.max(initial=0))),
                np.array([math.log(d2) for _, _, d2 in rows]),
                np.log(np.abs(sizes + np.array([c for _, c, _ in rows], dtype=np.int64))))


@lru_cache(maxsize=2)
def _table_logs(full: int) -> tuple:
    """_row_logs of every content_rows row at m <= full, trivial lines
    included: the |G|-free table atoms that every |G| > 1 reads."""
    return _row_logs([(m, c, d2) for m, level in enumerate(content_rows(full))
                      for c, d2 in level])


class Window:
    """The |G|-free window atoms (m, ln d^2, ln |m + content|) of the slot
    sizes m = n, n-1, ..., full+1 in turn: per m, lambda = (m - j, mu) per
    mu |- j <= j_window in reverse-lex order (a fixed order for the float
    sums), each then its conjugate, outside the window as m > 2 j_window + 2.
    The slot sizes >= m so are a prefix, built by need: a read past the
    built ones builds only the new slot sizes, by the same operations per
    atom.  cols leads with the trivial line [n], built and never read."""

    def __init__(self, n: int, j_window: int, full: int):
        self.n, self.j_window, self.full = n, j_window, full
        self.per_slot = 2 * sum(partition_counts(j_window))
        self.cols = (np.empty(0, dtype=np.min_scalar_type(n)), np.empty(0), np.empty(0))

    def stop(self, m_min: int) -> int:
        """The number of atoms of the slot sizes >= m_min."""
        return self.per_slot * (self.n + 1 - m_min) - 1

    def __call__(self, stop: int) -> tuple:
        """The first stop atoms (all, if fewer), built to the slot size they end in."""
        stop, have = min(stop, self.stop(self.full + 1)), len(self.cols[0])
        if stop >= have:
            end = -(-(stop + 1) // self.per_slot) * self.per_slot
            cols = tuple(np.empty(end, dtype=col.dtype) for col in self.cols)
            for new, old in zip(cols, self.cols):
                new[:have] = old
            big = np.arange(self.n - have // self.per_slot, self.n - end // self.per_slot, -1)
            self._build(big, [col[have:].reshape(big.size, self.per_slot) for col in cols])
            self.cols = cols
        return tuple(col[1:stop + 1] for col in self.cols)

    def _build(self, big, out) -> None:
        """Write the slot sizes big's atoms into out's rows, a few chunks at a time."""
        lnf = np.array([math.lgamma(i + 1) for i in range(self.n + 1)])
        lni = np.log(np.arange(self.n + 1).clip(1))[::-1]               # ln i, i from n down
        step = 8 * ATOM_CHUNK // self.per_slot + 1
        for at in range(0, big.size, step):
            b, rows, col = big[at:at + step], slice(at, at + step), 0
            runs = np.lib.stride_tricks.sliding_window_view(lni, b.size)  # runs[n - i]: ln (b + i)
            out[0][rows] = b[:, None]
            for j in range(self.j_window + 1):
                level = partition_table(j)
                parts = np.array([mu + (0,) * (j - len(mu)) for mu in level],
                                 dtype=np.int64).reshape(len(level), j)  # mu, zero-padded
                mu1 = parts.max(1, initial=0)[:, None]
                # first-row hooks by the strip formula: column c of mu has (parts >= c).sum(1)
                # cells, and the mu with mu_1 >= c lead (reverse-lex order)
                hooks = np.zeros((len(level), b.size))                   # (mu, m)
                for c in range(1, j + 1):
                    r = int((mu1 >= c).sum())
                    hooks[:r] += runs[self.n - b[0] + c - 1 + j - (parts[:r] >= c).sum(1)]
                dims, contents = zip(*level.values())
                ln_d = (lnf[b] - lnf[b - j - mu1] - lnf[j]
                        + np.array([[math.log(d)] for d in dims]) - hooks)
                c_lam = (b - j) * (b - j - 1) + np.array(contents)[:, None] - 2 * j
                top = np.empty((len(level), 2, b.size))                  # (mu, own | conjugate, m)
                np.add(b, c_lam, out=top[:, 0])
                np.subtract(b, c_lam, out=top[:, 1])
                with np.errstate(divide="ignore"):
                    np.log(np.abs(top, out=top), out=top)
                span, col = slice(col, col + 2 * len(level)), col + 2 * len(level)
                out[1][rows, span] = np.repeat(2 * ln_d.T, 2, axis=1)
                out[2][rows, span] = top.reshape(-1, b.size).T


_window_shape = lru_cache(maxsize=2)(Window)    # per (n, j_window, full), the last two


def _cmax_at_deficit(m, j):
    """Largest content among partitions of m with first row exactly m - j
    (greedy wide packing: q more rows of width m - j, then one of the
    remainder r; a box moved to a wider higher row always gains).  Works
    elementwise on arrays, whose every m - j must then be >= 1."""
    w = m - j
    q, r = np.divmod(j, w)
    return w * (w - 1) + q * w * w - w * ((q + 1) ** 2 - 1) + r * r - (2 * q + 3) * r


def l2n_sq_collapsed(g_order: int, n: int, k: int, exact: bool = False):
    """sum over n_1 of C(n,n_1)(n!/n_1!)(|G|-1)^{n-n_1} sum over lambda|-n_1
    of d^2 [(n_1 + content)/n^2]^{2k}, trivial (n_1=n, [n]) excluded.

    Independent walk only; with g_order=1 it degenerates to the
    transposition walk's spectral sum on S_n.  Exact Fractions for
    n <= FULL_ENUM_MAX and k <= EXACT_K_MAX, float (windowed upper edge
    above FULL_ENUM_MAX) otherwise; exact=True forces the Fraction at any
    k (n <= FULL_ENUM_MAX)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if exact and n > FULL_ENUM_MAX:
        raise ValueError(f"exact path limited to n <= {FULL_ENUM_MAX}")
    atoms = _atoms(g_order, n)
    return power_sums(atoms, [k], exact=True)[0] if exact else l2_column(atoms, [k])[0]


def _atoms(g_order: int, n: int, paired: tuple | None = None) -> Atoms:
    """The collapsed atoms (paired = (s, delta_n): the relaxed bound's)
    under the one exactness rule: exact, every row as ints over n^2, iff
    they are collapsed atoms and n <= FULL_ENUM_MAX, else windowed logs."""
    if not paired and n <= FULL_ENUM_MAX:
        return _exact_atoms(g_order, n)
    return _slot_atoms(g_order, n, (J_WINDOW, FULL_ENUM_MAX), paired)


@lru_cache(maxsize=8)
def _exact_atoms(g_order: int, n: int) -> Atoms:
    """_slot_atoms without a window, cached (windowed atoms would pin shapes)."""
    return _slot_atoms(g_order, n, None)


def l2n_sq_collapsed_bounds(g_order: int, n: int, k: int) -> tuple[float, float]:
    """Certified (lower, upper) floats for the collapsed sum.  They coincide
    whenever the atoms are exact (n <= FULL_ENUM_MAX)."""
    return power_sums(_atoms(g_order, n), [k])[0]


# ---------------------------------------------------------------------------
# paired walk: delta_n and the relaxed upper bound

def delta_n(g: GroupTable, n: int) -> int:
    """sum over nontrivial base irreps of d^{2n}; |G|-1 when abelian."""
    return sum(d ** (2 * n) for d in g.irrep_dims()[1:])


def paired_relaxed_bound(g: GroupTable, n: int, k: int):
    """Upper bound on (1/4) l2n_sq for the paired walk:

      (1/2) s sum_{n_1} C(n,n_1)(n!/n_1!)(|G|-1)^{n-n_1}
          sum_{lambda |- n_1, trivial excluded} d^2 [(n_1+content)/(n n_1)]^{2k}
      + (1/4) delta_n ((n-1)/n)^{2k}

    The inner power majorizes every per-slot eigenvalue (the true ones
    carry an extra 1/d_j decay), so the bound is loose but safe on
    nonabelian bases.  The float upper edge at every n and k: the values
    share no denominator, so the atoms have no exact form."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return l2_column(_atoms(g.order, n, (g.num_classes, delta_n(g, n))), [k])[0]


# ---------------------------------------------------------------------------
# TV bounds

def tv_upper_spectral(l2n_sq_value) -> float:
    """TV <= (1/2) sqrt(|group| * ||P-U||_2^2), clamped to [0, 1]."""
    v = float(l2n_sq_value)
    if v != v or v == float("inf"):
        return 1.0
    return min(1.0, 0.5 * math.sqrt(max(0.0, v)))


def tv_upper_coupling(n: int, k: int, sym_tv_upper: float) -> float:
    """TV of the independent wreath walk <= TV of the bare permutation walk
    plus the chance some coordinate was never touched: exact tail
    n (1 - 1/n)^{2k}."""
    tail = n * (1.0 - 1.0 / n) ** (2 * k)
    return min(1.0, sym_tv_upper + tail)


def l2_lower_dominant(dims: list[int], n: int, k: int, kind: str) -> float:
    """(1/2) sqrt of the dominant spectral summand: a certified lower bound
    on (1/2) sqrt(l2n_sq), i.e. on the normalized l2 distance scale (not a
    TV lower bound).  dims are the base group's irrep dimensions, trivial
    first; |G| = sum d^2.

    independent: n^2 (|G|-1) (1-1/n)^{4k}.
    paired: max of that and the all-in-one-slot family: d_j^{2n} lines
    at (n-1)/(n d_j) = (n-1)(L/d_j)/(n L), L = lcm(d_j), per nontrivial
    base irrep j, which is what the true spectrum has
    ((|G|-1)((n-1)/n)^{2k} in all on an abelian base).
    """
    return _dominant_column(dims, n, [k], kind)[0]


def _dominant_column(dims: list[int], n: int, ks, kind: str) -> list:
    """l2_lower_dominant at every k, the paired family in one pass."""
    if kind not in ("independent", "paired"):
        raise ValueError("dominant term applies to the wreath walks")
    terms = [n * n * (sum(d * d for d in dims) - 1) * (1.0 - 1.0 / n) ** (4 * k) for k in ks]
    if kind == "paired":
        slots, lcm = dims[1:], math.lcm(*dims)
        nums = [(n - 1) * lcm // d for d in slots]
        atoms = exact_atoms([d ** (2 * n) for d in slots], nums, n * lcm)
        terms = [max(term, lo) for term, (lo, _) in zip(terms, power_sums(atoms, ks))]
    return [0.5 * math.sqrt(term) for term in terms]


def tv_lower_chebyshev_sym(n: int, k: int) -> float:
    """Chebyshev separation for the transposition walk on S_n, using the
    fixed-point count: E = (n-1)(1-2/n)^k and
    Var = 1 + (n-1)(1-2/n)^k + (1/2)(n-1)(n-2)(1-4/n)^k
          - (1/2)(n^2-n+2)(1-2/n)^{2k};
    the bound 1 - 1/a^2 - Var/(E-a)^2 holds for every a in (0, E), so the
    best grid point is still a true lower bound.  Clamped to [0, 1]."""
    if n < 4:
        raise ValueError("needs n >= 4")
    if k < 0:
        raise ValueError("k must be >= 0")
    e1 = (1.0 - 2.0 / n) ** k
    e2 = (1.0 - 4.0 / n) ** k
    E = (n - 1) * e1
    if E <= 0:
        return 0.0
    var = 1.0 + (n - 1) * e1 + 0.5 * (n - 1) * (n - 2) * e2 - 0.5 * (n * n - n + 2) * e1 * e1
    var = max(var, 0.0)
    best = 0.0
    top = E * 0.999
    lo = E * 1e-4
    if top <= lo:
        return 0.0
    ratio = (top / lo) ** (1.0 / 63.0)
    a = lo
    for _ in range(64):
        val = 1.0 - 1.0 / (a * a) - var / ((E - a) * (E - a))
        if val > best:
            best = val
        a *= ratio
    return min(1.0, best)


# ---------------------------------------------------------------------------
# eigenvalue envelope for the independent walk

def independent_envelope_holds(n: int) -> bool:
    """Every nontrivial independent-walk eigenvalue has modulus at most
    (1 - 1/n)^2.  Exact-arithmetic reduction:

      n_1 <= n-1: |y| <= (n_1 + n_1(n_1-1))/n^2 = n_1^2/n^2 since |r| <= 1.
      n_1 = n: [n] is excluded and the largest remaining r is
               r([n-1,1]) = (n-3)/(n-1) (moving a box to a higher row
               strictly increases the content sum, so [n-1,1] dominates);
               then |y| <= (n-2)/n < (1-1/n)^2.

    For n <= 30 the r-extremes are also checked by brute enumeration.
    """
    if n < 2:
        return True
    cap = Fraction((n - 1) ** 2, n * n)
    assert Fraction((n - 1) ** 2, n * n) <= cap
    assert Fraction(1, n * n) <= cap
    # n_1 = n branch, both signs
    r2 = Fraction(n - 3, n - 1)
    top = Fraction(1, n) + Fraction(n - 1, n) * r2
    bot = Fraction(1, n) - Fraction(n - 1, n)
    assert abs(top) <= cap and abs(bot) <= cap
    if n <= 30:
        rs = sorted(
            (char_ratio_transposition(lam), lam) for lam in enumerate_partitions(n)
        )
        assert rs[-1][1] == (n,) and rs[-1][0] == 1
        assert rs[-2][0] == r2
        assert rs[0][0] == -1
        for r, lam in rs[:-1]:
            y = Fraction(1, n) + Fraction(n - 1, n) * r
            assert abs(y) <= cap, (n, lam)
    return True


def envelope_decay_certificate(g_order: int, n: int, c: float,
                               k0: int | None = None) -> tuple[float, float]:
    """(upper bound at k0 + ceil(cn), e^{-4c} * lower bound at k0) for the
    independent walk's l2n_sq; the first should not exceed the second."""
    if k0 is None:
        extra = 0.25 * n * math.log(g_order - 1) if g_order > 1 else 0.0
        k0 = math.ceil(0.5 * n * math.log(n) + extra)
    k1 = k0 + math.ceil(c * n)
    (lo0, _), (_, hi1) = power_sums(_atoms(g_order, n), [k0, k1])
    return hi1, math.exp(-4.0 * c) * lo0


# ---------------------------------------------------------------------------
# step-count thresholds

@dataclass(frozen=True)
class ThresholdRow:
    g_class: str       # Z2 | Zm | Sm | abelian | nonabelian
    metric: str        # l2 | tv
    direction: str     # sufficient | necessary
    formula: str
    asymptotic: bool = False


_IND_L2 = {
    "Z2": "(1/2) n log n",
    "Zm": "(1/2) n log n + (1/4) n log(m-1)",
    "Sm": "(1/2) n log n + (1/4) n log(m!-1)",
    "abelian": "(1/2) n log n + (1/4) n log(|G|-1)",
    "nonabelian": "(1/2) n log n + (1/4) n log(|G|-1)",
}

_PAIRED_L2_SUFF = {
    "Z2": "n log n",
    "Zm": "n log n + n log(m-1)",
    "Sm": "max{ (1/2) n log delta_n, n log n + (1/2) n log(m!-1) + (1/2) n log(p(m)-1) }",
    "abelian": "n log n + n log(|G|-1)",
    "nonabelian": "max{ (1/2) n log delta_n, n log n + (1/2) n log(|G|-1) + (1/2) n log(s-1) }",
}

_PAIRED_L2_NEC = {
    "Z2": "(1/2) n log n",
    "Zm": "(1/2) n log n + (1/4) n log(m-1)",
    "Sm": "max{ (1/2) n log delta_n, (1/2) n log n + (1/4) n log(m!-1) }",
    "abelian": "(1/2) n log n + (1/4) n log(|G|-1)",
    "nonabelian": "max{ (1/2) n log delta_n, (1/2) n log n + (1/4) n log(|G|-1) }",
}

G_CLASSES = ("Z2", "Zm", "Sm", "abelian", "nonabelian")


def threshold_rows(kind: str) -> list[ThresholdRow]:
    """Every row of the step-count summary table for one walk."""
    if kind == "sym":
        return [
            ThresholdRow("Sm", m, d, "(1/2) n log n")
            for m in ("l2", "tv")
            for d in ("sufficient", "necessary")
        ]
    if kind == "independent":
        rows = []
        for gc in G_CLASSES:
            for direction in ("sufficient", "necessary"):
                rows.append(ThresholdRow(gc, "l2", direction, _IND_L2[gc]))
            for direction in ("sufficient", "necessary"):
                rows.append(ThresholdRow(gc, "tv", direction, "(1/2) n log n"))
        return rows
    if kind == "paired":
        rows = []
        for gc in G_CLASSES:
            rows.append(ThresholdRow(gc, "l2", "sufficient", _PAIRED_L2_SUFF[gc]))
            rows.append(ThresholdRow(gc, "l2", "necessary", _PAIRED_L2_NEC[gc]))
            rows.append(ThresholdRow(gc, "tv", "sufficient", "(1/2) n log n", asymptotic=True))
            rows.append(ThresholdRow(gc, "tv", "necessary", "(1/2) n log n"))
        return rows
    raise ValueError(f"unknown walk kind {kind!r}")


def classify_base(g: GroupTable) -> str:
    if g.order < 2:
        raise ValueError(f"base group {g.name} is trivial; wreath walks need order >= 2")
    if g.order == 2:
        return "Z2"
    if g.name.startswith("Z:"):
        return "Zm"
    if g.name.startswith("S:"):
        return "Sm"
    return "abelian" if g.is_abelian else "nonabelian"


def mixing_threshold(g: GroupTable | None, n: int, kind: str, metric: str) -> float:
    """The sufficient-direction step count of the summary tables, as a
    number (natural log)."""
    if metric not in ("l2", "tv"):
        raise ValueError("metric must be l2 or tv")
    base = 0.5 * n * math.log(n)
    if kind == "sym" or metric == "tv":
        return base
    a = walk_base(kind, g).order
    if kind == "independent":
        return base + (0.25 * n * math.log(a - 1) if a > 1 else 0.0)
    if kind == "paired":
        s = g.num_classes
        main = n * math.log(n)
        if a > 1:
            main += 0.5 * n * math.log(a - 1)
        if s > 1:
            main += 0.5 * n * math.log(s - 1)
        dn = delta_n(g, n)
        alt = 0.5 * n * math.log(dn) if dn > 1 else 0.0
        return max(main, alt)
    raise ValueError(f"unknown walk kind {kind!r}")


# ---------------------------------------------------------------------------
# curve assembly

@dataclass
class DistanceCurve:
    kind: str
    n: int
    mode: str                 # full-spectrum | collapsed | relaxed
    rows: list                # dicts keyed by the csv columns (cli.DISTANCE_COLUMNS)


def distance_curve(kind: str, n: int, g: GroupTable | None = None,
                   ks: list[int] | None = None,
                   max_labels: int | None = None) -> DistanceCurve:
    """Distance/bound table over a k range.  Sym (|G| = 1) and independent
    curves read the collapsed rows: every row, the exact spectrum, for
    n <= FULL_ENUM_MAX, else a window.  Paired curves read the slot
    convolution while the label count fits max_labels, else the relaxed
    bound.  Each l2 column comes from one set of atoms for all ks."""
    from .walks import slot_convolution

    g = walk_base(kind, g)
    if ks is None:
        ks = list(range(0, 2 * n + 1))
    cap = MAX_LABELS if max_labels is None else max_labels
    if kind != "paired":
        mode = "full-spectrum" if n <= FULL_ENUM_MAX else "collapsed"
        l2s = l2_column(_atoms(g.order, n), ks)
    elif n <= WORD_M_MAX and class_count(g, n) <= cap:      # content_rows needs the table
        mode = "full-spectrum"
        den, mults = slot_convolution(n, g)
        nums = sorted(mults, reverse=True)[1:]              # the nontrivial lines
        l2s = l2_column(exact_atoms([mults[v] for v in nums], nums, den), ks)
    else:
        mode = "relaxed"
        atoms = _atoms(g.order, n, (g.num_classes, delta_n(g, n)))
        l2s = [4.0 * float(v) for v in l2_column(atoms, ks)]
    dominant = _dominant_column(g.irrep_dims(), n, ks, kind) if kind != "sym" else [None] * len(ks)
    sym_l2s = l2_column(_atoms(1, n), ks) if kind == "independent" and n >= 2 else [0] * len(ks)
    rows = [{
        "k": k,
        "l2n_sq": l2,
        "tv_upper_spectral": tv_upper_spectral(l2),
        "tv_upper_coupling": (tv_upper_coupling(n, k, tv_upper_spectral(sym_l2))
                              if kind == "independent" else None),
        "l2_lower_dominant": low,
        "tv_lower_chebyshev": tv_lower_chebyshev_sym(n, k) if kind == "sym" and n >= 4 else None,
    } for k, l2, sym_l2, low in zip(ks, l2s, sym_l2s, dominant)]
    return DistanceCurve(kind=kind, n=n, mode=mode, rows=rows)
