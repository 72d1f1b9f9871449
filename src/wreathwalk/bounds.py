"""Distance curves and every bound chain: the collapsed independent-walk
sum, the relaxed paired-walk upper bound, coupling and dominant-term and
Chebyshev witnesses, and the step-count threshold tables.

Every l2 sum (the spectral one in walks too) is sum_i w_i y_i^{2k} over
Atoms.  One evaluator, power_sums, takes a whole list of k: exact
Fractions, or certified (lower, upper) floats by log-sum-exp.  The
collapsed and relaxed atoms are one per (n_1, content) row of the shared
partition table, as |G|-free blocks; |G| and the walk enter only as the
per-slot offsets ln w(n_1) and ln scale(n_1).  Above FULL_ENUM_MAX the
terms are certified units, each at most a closed form c y^{2k} summed
over a few terms (_unit_terms): a table level n_1 <= FULL_ENUM_MAX, its
rows; a window slot size n_1, its partitions of first row or column
n_1 - j, j <= J_WINDOW; and a tail segment of larger deficits j, one
majorant per j that counts toward the upper edge only.  One rule
(_reads) decides per k and unit to read its atoms or add its certificate
to the upper edge: read iff the certificate is not below 2^-60 of the
[n-1] atom's term, which the lower edge holds, over the number of levels
and slot sizes.  A k reads prefixes of runs (levels from 0 up, slot sizes
from n down, each slot size's segments from J_WINDOW up), so a bracket
depends on its k alone, and the window is built slot size by slot size
only as far as some k reads (Window): near the cutoff no partition table
and a few dozen window slot sizes.  At k = 0 the sum is the weights'
total, |G|^n n! - 1 (for the relaxed bound (s/2)(|G|^n n! - 1) +
delta_n/4), which the atoms carry as Atoms.zero, read with no pass.

The float sums stream: a pass folds chunks of ATOM_CHUNK (ln w, ln |y|)
into a running log-sum-exp per k, so a windowed bracket holds the window
slot sizes built so far (18 bytes an atom) and one chunk, never a copy
of them or the tail; terms below 2^-1022 of a chunk's largest are left
out, which no float sum can see.

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
from functools import cache, lru_cache
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
    """Terms w y^{2k} of an l2 sum as blocks (m, ln d^2, ln |top|), maybe
    callables built when first read: ln w = ln_w[m] + ln d^2 and ln |y| =
    ln |top| - ln_scale[m] (m None: no offsets); `units`, more terms that
    each k reads or certifies; when exact, the blocks as int `weights` and
    `nums` over den; `zero`, the float sum at k = 0 in closed form."""
    blocks: tuple
    ln_w: np.ndarray | None = None
    ln_scale: np.ndarray | None = None
    units: Units | None = None
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
    block, its logs built on the first float read, no offsets and no units."""
    weights, nums = tuple(weights), tuple(nums)

    @cache
    def logs() -> tuple:
        ln_y = np.array([_ln(y) for y in nums], dtype=float) - math.log(den)
        return None, np.array([_ln(w) for w in weights], dtype=float), ln_y
    return Atoms((logs,), weights=weights, nums=nums, den=den)


class Units(NamedTuple):
    """Windowed terms as units in sections of runs (_unit_terms): the table
    levels from 0 up (if `table`), one run; the first `slots` window slot
    sizes from n down, one run; per slot size, its tail segments from
    deficit j_window + 1 up, whose atoms are majorants."""
    window: Window
    slots: int
    table: bool

    def sections(self) -> list:
        """(m, ln c, ln y) per section, _unit_terms' grids cut to these units."""
        w = self.window
        table, window, tail = _unit_terms(w.n, w.j_window, w.full)[:3]
        return [table] * self.table + [tuple(a[:, :self.slots] for a in window),
                                       tuple(a[-self.slots:] for a in tail)]

    def blocks(self, reads) -> list:
        """(block, per-k stops) of the table rows and window atoms of the
        units each k reads, built only as far as some k reads."""
        w, slots = self.window, reads[-2][:, 0]
        out = [(w(w.stop(w.n + 1 - int(slots.max()))), (w.per_slot * slots - 1).tolist())]
        if self.table and reads[0].any():
            table = _table_logs(w.full)
            out.insert(0, (table, np.searchsorted(table[0], reads[0][:, 0]).tolist()))
        return out

    def majorants(self, atoms: Atoms, reads):
        """(ln w, ln |y|, run, segment) of the majorants of each run r's
        first reads[r] segments, in chunks of whole runs fixed by n: at slot
        size m and deficit j, 2 C(m,j)^2 j! at |top| = m + cmax(m,j) > 0."""
        w = self.window
        offs, lnf = _unit_terms(w.n, w.j_window, w.full)[3:]
        big = np.arange(w.n + 1 - self.slots, w.n + 1)
        most, step = np.minimum(offs[reads], big - 1 - w.j_window), ATOM_CHUNK // w.n + 1
        for r in range(0, big.size, step):
            c = most[r:r + step]
            if not c.any():
                continue
            ii = np.repeat(np.arange(r, r + c.size), c)
            jj = np.arange(ii.size) - np.repeat(np.cumsum(c) - c, c) + w.j_window + 1
            top = big[ii] + _cmax_at_deficit(big[ii], jj)
            ii, jj, top = ii[top > 0], jj[top > 0], top[top > 0]
            m = big[ii]
            yield (atoms.ln_w[m] + _ln_count(lnf, m, jj), np.log(top) - atoms.ln_scale[m], ii,
                   np.searchsorted(offs, jj - w.j_window - 1, side="right") - 1)


def _block_chunks(atoms: Atoms, block, stop: int = sys.maxsize):
    """(ln w, ln |y|) of a block's first stop atoms, ATOM_CHUNK at a time
    from its first, offset chunk by chunk; a callable block is built here."""
    m, ln_d2, ln_top = block() if callable(block) else block
    for at in range(0, min(stop, len(ln_d2)), ATOM_CHUNK):
        part = slice(at, at + ATOM_CHUNK)
        if m is None:
            yield ln_d2[part], ln_top[part]
        else:
            yield atoms.ln_w[m[part]] + ln_d2[part], ln_top[part] - atoms.ln_scale[m[part]]


def _ln_count(lnf, m, j):
    """ln 2 C(m,j)^2 j! >= ln d^2 of all lambda |- m with first row or column m - j."""
    return math.log(2.0) + 2 * (lnf[m] - lnf[j] - lnf[m - j]) + lnf[j]


@lru_cache(maxsize=2)
def _unit_terms(n: int, j_window: int, full: int) -> tuple:
    """Per section, (m, ln c, ln y) grids (run, unit, term): a unit at slot
    size m is at most w(m) sum_terms c (y / scale(m))^{2k}, |G|-free.  A
    table level m has d^2 mass m! at |y| <= max(m, 1)^2; a window slot size
    m, per deficit j <= j_window, 2 C(m,j)^2 j! at |y| <= m + cmax(m,j),
    own and conjugate; a tail segment, deficits [g, h) growing 1.15-fold,
    (h - g) times that count's peak (log-concave) at y(m, g), as y falls.
    Then the segments' first deficits less j_window + 1, and ln i!."""
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    levels, big = np.arange(full + 1)[None, :, None], np.arange(n, full, -1)[None, :, None]
    offs = [0]
    while j_window + 1 + offs[-1] < n:
        offs.append(max(offs[-1] + 1, int(offs[-1] * 1.15)))
    starts, tail = j_window + 1 + np.array(offs), np.empty((2, big.size, len(offs) - 1, 1))
    step = ATOM_CHUNK // len(offs) + 1                           # slot sizes at a time
    for at in range(0, big.size, step):
        m, rows = big[0, ::-1][at:at + step], slice(at, at + step)
        g, h = np.minimum(starts[:-1], m - 1), np.minimum(starts[1:], m)
        top = m + _cmax_at_deficit(m, g)
        off = (starts[:-1] >= h) | (top <= 0)
        u = (np.sqrt(4 * m + 5).astype(np.int64) - 1) // 2       # peak: largest u(u+1) <= m+1
        ln_c = _ln_count(lnf, m, np.clip(m - u, g, h - 1)) + np.log(h - g + off)
        tail[0, rows, :, 0] = np.where(off, -math.inf, ln_c)
        tail[1, rows, :, 0] = np.log(np.where(off, 1, top))
    jj = np.arange(j_window + 1)
    return ((levels, lnf[levels], 2 * np.log(levels.clip(1))),
            (big, _ln_count(lnf, big, jj), np.log(big + _cmax_at_deficit(big, jj))),
            (big[0, ::-1, None], *tail), starts - j_window - 1, lnf)


def _reads(atoms: Atoms, ks) -> tuple[list, list]:
    """The one rule: a unit is needed at k iff its certificate is >= 2^-60
    ref(k) / (the units of its kind: table levels and window slot sizes, or
    tail segments), ref(k) the [n-1] atom's term, which lo holds; so is slot
    size n.  The skipped units of each kind sum to at most 2^-60 ref(k), so
    all of them to at most 2^-59 ref(k).  A k reads each run through its
    last needed unit and certifies the rest, so k alone decides; where a
    one-row atom [m] puts lo past the float range, hi is too, and the tail
    is left out.  Per section the units each k reads per run (k, run), and
    per k the certificate (top, sum) of those it skips."""
    n, sections = atoms.ln_w.size - 1, atoms.units.sections()
    ms, two_k = np.arange(1, n if atoms.units.table else 1), 2.0 * np.array(ks, dtype=float)
    units = sum(c[..., 0].size for _, c, _ in sections[:-1])     # table levels and slot sizes
    ln_cap = (atoms.ln_w[n - 1] + two_k * (2 * math.log(n - 1) - atoms.ln_scale[n - 1])
              - 60 * math.log(2.0) - math.log(units))
    tail = units / sections[-1][1][..., 0].size           # the tail's cap over ln_cap
    reads = [np.empty((len(ks), len(c)), dtype=np.int64) for _, c, _ in sections]
    skipped, step = np.zeros(len(ks)), ATOM_CHUNK // sum(c.size for _, c, _ in sections) + 1
    for at in range(0, len(ks), step):
        k2, cap = two_k[at:at + step, None, None, None], ln_cap[at:at + step, None, None, None]
        ln_m = atoms.ln_w[ms] + k2[:, 0, 0] * (2 * np.log(ms) - atoms.ln_scale[ms])
        for (m, ln_c, ln_y), read in zip(sections, reads):
            if read is reads[-1]:
                cap = np.where(ln_m.max(-1, initial=-math.inf)[:, None, None, None]
                               > math.log(sys.float_info.max), math.inf, cap + math.log(tail))
            t = ln_y * k2
            t += ln_c
            t += atoms.ln_w[m] - k2 * atoms.ln_scale[m] - cap
            keep = t >= LN_TINY                                   # the rest cannot move a sum
            with np.errstate(over="ignore"):
                u = np.exp(t, out=t, where=keep).sum(-1, where=keep)    # (k, run, unit): cert / cap
            ranks = np.arange(1, u.shape[-1] + 1)                  # slot size n is always read
            got = read[at:at + step] = (ranks * (u >= 1)).max(-1).clip(int(read is reads[-2]))
            skipped[at:at + step] += (np.where(ranks > got[..., None], u, 0).sum((1, 2))
                                      * (tail if read is reads[-1] else 1))
    return reads, [(c if s else -math.inf, s) for c, s in zip(ln_cap.tolist(), skipped.tolist())]


def power_sums(atoms: Atoms, ks, exact: bool = False) -> list:
    """sum_i w_i y_i^{2k} for every k in ks; a k below 0 raises ValueError.

    exact: Fractions over den^{2k}, from the exact atoms' ints; atoms
    with equal num^2 share one weight, and their terms w num^{2k}, an
    object array, step by num^{2(k' - k)} from one k to the next k'.
    Otherwise certified (lower, upper) floats by log-sum-exp, one pass
    over the atom chunks for all ks: lo sums the blocks and the units a k
    reads (_reads); hi adds its majorants and the certificate of the rest.
    k = 0 is the atoms' zero, when they have one."""
    if any(k < 0 for k in ks):
        raise ValueError("k must be >= 0")
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
    reads, certs = _reads(atoms, ks) if atoms.units else ([], [(-math.inf, 0.0)] * len(ks))
    mains, tails = [[] for _ in ks], [[cert] for cert in certs]   # per k: (max, sum) per chunk
    blocks = [(block, [sys.maxsize] * len(ks)) for block in atoms.blocks]
    for block, stop in blocks + (atoms.units.blocks(reads) if atoms.units else []):
        for at, (ln_w, ln_y) in zip(count(0, ATOM_CHUNK), _block_chunks(atoms, block, max(stop))):
            on = [i for i, s in enumerate(stop) if s > at]
            _fold(ln_w, ln_y, [ks[i] for i in on], [mains[i] for i in on],
                  [slice(stop[i] - at) for i in on])
    if atoms.units:                           # the ks' majorants built once, each k's masked
        for ln_w, ln_y, run, seg in atoms.units.majorants(atoms, reads[-1].max(0)):
            _fold(ln_w, ln_y, ks, tails, [seg < read[run] for read in reads[-1]])
    los = [_total(main) for main in mains]
    return [(lo, lo + _total(tail)) for lo, tail in zip(los, tails)]


def _fold(ln_w, ln_y, ks, parts, sels) -> None:
    """Append each k's (top, sum) of w y^{2k} over its selection of the
    chunk, a slice or a mask, to its parts."""
    buf = np.empty_like(ln_w)
    for k, got, sel in zip(ks, parts, sels):
        w = ln_w[sel]
        t = buf[:w.size]
        if k:
            np.multiply(ln_y[sel], 2 * k, out=t)
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
    raises ValueError).  window (j_window, full_enum_max): |G|-free blocks,
    offset by ln w(n_1) and -ln scale(n_1), and above full = max(full_enum_max,
    2 j_window + 2) Units (|G| = 1: n_1 = n alone).  zero is the weights'
    total.  Not cached: no block outlives its cache."""
    half_s, extra = (Fraction(paired[0], 2), Fraction(paired[1], 4)) if paired else (1, 0)
    if window is None:
        if paired:
            raise ValueError("the relaxed bound has no exact atoms: its values share no "
                             "denominator")
        table = content_rows(n)
        rows = [(m, c, d2) for m in (range(n + 1) if g_order > 1 else [n])  # |G| = 1: n_1 = n only
                for c, d2 in table[m] if not (m == n and c == m * (m - 1))]
        w = [math.comb(n, m) * math.perm(n, n - m) * (g_order - 1) ** (n - m) for m in range(n + 1)]
        return exact_atoms([w[m] * d2 for m, _, d2 in rows], [m + c for m, c, _ in rows],
                           n * n)._replace(zero=_total_weight(g_order, n, half_s, extra))
    full = min(n, max(window[1], 2 * window[0] + 2))
    need, atoms = _window_bytes(n, window[0], full)
    refuse_past_memory(need, f"the windowed brackets at n = {n} need about {need} bytes "
                             f"for {atoms} window atoms and a chunk of {ATOM_CHUNK} atoms")
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])      # ln i!
    ms = np.arange(n + 1)
    ln_w = (_ln(half_s) + 2 * lnf[n] - 2 * lnf - lnf[::-1]
            + (n - ms) * math.log(max(g_order - 1, 1)))
    ln_scale = np.log(n * np.maximum(ms, 1)) if paired else np.full(n + 1, 2 * math.log(n))
    # the paired extra atom, then at n = full the table less [n], level n's first row
    # (|G| = 1: level n alone)
    blocks = [(None, np.array([_ln(extra)]), np.array([_ln(Fraction(n - 1, n))]))] if paired else []
    if n == full:
        table = _table_logs(full)
        at = np.searchsorted(table[0], n)
        blocks.append(tuple(np.delete(col, at) if g_order > 1 else col[at + 1:] for col in table))
    units = (Units(_window_shape(n, window[0], full), n - full if g_order > 1 else 1, g_order > 1)
             if n > full else None)
    return Atoms(tuple(blocks), ln_w, ln_scale, units,
                 zero=_total_weight(g_order, n, half_s, extra))


def _total_weight(g_order: int, n: int, half_s, extra) -> float:
    """half_s (|G|^n n! - 1) + extra, the atoms' total weight, as a float:
    inf, without the exact order, where ln of its leading term (lgamma for
    ln n!) passes 710, above ln(float max) = 709.78."""
    if n * math.log(g_order) + math.lgamma(n + 1) + _ln(half_s) > 710:
        return math.inf
    return _float_or_inf(half_s * (g_order ** n * math.factorial(n) - 1) + extra)


def _window_bytes(n: int, j_window: int, full: int) -> tuple[int, int]:
    """(bytes, window atoms) of windowed brackets reading every slot size,
    before any is built: 2 (n - full) sum_{j <= j_window} p(j) - 1 atoms at
    SHAPE_ATOM_BYTES, once per n for every |G|, and one chunk at
    CHUNK_ATOM_BYTES (_unit_terms fits in the build's temporaries)."""
    atoms = 2 * (n - full) * sum(partition_counts(j_window)) - 1 if n > full else 0
    return SHAPE_ATOM_BYTES * atoms + CHUNK_ATOM_BYTES * ATOM_CHUNK, atoms


@lru_cache(maxsize=2)
def _table_logs(full: int) -> tuple:
    """(m, ln d^2, ln |m + content|) of every content_rows row at m <= full,
    trivial lines included, m in the smallest integer dtype that holds it:
    the |G|-free table atoms."""
    rows = [(m, c, d2) for m, level in enumerate(content_rows(full)) for c, d2 in level]
    sizes = np.array([m for m, _, _ in rows], dtype=np.int64)
    with np.errstate(divide="ignore"):
        return (sizes.astype(np.min_scalar_type(full)),
                np.array([math.log(d2) for _, _, d2 in rows]),
                np.log(np.abs(sizes + np.array([c for _, c, _ in rows], dtype=np.int64))))


class Window:
    """The |G|-free window atoms (m, ln d^2, ln |m + content|) of the slot
    sizes m = n, n-1, ..., full+1: per m, lambda = (m - j, mu) per mu |- j
    <= j_window in reverse-lex order, each then its conjugate.  The slot
    sizes >= m are a prefix, built by need, only the new ones at a time.
    cols leads with the trivial line [n], built and never read."""

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
        """Write the slot sizes big's atoms into out's rows in place, a few chunks at a time."""
        lnf = np.array([math.lgamma(i + 1) for i in range(self.n + 1)])
        lni = np.log(np.arange(self.n + 1).clip(1))[::-1]               # ln i, i from n down
        step = 8 * ATOM_CHUNK // self.per_slot + 1
        levels = []                  # per deficit j: what no slot size changes
        for j in range(self.j_window + 1):
            level = partition_table(j)
            parts = np.array([mu + (0,) * (j - len(mu)) for mu in level],
                             dtype=np.int64).reshape(len(level), j)      # mu, zero-padded
            mu1 = parts.max(1, initial=0)
            # first-row hooks by the strip formula: column c of mu has (parts >= c).sum(1)
            # cells, and the mu with mu_1 >= c lead (reverse-lex order)
            strips = [(r, c - 1 + j - (parts[:r] >= c).sum(1))
                      for c in range(1, j + 1) for r in [int((mu1 >= c).sum())]]
            dims, contents = zip(*level.values())
            levels.append((len(level), mu1, strips, np.array([math.log(d) for d in dims]),
                           np.array(contents)))
        for at in range(0, big.size, step):
            b, rows, col = big[at:at + step, None], slice(at, at + step), 0
            runs = np.lib.stride_tricks.sliding_window_view(lni, b.size)  # runs[n - i]: ln (b + i)
            out[0][rows] = b
            for j, (size, mu1, strips, ln_dims, contents) in enumerate(levels):
                hooks = np.zeros((size, b.size))                          # (mu, m)
                for r, offsets in strips:
                    hooks[:r] += runs[self.n - b[0, 0] + offsets]
                ln_d = lnf[b] - lnf[b - j - mu1] - lnf[j] + ln_dims - hooks.T
                c_lam = (b - j) * (b - j - 1) + contents - 2 * j
                span, col = slice(col, col + 2 * size), col + 2 * size
                d2, top = (o[rows, span].reshape(b.size, size, 2) for o in out[1:])
                np.multiply(ln_d, 2, out=d2[..., 0])                     # (m, mu, own | conjugate)
                d2[..., 1] = d2[..., 0]
                np.add(b, c_lam, out=top[..., 0])
                np.subtract(b, c_lam, out=top[..., 1])
                with np.errstate(divide="ignore"):
                    np.log(np.abs(top, out=top), out=top)


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
