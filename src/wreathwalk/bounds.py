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
The window depends on n alone and is built once per n, the logged table
rows below it once per cutoff; |G| and the walk enter only as the
per-slot offsets ln w(n_1) and ln scale(n_1).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
# peak bytes per window atom or tail majorant of a windowed bracket, from
# the atoms' build to the evaluator's temporaries: tracemalloc peaks of
# l2n_sq_collapsed_bounds run about 32 a window atom and 52 a majorant
ATOM_BYTES = 64


# ---------------------------------------------------------------------------
# atoms and the one evaluator

class Atoms(NamedTuple):
    """Terms w y^{2k} of an l2 sum as ln w and ln |y| per atom; atoms with
    `tail` set are majorants for the upper edge only.  When the atoms are
    exact, `weights` and `nums` repeat them as ints, y = num / den."""
    ln_w: np.ndarray
    ln_y: np.ndarray
    tail: np.ndarray
    weights: tuple | None = None
    nums: tuple | None = None
    den: int = 1


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
    """Atoms from int weights at values num / den, one int den for all."""
    weights, nums = tuple(weights), tuple(nums)
    return Atoms(np.array([_ln(w) for w in weights], dtype=float),
                 np.array([_ln(y) for y in nums], dtype=float) - math.log(den),
                 np.zeros(len(weights), dtype=bool), weights, nums, den)


def power_sums(atoms: Atoms, ks, exact: bool = False) -> list:
    """sum_i w_i y_i^{2k} for every k in ks.

    exact: Fractions over den^{2k}, from the exact atoms' ints; atoms
    with equal num^2 share one weight, and the powers step up from one k
    to the next.  Otherwise certified (lower, upper) floats by
    log-sum-exp: the lower edge sums the atoms, the upper edge adds the
    tail majorants."""
    if exact:
        if atoms.weights is None:
            raise ValueError("these atoms have no exact form")
        by_y2 = {}
        for w, y in zip(atoms.weights, atoms.nums):
            by_y2[y * y] = by_y2.get(y * y, 0) + w
        y2s, ws = list(by_y2), list(by_y2.values())
        pows, at, got = [1] * len(y2s), 0, {}
        for k in sorted(set(ks)):
            pows = [p * y2 ** (k - at) for p, y2 in zip(pows, y2s)]
            got[k], at = Fraction(sum(w * p for w, p in zip(ws, pows)), atoms.den ** (2 * k)), k
        return [got[k] for k in ks]
    main = ~atoms.tail
    out = []
    for k in ks:
        t = atoms.ln_y * (2 * k) if k else np.zeros_like(atoms.ln_w)    # 0 * ln 0 is nan
        t += atoms.ln_w
        lo = _exp_sum(t[main])
        out.append((lo, lo + _exp_sum(t[atoms.tail])))
    return out


def _exp_sum(t: np.ndarray) -> float:
    """sum of e^t (overwriting t) without overflow; inf past the float range."""
    top = t.max(initial=-math.inf)
    if top == -math.inf:
        return 0.0
    t -= top
    with np.errstate(over="ignore"):
        return float(np.exp(top + math.log(np.exp(t, out=t).sum())))


def l2_column(atoms: Atoms, ks, at_zero: float | None = None) -> list:
    """One l2 value per k: an exact Fraction where the atoms are exact and
    k <= EXACT_K_MAX, else the float upper edge (at k = 0 the closed form
    at_zero, when given)."""
    exact = [k for k in ks if atoms.weights is not None and k <= EXACT_K_MAX]
    got = dict(zip(exact, power_sums(atoms, exact, exact=True) if exact else []))
    rest = [k for k in ks if k not in got]
    got.update((k, at_zero if k == 0 and at_zero is not None else hi)
               for k, (_, hi) in zip(rest, power_sums(atoms, rest)))
    return [got[k] for k in ks]


# ---------------------------------------------------------------------------
# collapsed l2 sum for the independent walk (and, with g_order=1, the
# transposition walk on S_n alone)

@lru_cache(maxsize=8)
def _slot_atoms(g_order: int, n: int, window: tuple | None, paired: tuple | None = None) -> Atoms:
    """Atoms of the collapsed sum: weight C(n,n_1)(n!/n_1!)(|G|-1)^{n-n_1} d^2
    at y = (n_1 + content)/n^2 per lambda |- n_1, the trivial line (n_1 = n,
    [n]) excluded.  paired = (s, delta_n) gives the relaxed bound instead:
    y = (n_1 + content)/(n n_1), weights times s/2, and delta_n/4 at (n-1)/n.

    window None: every lambda, exactly, as ints over n^2 (a paired request
    raises ValueError).  window (j_window, full_enum_max): logs only, and
    each n_1 above max(full_enum_max, 2 j_window + 2) gets deficit-window
    atoms and tail majorants instead of all its partitions.
    Window atoms are _window_shape's (once per n) and, for |G| > 1, table
    rows at n_1 <= full are _table_logs' (once per full), each offset by
    ln w(n_1) and -ln scale(n_1); |G| = 1 keeps only n_1 = n."""
    if window is None and paired:
        raise ValueError("the relaxed bound has no exact atoms: its values share no denominator")
    full = n if window is None else min(n, max(window[1], 2 * window[0] + 2))
    if window is not None:
        need, atoms, tails = _window_bytes(g_order, n, window[0], full)
        refuse_past_memory(need, f"the windowed brackets at n = {n} need about {need} bytes "
                                 f"for {atoms} window atoms and {tails} tail majorants")
    slots = range(n + 1) if g_order > 1 else [n]            # |G| = 1: n_1 = n only
    if window is None or g_order == 1:
        table = content_rows(max((m for m in slots if m <= full), default=0))
        rows = [(m, c, d2) for m in slots if m <= full for c, d2 in table[m]
                if not (m == n and c == m * (m - 1))]
    if window is None:
        w = [math.comb(n, m) * math.perm(n, n - m) * (g_order - 1) ** (n - m) for m in range(n + 1)]
        return exact_atoms([w[m] * d2 for m, _, d2 in rows], [m + c for m, c, _ in rows], n * n)

    half_s = Fraction(paired[0], 2) if paired else 1
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])      # ln i!
    ms = np.arange(n + 1)
    ln_w = (_ln(half_s) + 2 * lnf[n] - 2 * lnf - lnf[::-1]
            + (n - ms) * math.log(max(g_order - 1, 1)))
    ln_scale = np.log(n * np.maximum(ms, 1)) if paired else np.full(n + 1, 2 * math.log(n))
    # blocks (m, ln d^2, ln |top|) of atoms at slot sizes m with y = |top| / scale,
    # written in place after the paired extra atom: table rows, window, tail majorants
    if g_order == 1:
        blocks = [_row_logs(rows)]
    else:
        table = _table_logs(full)
        if n == full:                  # the trivial line [n] is level n's first row
            table = [np.delete(col, np.searchsorted(table[0], n)) for col in table]
        blocks = [table]
    big = np.array([m for m in slots if m > full], dtype=np.int64)
    if big.size:
        shape = _window_shape(n, window[0], full)
        # each deficit j > j_window: at most 2 C(m,j)^2 j! of d^2, |y| <= (m + cmax)/scale
        mm = np.repeat(big, big - 1 - window[0])
        jj = np.concatenate([np.arange(window[0] + 1, m) for m in big])
        top = mm + _cmax_at_deficit(mm, jj)
        mm, jj, top = mm[top > 0], jj[top > 0], top[top > 0]
        ln_count = math.log(2.0) + 2 * (lnf[mm] - lnf[jj] - lnf[mm - jj]) + lnf[jj]
        blocks += [shape if g_order > 1 else [col[shape[0] == n] for col in shape],
                   (mm, ln_count, np.log(top))]
        del jj, top                            # freed before the atoms are allocated
    at = 1 if paired else 0                        # the paired extra atom
    size = at + sum(len(m) for m, _, _ in blocks)
    out = Atoms(np.empty(size), np.empty(size), np.zeros(size, dtype=bool))
    if paired:
        out.ln_w[0], out.ln_y[0] = _ln(Fraction(paired[1], 4)), _ln(Fraction(n - 1, n))
    for i, (m, ln_d2, ln_top) in enumerate(blocks):
        w, y = out.ln_w[at:at + len(m)], out.ln_y[at:at + len(m)]
        np.take(ln_w, m, out=w, mode="clip")
        w += ln_d2
        np.take(ln_scale, m, out=y, mode="clip")
        np.subtract(ln_top, y, out=y)
        out.tail[at:at + len(m)] = i == 2                  # the tail majorants
        at += len(m)
    return out


def _window_bytes(g_order: int, n: int, j_window: int, full: int) -> tuple[int, int, int]:
    """(bytes, window atoms, tail majorants) of _slot_atoms' windowed atoms,
    in closed form before any is built: _window_shape's 2 (n - full)
    sum_{j <= j_window} p(j) - 1 atoms, and m - 1 - j_window majorants for
    each slot size m > full (n alone when |G| = 1), ATOM_BYTES each."""
    big = n - full if g_order > 1 else min(n - full, 1)          # the slot sizes m > full
    atoms = 2 * (n - full) * sum(partition_counts(j_window)) - 1 if n > full else 0
    tails = big * (2 * n - big - 1) // 2 - big * j_window          # sum of m - 1 - j_window
    return ATOM_BYTES * (atoms + tails), atoms, tails


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


@lru_cache(maxsize=2)
def _window_shape(n: int, j_window: int, full: int) -> tuple:
    """The |G|-free window atoms (m, ln d^2, ln |m + content|) of the slot
    sizes m = full+1..n: lambda = (m - j, mu) per mu |- j <= j_window in
    reverse-lex order (a fixed order for the float sums), then its conjugate,
    outside the window as m > 2 j_window + 2; the trivial line [n] left out."""
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    lni = np.log(np.arange(n + 1).clip(1))                          # ln i for i >= 1
    big = np.arange(full + 1, n + 1)
    size = 2 * len(big) * sum(partition_counts(j_window)) - 1
    shape, at = (np.empty(size, dtype=np.min_scalar_type(n)), np.empty(size), np.empty(size)), 0
    for j in range(j_window + 1):
        dims, contents = zip(*partition_table(j).values())
        parts = np.array([mu + (0,) * (j - len(mu)) for mu in partitions_of(j)],
                         dtype=np.int64).reshape(len(dims), j)      # mu, zero-padded
        mu1 = parts.max(1, initial=0)[:, None]
        # first-row hooks by the strip formula, column c of mu has (parts >= c).sum(1) cells
        hooks = np.zeros((len(dims), len(big)))
        for c in range(1, j + 1):
            hooks += np.where(c <= mu1, lni[big - j - c + 1 + (parts >= c).sum(1)[:, None]], 0.0)
        ln_d = (lnf[big] - lnf[big - j - mu1] - lnf[j]
                + np.array([math.log(d) for d in dims])[:, None] - hooks)
        c_lam = (big - j) * (big - j - 1) + np.array(contents)[:, None] - 2 * j
        with np.errstate(divide="ignore"):       # one (mu, own | conjugate, m) block
            block = (np.broadcast_to(big, (len(dims), 2, len(big))),
                     np.repeat(2 * ln_d[:, None], 2, axis=1),
                     np.log(np.abs(np.stack([big + c_lam, big - c_lam], axis=1))))
        for col, part in zip(shape, block):
            part = np.delete(part.ravel(), len(big) - 1) if j == 0 else part.ravel()
            col[at:at + part.size] = part
        at += part.size
    return shape


def _cmax_at_deficit(m, j):
    """Largest content among partitions of m with first row exactly m - j
    (greedy wide packing: q more rows of width m - j, then one of the
    remainder r; a box moved to a wider higher row always gains).  Works
    elementwise on arrays, whose every m - j must then be >= 1."""
    w = m - j
    if np.min(w) < 1:
        return None
    q, r = j // w, j % w
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
    return power_sums(_atoms(g_order, n), [k], exact=True)[0] if exact else _column(g_order, n, [k])[0]


def _atoms(g_order: int, n: int, paired: tuple | None = None) -> Atoms:
    """The collapsed atoms (paired = (s, delta_n): the relaxed bound's)
    under the one exactness rule: exact, every row as ints over n^2, iff
    they are collapsed atoms and n <= FULL_ENUM_MAX, else windowed logs."""
    exact = not paired and n <= FULL_ENUM_MAX
    return _slot_atoms(g_order, n, None if exact else (J_WINDOW, FULL_ENUM_MAX), paired)


def _column(g_order: int, n: int, ks, paired: tuple | None = None) -> list:
    """The collapsed sum (or the relaxed bound) at every k, from one set of atoms."""
    at_zero = g_order ** n * math.factorial(n) - 1
    if paired:
        at_zero = Fraction(paired[0], 2) * at_zero + Fraction(paired[1], 4)
    return l2_column(_atoms(g_order, n, paired), ks, _float_or_inf(at_zero))


def l2n_sq_collapsed_bounds(g_order: int, n: int, k: int) -> tuple[float, float]:
    """Certified (lower, upper) floats for the collapsed sum.  They coincide
    whenever the atoms are exact (n <= FULL_ENUM_MAX)."""
    if k == 0:
        f = _float_or_inf(g_order ** n * math.factorial(n) - 1)
        return f, f
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
    return _column(g.order, n, [k], (g.num_classes, delta_n(g, n)))[0]


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
    if kind not in ("independent", "paired"):
        raise ValueError("dominant term applies to the wreath walks")
    term = n * n * (sum(d * d for d in dims) - 1) * (1.0 - 1.0 / n) ** (4 * k)
    if kind == "paired":
        slots, lcm = dims[1:], math.lcm(*dims)
        nums = [(n - 1) * lcm // d for d in slots]
        atoms = exact_atoms([d ** (2 * n) for d in slots], nums, n * lcm)
        term = max(term, power_sums(atoms, [k])[0][0])
    return 0.5 * math.sqrt(term)


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

def independent_envelope_holds(n: int, exhaustive_up_to: int = 30) -> bool:
    """Every nontrivial independent-walk eigenvalue has modulus at most
    (1 - 1/n)^2.  Exact-arithmetic reduction:

      n_1 <= n-1: |y| <= (n_1 + n_1(n_1-1))/n^2 = n_1^2/n^2 since |r| <= 1.
      n_1 = n: [n] is excluded and the largest remaining r is
               r([n-1,1]) = (n-3)/(n-1) (moving a box to a higher row
               strictly increases the content sum, so [n-1,1] dominates);
               then |y| <= (n-2)/n < (1-1/n)^2.

    For small n the r-extremes are also checked by brute enumeration.
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
    if n <= exhaustive_up_to:
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
    lo0, _ = l2n_sq_collapsed_bounds(g_order, n, k0)
    _, hi1 = l2n_sq_collapsed_bounds(g_order, n, k1)
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
        l2s = _column(g.order, n, ks)
    elif n <= WORD_M_MAX and class_count(g, n) <= cap:      # content_rows needs the table
        mode = "full-spectrum"
        den, mults = slot_convolution(n, g)
        nums = sorted(mults, reverse=True)[1:]              # the nontrivial lines
        l2s = l2_column(exact_atoms([mults[v] for v in nums], nums, den), ks)
    else:
        mode = "relaxed"
        l2s = [4.0 * float(v) for v in _column(g.order, n, ks, (g.num_classes, delta_n(g, n)))]
    dims = g.irrep_dims()
    sym_l2s = _column(1, n, ks) if kind == "independent" and n >= 2 else [0] * len(ks)
    rows = [{
        "k": k,
        "l2n_sq": l2,
        "tv_upper_spectral": tv_upper_spectral(l2),
        "tv_upper_coupling": (tv_upper_coupling(n, k, tv_upper_spectral(sym_l2))
                              if kind == "independent" else None),
        "l2_lower_dominant": l2_lower_dominant(dims, n, k, kind) if kind != "sym" else None,
        "tv_lower_chebyshev": tv_lower_chebyshev_sym(n, k) if kind == "sym" and n >= 4 else None,
    } for k, l2, sym_l2 in zip(ks, l2s, sym_l2s)]
    return DistanceCurve(kind=kind, n=n, mode=mode, rows=rows)
