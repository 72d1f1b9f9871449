"""Integer partitions, symmetric-group characters, and the transposition
eigenvalue functional r(lambda).

Everything here is exact: Fractions for rationals, Python ints elsewhere.
No floating point in this module.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Tuple

Partition = Tuple[int, ...]
ENUM_N_MAX = 120       # partitions of n are enumerated only up to here


def is_partition(lam) -> bool:
    """True if lam is a weakly decreasing tuple of positive ints (or empty)."""
    if not isinstance(lam, tuple):
        return False
    if any((not isinstance(p, int)) or p < 1 for p in lam):
        return False
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield partitions of n in reverse-lexicographic order: [n] first, [1^n] last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for head in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - head, head):
            yield (head,) + rest


def enumerate_partitions(n: int) -> list[Partition]:
    if n > ENUM_N_MAX:
        raise ValueError(f"partition enumeration capped at n = {ENUM_N_MAX}")
    return list(partitions_of(n))


_PARTITION_COUNTS = [1]    # p(0), p(1), ...: one table, rebuilt only to reach a larger n


def _partition_count_table(n: int) -> list[int]:
    # p(k) for k = 0..n via the standard coin-style DP
    table = [0] * (n + 1)
    table[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def partition_counts(n: int) -> list[int]:
    """[p(0), ..., p(n)], exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(_PARTITION_COUNTS) <= n:
        _PARTITION_COUNTS[:] = _partition_count_table(n)
    return _PARTITION_COUNTS[:n + 1]


def partition_count(n: int) -> int:
    """p(n), exact."""
    return partition_counts(n)[n]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    cols = []
    for c in range(lam[0]):
        cols.append(sum(1 for p in lam if p > c))
    return tuple(cols)


def content_sum(lam: Partition) -> int:
    """sum_j lam_j^2 - (2j-1) lam_j  (rows j counted from 1).

    Equals n(n-1) * r(lam); also equals twice the sum of cell contents.
    """
    return sum(p * p - (2 * j - 1) * p for j, p in enumerate(lam, start=1))


def char_ratio_transposition(lam: Partition) -> Fraction:
    """r(lambda) = chi_lam(transposition) / dim(lambda), exact.

    Defined for |lam| >= 2.  r([n]) = 1, r([1^n]) = -1, and
    r(conjugate) = -r.
    """
    n = sum(lam)
    if n < 2:
        raise ValueError("r(lambda) needs |lambda| >= 2")
    return Fraction(content_sum(lam), n * (n - 1))


def hook_lengths(lam: Partition) -> list[list[int]]:
    conj = conjugate(lam)
    return [
        [(p - c) + (conj[c] - r) for c in range(p)]
        for r, p in enumerate(lam, start=1)
    ]


def dim_hook(lam: Partition) -> int:
    """Hook-length formula; independent cross-check for dim_partition."""
    n = sum(lam)
    num = math.factorial(n)
    den = 1
    for row in hook_lengths(lam):
        for h in row:
            den *= h
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# the shared partition table: dimensions and content sums, one m at a time,
# by the branching rule dim(lam) = sum of dim(lam - corner).


def _grow(level: dict) -> dict:
    """{lam: (dim, content_sum)} over the partitions of m from the same
    table for m - 1, adding one box to each partition every way."""
    out: dict = {}
    for mu, (d, c) in level.items():
        for row in range(len(mu) + 1):
            col = mu[row] if row < len(mu) else 0
            if row == 0 or mu[row - 1] > col:
                lam = mu[:row] + (col + 1,) + mu[row + 1:]
                out[lam] = (out.get(lam, (0,))[0] + d, c + 2 * (col - row))
    return out


def _levels(top: int) -> Iterator[dict]:
    """{lam: (dim, content_sum)} over the partitions of m, for m = 0..top in
    turn; each level is grown from the one before it."""
    if top > ENUM_N_MAX:
        raise ValueError(f"partition enumeration capped at n = {ENUM_N_MAX}")
    level = {(): (1, 0)}
    for m in range(top + 1):
        level = _grow(level) if m else level
        yield level


@lru_cache(maxsize=None)
def partition_table(m: int) -> dict:
    """{lam: (dim, content_sum)} for every partition of m (read only).
    Only the requested levels are kept."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    for level in _levels(m):
        pass
    return level


def dim_partition(lam: Partition) -> int:
    """dim of the S_n irrep for lam, from the shared partition table."""
    if not is_partition(lam) or sum(lam) < 1:
        raise ValueError("need a valid partition of n >= 1")
    return partition_table(sum(lam))[lam][0]


@lru_cache(maxsize=None)
def content_rows(top: int) -> tuple:
    """Per m = 0..top, one pair (c, sum of dim^2) per distinct content sum c
    of the partitions of m; the per-partition levels are not kept."""
    out = []
    for level in _levels(top):
        rows: dict = {}
        for d, c in level.values():
            rows[c] = rows.get(c, 0) + d * d
        out.append(tuple(rows.items()))
    return tuple(out)


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters via the abacus (beta-number) encoding.


def _betas(lam: Partition, slots: int) -> tuple[int, ...]:
    # beta_i = lam_i + (slots - i), lam zero-padded to `slots` rows
    padded = list(lam) + [0] * (slots - len(lam))
    return tuple(padded[i] + (slots - 1 - i) for i in range(slots))


def _partition_from_betas(betas: tuple[int, ...]) -> Partition:
    bs = sorted(betas, reverse=True)
    k = len(bs)
    lam = [bs[i] - (k - 1 - i) for i in range(k)]
    return tuple(p for p in lam if p > 0)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu): character of the S_n irrep lam on the class of cycle
    type mu, by rim-hook (Murnaghan-Nakayama) recursion."""
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same n")
    if not lam:
        return 1
    length = mu[0]
    rest = mu[1:]
    slots = len(lam)
    betas = _betas(lam, slots)
    beta_set = set(betas)
    total = 0
    for b in betas:
        lo = b - length
        if lo < 0 or lo in beta_set:
            continue
        # removing the rim hook == sliding one bead down `length` positions
        crossings = sum(1 for x in beta_set if lo < x < b)
        sign = -1 if crossings % 2 else 1
        new_betas = tuple(lo if x == b else x for x in betas)
        total += sign * mn_character(_partition_from_betas(new_betas), rest)
    return total


def sn_character_table(m: int) -> tuple[list[Partition], list[list[int]]]:
    """Rows: irreps of S_m in reverse-lex partition order ([m] first).
    Columns: classes by cycle type, in the same partition order."""
    parts = enumerate_partitions(m)
    table = [[mn_character(lam, mu) for mu in parts] for lam in parts]
    return parts, table
