"""Integer partitions, symmetric-group characters, and the transposition
eigenvalue functional r(lambda).

Everything here is exact: Fractions for rationals, Python ints elsewhere.
No floating point in this module.

The shared partition table (partition_table, content_rows, and through it
dim_partition) is grown one level m at a time in numpy.  Per partition a
level keeps its content sum, its row count l, the length of its last row,
the length of the row above that one (row 0, above the top row and the only
row of the empty partition, is endless), and its number of corners (cells
that end a row longer than the next).

Each partition of m is made once, from the partition of m - 1 without the
last cell of its last row, so a level needs no deduplication: parent by
parent, the last row lengthened (allowed iff it is shorter than the row
above) comes before a new row of one cell, which lists every level in
reverse-lex order.  A parent q's children are adjacent: the lengthened one
at start[q], the new row at start[q] + grow[q].  A cell added at row i and
column j has content j - i, so the content sum grows by 2 (j - i).

The branching rule dim(lam) = sum of dim(lam - corner) reads an index map:
R[k, lam] is the index at level m - 1 of lam without its k-th corner,
counted from the top.  The last corner ends the last row and gives the
parent p.  Every other corner c of lam is the same corner of p, and
lam - c is made from p - c by the same step as lam from p, so
R[k, lam] = child(R[k, p], step): a gather, with nothing searched.
Dimensions are base-2^30 limbs in int64: a dozen limbs sum far below 2^63,
and a carry pass brings every limb back below 2^30.  They become Python ints
only on the way out; content_rows squares and sums them per content in
limbs first, so it builds one int per (m, content) row.  The table refuses
m > WORD_M_MAX = 61, where a cold build costs seconds and a level holds
p(61) = 1 121 505 partitions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

Partition = Tuple[int, ...]
WORD_M_MAX = 61        # the partition table's cap: p(61) = 1 121 505 partitions a level
_LIMB = 30             # table dimensions are exact base-2^30 limbs
_LIMB_MASK = (1 << _LIMB) - 1


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
    """The partitions of n in reverse-lex order, for n up to the table's cap."""
    refuse_past_cap(n)
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
# the shared partition table: one numpy level per m, grown from the level
# m - 1 by adding one cell at every addable corner (see the module docstring).


def refuse_past_cap(m: int) -> None:
    """Refuse m past the partition table's cap, WORD_M_MAX."""
    if m > WORD_M_MAX:
        raise ValueError(f"n = {m} exceeds cap {WORD_M_MAX} of the partition table "
                         "(p(61) = 1121505 partitions a level)")


def _carry(sums: np.ndarray) -> np.ndarray:
    """Limbs back below 2^30, in place; the top limb takes the rest."""
    for i in range(len(sums) - 1):
        sums[i + 1] += sums[i] >> _LIMB
        sums[i] &= _LIMB_MASK
    return sums


def _indexed_levels(top: int) -> Iterator[tuple]:
    """(contents, limbs, R) for m = 0..top in turn: the content sums of the
    partitions of m in reverse-lex order, their dimensions as base-2^30
    limbs (one row per limb, least significant first), and the index map
    R[k, lam] of the module docstring (rows past lam's corners hold p(m - 1),
    the index of a zero column)."""
    if top < 0:
        raise ValueError("m must be nonnegative")
    refuse_past_cap(top)
    endless = 1 << 30
    last, above = np.full((2, 1), endless, dtype=np.int32)    # the empty partition
    ell, corners = np.zeros((2, 1), dtype=np.int32)
    contents = np.zeros(1, dtype=np.int64)
    limbs = np.array([[1, 0]], dtype=np.int64)      # a zero column past the level
    index = np.zeros((0, 1), dtype=np.int32)
    yield contents, limbs[:, :-1], index
    start = grow = None
    for _ in range(top):
        size = len(last)
        prev_start, prev_grow = start, grow
        grow = (last < above).astype(np.int32)
        start = np.cumsum(grow + 1, dtype=np.int32) - grow - 1
        parent = np.repeat(np.arange(size, dtype=np.int32), grow + 1)
        # 1 for a new row, 0 to lengthen: the new row comes after a lengthened one
        step = (np.arange(len(parent)) - start[parent] == grow[parent]).astype(np.int32)
        row_len, rows = last[parent], ell[parent]
        contents = contents[parent] + 2 * np.where(step, -rows, row_len - rows + 1)
        filled = (above[parent] == row_len + 1).astype(np.int32)   # the corner above goes
        corners = corners[parent] + np.where(step, row_len > 1, -filled)
        above = np.where(step, row_len, above[parent])
        ell = rows + step
        last = np.where(step, 1, row_len + 1)
        # R, one row k at a time: the parent at the last corner, the others
        # from the parent's own row k; then dim(lam) = sum over k of dims[R]
        index_rows = np.full((int(corners.max()), len(parent)), size, dtype=np.int32)
        index_rows[corners - 1, np.arange(len(parent))] = parent
        for k in range(len(index_rows) - 1):
            sel = np.flatnonzero(corners > k + 1)
            q = index[k, parent[sel]]
            index_rows[k, sel] = prev_start[q] + step[sel] * prev_grow[q]
        sums = np.zeros((len(limbs) + 1, len(parent) + 1), dtype=np.int64)
        for k_row in index_rows:
            for i, limb in enumerate(limbs):
                sums[i, :-1] += limb[k_row]
        _carry(sums)
        limbs = sums if sums[-1].any() else sums[:-1]
        index = index_rows
        yield contents, limbs[:, :-1], index


def _levels(top: int) -> Iterator[tuple]:
    """(contents, limbs) for m = 0..top, as _indexed_levels gives them."""
    return ((contents, limbs) for contents, limbs, _ in _indexed_levels(top))


def _level_dims(limbs: np.ndarray) -> list[int]:
    """Exact dimensions, one Python int per partition, from their limbs
    (paired into 60-bit words first, so Python sees half as many)."""
    if len(limbs) % 2:
        limbs = np.vstack([limbs, np.zeros_like(limbs[:1])])
    pairs = limbs[0::2] | (limbs[1::2] << _LIMB)
    dims = pairs[-1].tolist()
    for pair in pairs[-2::-1]:
        dims = [(d << 2 * _LIMB) | x for d, x in zip(dims, pair.tolist())]
    return dims


@lru_cache(maxsize=None)
def partition_table(m: int) -> dict:
    """{lam: (dim, content_sum)} for every partition of m (read only), in
    reverse-lex order.  Only the requested levels are kept."""
    for contents, limbs in _levels(m):
        pass
    return dict(zip(partitions_of(m), zip(_level_dims(limbs), contents.tolist())))


def dim_partition(lam: Partition) -> int:
    """dim of the S_n irrep for lam, from the shared partition table: lam
    must be a key, with an int sum ((2.0, 1) hashes like the key (2, 1))."""
    try:
        m = sum(lam) if isinstance(lam, tuple) else None
    except TypeError:
        m = None
    if type(m) is not int or m < 1 or lam not in partition_table(m):
        raise ValueError("need a valid partition of n >= 1")
    return partition_table(m)[lam][0]


def _content_row(contents: np.ndarray, limbs: np.ndarray) -> tuple:
    """((c, sum of dim^2), ...) over the distinct content sums c of one level,
    in order of first appearance: dim^2 in limbs (each 60-bit product split
    into 30-bit halves), summed per c after a stable sort by c."""
    order = np.argsort(contents, kind="stable")
    ordered = contents[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1))
    limbs = limbs[:, order]
    # a sum is at most m! < p(m) * max dim^2: one limb past 2 len(limbs) holds the rest
    squares = np.zeros((2 * len(limbs) + 1, len(starts)), dtype=np.int64)
    for i in range(len(limbs)):
        for j in range(i, len(limbs)):
            product = limbs[i] * limbs[j] << int(i != j)      # below 2^61
            squares[i + j] += np.add.reduceat(product & _LIMB_MASK, starts)
            squares[i + j + 1] += np.add.reduceat(product >> _LIMB, starts)
    first = np.argsort(order[starts])
    return tuple(zip(ordered[starts][first].tolist(), _level_dims(_carry(squares)[:, first])))


_CONTENT_ROWS = [()]    # the largest content_rows build so far


def content_rows(top: int) -> tuple:
    """Per m = 0..top, one pair (c, sum of dim^2) per distinct content sum c
    of the partitions of m, in order of first appearance in reverse-lex
    order.  Only the largest build is kept, no level; a smaller top slices it."""
    if top < 0 or top >= len(_CONTENT_ROWS[0]):
        _CONTENT_ROWS[0] = tuple(_content_row(contents, limbs) for contents, limbs in _levels(top))
    return _CONTENT_ROWS[0][:top + 1]


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
