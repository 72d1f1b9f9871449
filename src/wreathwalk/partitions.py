"""Integer partitions, symmetric-group characters, and the transposition
eigenvalue functional r(lambda).

Everything here is exact: Fractions for rationals, Python ints elsewhere.
No floating point in this module.

The shared partition table (partition_table, content_rows, and through it
dim_partition) is grown one level m at a time in numpy.  A partition is its
boundary word: the rim of its Young diagram (English notation) walked from
bottom left to top right, N for a step up and E for a step right, between
one padding N in front and one padding E at the end.  With N = 1 and the
first letter most significant the word is one uint64 whose leading N is its
own length sentinel.  It has lambda_1 + l + 2 <= m + 3 letters (l rows), so
every partition of m <= WORD_M_MAX = 61 fits; the table refuses larger m.

The addable corners are the NE pairs, the set bits of w & ~(w << 1).
Adding a cell flips its NE to EN, w ^ (3 << (b - 1)) for the N at bit b,
and the word is re-padded when the flip moved a padding letter.  Counting
letters from the front (the padding N is letter 0), the cell added at
letter p has content p - l, so the content sum grows by 2 (p - l).

Each partition of m is made once, from the partition of m - 1 without the
last cell of its last row, so a level needs no deduplication: parent by
parent, the last row lengthened comes before a new row of one cell, which
lists every level in reverse-lex order.  The branching rule
dim(lam) = sum of dim(lam - corner) runs over the parents' corners one bit
position at a time, finding each child by binary search in the sorted
words.  Dimensions are base-2^30 limbs in int64: a dozen limbs sum far
below 2^63, and a carry pass brings every limb back below 2^30.  They
become Python ints only on the way out.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

Partition = Tuple[int, ...]
WORD_M_MAX = 61        # the partition table: a partition of m is one uint64 up to here
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
    _refuse_past_cap(n)
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


def _refuse_past_cap(m: int) -> None:
    if m > WORD_M_MAX:
        raise ValueError(f"n = {m} exceeds cap {WORD_M_MAX} of the partition table "
                         "(64-bit boundary words)")


def _add_cell(words: np.ndarray, b) -> np.ndarray:
    """The boundary words with one cell added at the corner whose N is bit
    b: NE becomes EN, then a padding letter the flip moved is put back."""
    one = np.uint64(1)
    child = words ^ (np.uint64(3) << (b - one))
    child |= ((words >> (b + one)) == 0).astype(np.uint64) << (b + one)   # padding N
    return child << (b == one).astype(np.uint64)                         # padding E


def _word_levels(top: int) -> Iterator[tuple]:
    """(contents, limbs) for m = 0..top in turn: the content sums of the
    partitions of m in reverse-lex order, and their dimensions as base-2^30
    limbs (one row per limb, least significant first)."""
    _refuse_past_cap(top)
    one = np.uint64(1)
    words = np.array([0b10], dtype=np.uint64)          # the empty partition: N E
    lam1, ell, last, contents = (np.zeros(1, dtype=np.int64) for _ in range(4))
    limbs = np.ones((1, 1), dtype=np.int64)
    yield contents, limbs
    for _ in range(top):
        length = lam1 + ell + 2
        corners = words & ~(words << one)
        # each partition of m once, from the one partition of m - 1 that
        # lacks the last cell of its last row: parent by parent, first the
        # last row lengthened (where that is a corner), then a new row of
        # one cell; this is reverse-lex order
        grow_b = length - 2 - last
        grow = ((corners >> grow_b.astype(np.uint64)) & one).astype(bool)
        parent, new_row = np.nonzero(np.column_stack([grow, np.ones_like(grow)]))
        b = np.where(new_row, length[parent] - 1, grow_b[parent])
        children = _add_cell(words[parent], b.astype(np.uint64))
        # the added cell's content is its letter position minus l
        contents = contents[parent] + 2 * (lam1[parent] + 1 - b)
        lam1 = lam1[parent] + (b == 1)
        ell = ell[parent] + new_row
        last = np.where(new_row, 1, last[parent] + 1)
        # branching rule, one corner position at a time: the parents with a
        # corner at bit b reach distinct children, found by binary search
        order = np.argsort(children)
        sorted_children = children[order]
        sums = np.zeros((len(limbs) + 1, children.size), dtype=np.int64)
        for bit in range(1, int(length.max())):
            sel = np.flatnonzero((corners >> np.uint64(bit)) & one)
            found = np.searchsorted(sorted_children, _add_cell(words[sel], np.uint64(bit)))
            sums[:-1, order[found]] += limbs[:, sel]
        for i in range(len(sums) - 1):                  # carries: limbs back below 2^30
            sums[i + 1] += sums[i] >> _LIMB
            sums[i] &= _LIMB_MASK
        limbs = sums if sums[-1].any() else sums[:-1]
        words = children
        yield contents, limbs


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
    if m < 0:
        raise ValueError("m must be nonnegative")
    for contents, limbs in _word_levels(m):
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


@lru_cache(maxsize=None)
def content_rows(top: int) -> tuple:
    """Per m = 0..top, one pair (c, sum of dim^2) per distinct content sum c
    of the partitions of m, in order of first appearance in reverse-lex
    order; the per-partition levels are not kept."""
    out = []
    for contents, limbs in _word_levels(top):
        rows: dict = {}
        for d, c in zip(_level_dims(limbs), contents.tolist()):
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
