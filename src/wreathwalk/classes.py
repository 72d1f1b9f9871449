"""Conjugacy structure of G wr S_n via type matrices.

A type matrix assigns to (coords; pi) the s x n array a[i][j] counting the
cycles of pi of length j+1 whose cycle product lies in base class i.  Two
elements are conjugate iff they share a type matrix.  Stored sparsely as a
frozen set of ((class_idx, length_idx), count) with 0-based indices.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .groups import GroupTable
from .partitions import partition_counts
from .wreath import WreathElement

TypeMatrix = frozenset


def cycle_products(g: GroupTable, w: WreathElement) -> list[tuple[int, int]]:
    """For each cycle of the permutation: (cycle length, base-class index of
    the cycle product).

    The product is taken along the backward orbit i, pi^{-1}(i), ... from
    the minimal index of the cycle; that traversal makes the product's class
    invariant under conjugation for the (y; sigma)*(x; pi) convention used
    here (the k-th power of a k-cycle element carries exactly this product
    in each coordinate).
    """
    coords, perm = w
    n = len(perm)
    pinv = [0] * n
    for i, p in enumerate(perm):
        pinv[p] = i
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        prod = 0  # identity of G
        j = start
        length = 0
        while not seen[j]:
            seen[j] = True
            prod = int(g.mult[prod, coords[j]])
            j = pinv[j]
            length += 1
        out.append((length, int(g.class_of[prod])))
    return out


def type_matrix(g: GroupTable, w: WreathElement) -> TypeMatrix:
    counts: dict[tuple[int, int], int] = {}
    for length, cls in cycle_products(g, w):
        key = (cls, length - 1)
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts.items())


def class_count(g: GroupTable, n: int) -> int:
    """Number of conjugacy classes of G wr S_n: sum over compositions
    (n_1..n_s) of n of prod_i p(n_i).  Exact."""
    s = g.num_classes
    # s-fold convolution of the partition-count vector
    vec = [1] + [0] * n
    pvec = partition_counts(n)
    for _ in range(s):
        nxt = [0] * (n + 1)
        for total in range(n + 1):
            acc = 0
            for m in range(total + 1):
                acc += vec[total - m] * pvec[m]
            nxt[total] = acc
        vec = nxt
    return vec[n]


def class_size(g: GroupTable, n: int, tm: TypeMatrix) -> int:
    """|G|^n n! / prod_{i,j} ((j |G| / |C_i|)^{a_ij} a_ij!), exact."""
    total = sum((j + 1) * a for (_, j), a in tm)
    if total != n:
        raise ValueError("type matrix does not describe an n-element permutation")
    denom = Fraction(1)
    for (i, j), a in tm:
        per_cycle = Fraction((j + 1) * g.order, g._sizes[i])     # the cached class sizes
        denom *= per_cycle ** a * math.factorial(a)
    out = Fraction(g.order ** n * math.factorial(n)) / denom
    assert out.denominator == 1
    return int(out)


def u_type(g: GroupTable, n: int, k: int) -> TypeMatrix:
    """Type of (u; e) with one coordinate in base class k (1-based, k >= 2)."""
    if not 2 <= k <= g.num_classes:
        raise ValueError("u-classes need 2 <= k <= s")
    if n == 1:
        return frozenset({((k - 1, 0), 1)})
    return frozenset({((0, 0), n - 1), ((k - 1, 0), 1)})


def v_type(g: GroupTable, n: int, k: int) -> TypeMatrix:
    """Type of (v; tau), tau a transposition, cycle product in base class k
    (1-based)."""
    if not 1 <= k <= g.num_classes:
        raise ValueError("v-classes need 1 <= k <= s")
    if n < 2:
        raise ValueError("v-classes need n >= 2")
    if n == 2:
        return frozenset({((k - 1, 1), 1)})
    return frozenset({((0, 0), n - 2), ((k - 1, 1), 1)})


def support_classes(g: GroupTable, n: int) -> list[tuple[tuple, TypeMatrix, int]]:
    """The classes supporting the wreath walks, as (tag, type, size):

      ("id",)    size 1
      ("u", k)   size n |C_k|,                 2 <= k <= s
      ("v", k)   size n(n-1)/2 |G| |C_k|,      1 <= k <= s
    """
    sizes = g.class_sizes()
    out = [(("id",), frozenset({((0, 0), n)}), 1)]
    for k in range(2, g.num_classes + 1):
        tm = u_type(g, n, k)
        size = n * sizes[k - 1]
        assert class_size(g, n, tm) == size
        out.append((("u", k), tm, size))
    if n >= 2:
        for k in range(1, g.num_classes + 1):
            tm = v_type(g, n, k)
            size = n * (n - 1) // 2 * g.order * sizes[k - 1]
            assert class_size(g, n, tm) == size
            out.append((("v", k), tm, size))
    return out
