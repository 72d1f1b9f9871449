"""Wreath product G wr S_n: elements, arithmetic, and explicit tables.

An element is (coords, perm): coords in G^n (base-group indices) and perm a
permutation tuple with perm[i] the image of position i.  Multiplication:

    (y; sigma) * (x; pi) = (y_i * x_{sigma^{-1}(i)}; sigma pi)

so the identity is ((0,...,0), (0,1,...,n-1)) and
(x; pi)^{-1} = (x_{pi(i)}^{-1}; pi^{-1}).

Element encoding, the one used everywhere: the index of (coords; perm) is

    (coords as base-|G| digits, first coordinate most significant) * n!
        + lexicographic rank of perm.

`encode_states` computes it; explicit tables are built in this order and
the simulator encodes its states with the same function, so an encoded
sample is a row index of the table.

The walk step, the one rule for every walk: draw positions p, q and base
elements a, b, then left-multiply by the step element with a at p, b at q
and the swap (p q).  `apply_steps` is its one array statement; the
simulator and the oracle's one-step law both call it.
"""
from __future__ import annotations

import itertools
import math
import os
from typing import NamedTuple

import numpy as np

from .groups import (
    GroupTable,
    _inverses,
    conjugacy_classes,
    cyclic_group,
    perm_rank,
    permutation_table,
)

MAX_WREATH_ORDER = 5000


class WreathElement(NamedTuple):
    coords: tuple
    perm: tuple


def walk_base(kind: str, g: GroupTable | None) -> GroupTable:
    """The base group a walk runs on.  The sym walk is the wreath walk on
    G = 1, so it gets Z:1 whatever g is; the wreath walks need g."""
    if kind == "sym":
        return cyclic_group(1)
    if g is None:
        raise ValueError("wreath walks need a base group")
    return g


def perm_inverse(perm: tuple) -> tuple:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)


def wreath_multiply(g: GroupTable, a: WreathElement, b: WreathElement) -> WreathElement:
    y, sigma = a
    x, pi = b
    sinv = perm_inverse(sigma)
    mult = g.mult
    coords = tuple(int(mult[y[i], x[sinv[i]]]) for i in range(len(y)))
    perm = tuple(sigma[pi[i]] for i in range(len(pi)))
    return WreathElement(coords, perm)


def wreath_order(g_order: int, n: int) -> int:
    return g_order ** n * math.factorial(n)


def enumerate_wreath_elements(g: GroupTable, n: int):
    """All of G wr S_n in lexicographic order, coords major, permutation
    minor; the identity comes first."""
    for coords in itertools.product(range(g.order), repeat=n):
        for perm in itertools.permutations(range(n)):
            yield WreathElement(coords, perm)


def encode_states(coords: np.ndarray, perms: np.ndarray, g_order: int) -> np.ndarray:
    """Element indices of (coords; perms) in the encoding above.  coords
    and perms have shape (..., n) and broadcast against each other."""
    n = coords.shape[-1]
    digits = np.zeros(coords.shape[:-1], dtype=np.int64)
    for i in range(n):
        digits = digits * g_order + coords[..., i]
    return digits * math.factorial(n) + perm_rank(perms)


def apply_steps(coords: np.ndarray, pinv: np.ndarray, rows, p, q, a, b,
                mult: np.ndarray) -> None:
    """Left-multiply state rows[i] of (coords, pinv), pinv the inverse
    permutations, by the step element with a[i] at p[i], b[i] at q[i] and
    the swap (p[i] q[i]), in place: coordinate q becomes b x_p, then p
    becomes a x_q (a x_p when p = q), and entries p and q of pinv swap.
    coords and pinv must be C-contiguous: the step indexes their flat views."""
    x, inv = coords.reshape(-1), pinv.reshape(-1)
    ip, iq = rows * coords.shape[1] + p, rows * coords.shape[1] + q
    xp, xq = x[ip], x[iq]
    x[iq], x[ip] = mult[b, xp], mult[a, xq]
    inv[ip], inv[iq] = inv[iq], inv[ip]


class WreathTable(NamedTuple):
    group: GroupTable        # the wreath product as a plain GroupTable
    base: GroupTable
    n: int


def build_bytes(g_order: int, n: int) -> int:
    """Peak bytes of build_wreath_table.  With C = g_order^n coordinate
    tuples, the build first holds two (order, C, n) int64 arrays (the
    gathered coordinates and their products), or the (order, C) digit
    arrays of encode_states next to the first; then the order^2 int64
    table, the (order, C) z_index and the bool mask that finds the
    inverses; the S_n table, a few (order, n) arrays and 256 KiB of Python
    objects throughout.  That is about 2.1 times the table on S_n, 1.1 to
    1.3 times on a nontrivial base at n >= 3, 2.5 times at n = 2 and 4
    times at n = 1."""
    order = wreath_order(g_order, n)
    pairs = 8 * order * g_order ** n
    return (8 * math.factorial(n) ** 2 + 24 * order * n + 2 ** 18
            + max(pairs * max(2 * n, n + 3), 8 * order * order + pairs + order * order))


def build_wreath_table(g: GroupTable, n: int, max_order: int = MAX_WREATH_ORDER) -> WreathTable:
    """Materialize G wr S_n as an explicit multiplication table.

    Refuses orders above max_order (default 5000), and, before allocating
    anything, tables whose build (build_bytes) would exceed physical
    memory.
    """
    order = wreath_order(g.order, n)
    if order > max_order:
        raise ValueError(f"wreath order {order} exceeds cap {max_order}")
    table, need = 8 * order * order, build_bytes(g.order, n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"wreath order {order} needs a {table / 2 ** 30:.1f} GiB table "
                         f"(order^2 int64 entries) and {need / 2 ** 30:.1f} GiB to build it, "
                         f"more than the {have / 2 ** 30:.1f} GiB of physical memory")
    perms, sn_mult = permutation_table(n)
    coords = np.array(list(itertools.product(range(g.order), repeat=n)), dtype=np.int64)
    y = np.repeat(coords, len(perms), axis=0)                 # coords of each element
    sigma = np.tile(np.arange(len(perms)), len(coords))       # its permutation's rank
    sigma_inv = np.argsort(perms, axis=1)[sigma]
    # (y; sigma)(x; pi) = (z; sigma pi) with z_i = y_i x_{sigma^-1(i)}.  z does
    # not depend on pi, so it is encoded once per (element, coords of x), as
    # index(z; identity); adding rank(sigma pi) gives index(z; sigma pi).
    z_index = encode_states(g.mult[y[:, None, :], coords[:, sigma_inv].swapaxes(0, 1)],
                            perms[:1], g.order)
    # rows run coords-major, so row (y, sigma) adds row sigma of sn_mult
    mult = (z_index.reshape(len(coords), len(perms), len(coords), 1)
            + sn_mult[None, :, None, :]).reshape(order, order)
    inv = _inverses(mult)
    classes, class_of = conjugacy_classes(mult, inv)
    table = GroupTable(
        name=f"{g.name} wr S_{n}",
        mult=mult,
        inv=inv,
        classes=classes,
        class_of=class_of,
    )
    return WreathTable(group=table, base=g, n=n)
