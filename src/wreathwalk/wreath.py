"""Wreath product G wr S_n: elements, arithmetic, and explicit tables.

An element is (coords, perm): coords in G^n (base-group indices) and perm a
permutation tuple with perm[i] the image of position i.  Multiplication:

    (y; sigma) * (x; pi) = (y_i * x_{sigma^{-1}(i)}; sigma pi)

so the identity is ((0,...,0), (0,1,...,n-1)) and
(x; pi)^{-1} = (x_{pi(i)}^{-1}; pi^{-1}).

Element encoding, the one used everywhere: the index of (coords; perm) is

    (coords as base-|G| digits, first coordinate most significant) * n!
        + lexicographic rank of perm.

`encode_states` computes it and `decode_states` inverts it; explicit
tables are built in this order, so an element index is a row of the
table.  Indices are int64: orders above 2^63 - 1 are refused.

`table_rows(g, n, elements)`, the one builder of the product's rows, is
mult[elements] by the rule above, with `build_bytes` its memory estimate:
`build_wreath_table` takes every row, `step_rows` the rows of the walk's
distinct step elements.

The walk step, the one rule for every walk: draw positions p, q and base
elements a, b, then left-multiply by the step element with a at p, b at q
and the swap (p q).  A draw is one index d in 0..draw_count - 1, and
`decode_draws` is the one decoder of d into (p, q, a, b); `step_draws`
decodes every d, and `apply_steps` is the step's one array statement.
`step_elements` applies draws to the identity with it (the oracle's
one-step law counts them); `step_rows` is the successor map
R[row_of[d], x] = index of s_d x (distinct step elements x order
entries, at most the explicit table), which the simulator gathers by
draw and walks when it costs no more than the walk.  `refuse_past_memory`
refuses, in bytes, a build whose estimate exceeds physical memory.
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
    perm_unrank,
    permutation_table,
)

MAX_WREATH_ORDER = 5000
INDEX_MAX = 2 ** 63 - 1            # the largest order whose indices fit in int64


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
    """|G|^n n!, refusing n < 1: the order every builder starts from."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return g_order ** n * math.factorial(n)


def enumerate_wreath_elements(g: GroupTable, n: int):
    """All of G wr S_n in lexicographic order, coords major, permutation
    minor; the identity comes first."""
    for coords in itertools.product(range(g.order), repeat=n):
        for perm in itertools.permutations(range(n)):
            yield WreathElement(coords, perm)


def _index_order(g_order: int, n: int, cap: int = INDEX_MAX,
                 what: str = "2^63 - 1, the int64 element indices") -> int:
    """|G|^n n!, refused past cap (named by what), by default when its
    element indices do not fit in int64.  The refusal names orders past 30
    digits as about 10^d: str() of an int past 4300 digits raises."""
    order = wreath_order(g_order, n)
    if order > cap:
        shown = order if order < 10 ** 30 else f"about 10^{math.log10(order):.0f}"
        raise ValueError(f"wreath order {shown} exceeds {what}")
    return order


def encode_states(coords: np.ndarray, perms: np.ndarray, g_order: int) -> np.ndarray:
    """Element indices of (coords; perms) in the encoding above.  coords
    and perms have shape (..., n) and broadcast against each other."""
    n = coords.shape[-1]
    _index_order(g_order, n)
    digits = np.zeros(coords.shape[:-1], dtype=np.int64)
    for i in range(n):
        digits = digits * g_order + coords[..., i]
    return digits * math.factorial(n) + perm_rank(perms)


def decode_states(index: np.ndarray, g_order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(coords, perms) of element indices, each of shape index.shape + (n,):
    the inverse of encode_states."""
    _index_order(g_order, n)
    digits, ranks = np.divmod(np.asarray(index, dtype=np.int64), math.factorial(n))
    coords = np.empty(digits.shape + (n,), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        digits, coords[..., i] = np.divmod(digits, g_order)
    return coords, perm_unrank(ranks, n)


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


def draw_count(kind: str, n: int, g: GroupTable | None) -> int:
    """n^2 |G|^b, the number of equally likely draws of the walk's step: b = 2
    for the independent walk (and sym, on G = 1), b = 1 for paired."""
    go = walk_base(kind, g).order
    return n * n * (go if kind == "paired" else go * go)


def decode_draws(kind: str, n: int, g: GroupTable | None, d) -> tuple:
    """(p, q, a, b) of draw indices d, the mixed-radix digits of
    d = ((p n + q) |G| + a) |G| + b for the independent walk,
    (p n + q) |G| + a with b = a^-1 for paired, and p n + q for sym (the
    independent walk on Z:1): the one decoder of the sampler's draws."""
    g = walk_base(kind, g)
    rest = np.asarray(d, dtype=np.int64)
    if kind != "paired":
        rest, b = np.divmod(rest, g.order)
    pq, a = np.divmod(rest, g.order)
    p, q = np.divmod(pq, n)
    return p, q, a, (g.inv[a] if kind == "paired" else b)


def step_draws(kind: str, n: int, g: GroupTable | None):
    """(p, q, a, b) of every equally likely draw of the walk's step, in the
    sampler's draw order: decode_draws of 0..draw_count - 1.  The sampler
    draws one index per trial and step, uniform on this list."""
    return decode_draws(kind, n, g, np.arange(draw_count(kind, n, g)))


def step_elements(kind: str, n: int, g: GroupTable | None, d=None) -> np.ndarray:
    """The element index of the step element s_d of each draw d (default
    every draw, 0..draw_count - 1): the draws applied to the identity with
    apply_steps."""
    g = walk_base(kind, g)
    if d is None:
        d = np.arange(draw_count(kind, n, g))
    p, q, a, b = decode_draws(kind, n, g, d)
    coords = np.zeros((len(p), n), dtype=np.int64)
    pinv = np.tile(np.arange(n, dtype=np.int64), (len(p), 1))
    apply_steps(coords, pinv, np.arange(len(p)), p, q, a, b, g.mult)
    # from the identity, pinv is the transposition (p q), its own inverse
    return encode_states(coords, pinv, g.order)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def refuse_past_memory(need: int, what: str) -> None:
    """Raise ValueError(f"{what}, more than the ... bytes of physical
    memory") when need bytes, a build's estimate made before it allocates,
    exceed physical memory."""
    have = _physical_memory()
    if need > have:
        raise ValueError(f"{what}, more than the {have} bytes of physical memory")


def table_rows(g: GroupTable, n: int, elements) -> np.ndarray:
    """mult[elements] of G wr S_n without the table: an (r, order) int64
    array whose row i holds the index of elements[i] x for every x.  The
    one builder of both build_wreath_table and step_rows."""
    order, fact = _index_order(g.order, n), math.factorial(n)
    elements = np.asarray(elements, dtype=np.int64)
    y, sigma = decode_states(elements, g.order, n)
    x = np.indices((g.order,) * n).reshape(n, -1)     # x[i, c]: coordinate i of coords c
    # (y; sigma)(x; pi) = (z; sigma pi) with z_i = y_i x_{sigma^-1(i)}.  z does
    # not depend on pi, so it is encoded once per (row, coords of x), as
    # index(z; identity); adding rank(sigma pi) gives index(z; sigma pi)
    z = g.mult[y[:, :, None], x[np.argsort(sigma, axis=1)]]                 # (rows, n, C)
    z = encode_states(z.transpose(0, 2, 1), np.arange(n), g.order)
    del y, sigma
    # rank(sigma pi) for the distinct sigma among the rows only
    ranks, at = np.unique(elements % fact, return_inverse=True)
    sigma_rows = permutation_table(n, ranks)[1]
    rows = np.empty((len(elements), x.shape[1], fact), dtype=np.int64)
    # summed in at most 8 blocks of rows: a block's gathered sigma rows take
    # about r n! bytes
    step = len(elements) // 8 + 1
    for lo in range(0, len(elements), step):
        block = slice(lo, lo + step)
        np.add(z[block, :, None], sigma_rows[at[block], None, :], out=rows[block])
    return rows.reshape(len(elements), order)


def build_bytes(g_order: int, n: int, rows: int, perms: int, held: int,
                draws: int = 0) -> int:
    """Peak bytes of table_rows on `rows` elements with `perms` distinct
    permutations among them, then of `held` bytes next to its result (the
    table's inverse search, the map's int32 copy), after a search of
    `draws` step draws for their distinct elements (16 n + 96 bytes a
    draw; its draw -> row index stays).  table_rows holds the decoded rows
    (24 n bytes a row) and two (rows, n, C) int64 gathers, C = g_order^n,
    or one next to encode_states' two digit arrays; then the (rows, C) z
    index, the (perms, n!) permutation rows and the result with a block of
    gathered permutation rows, rows n! bytes.  Python objects and numpy's
    buffers take 8 KiB and half the result, at most 256 KiB."""
    order, fact = wreath_order(g_order, n), math.factorial(n)
    pairs, result = 8 * rows * g_order ** n, 8 * rows * order
    return 8 * draws + min(2 ** 18, 2 ** 13 + result // 2) + max(
        24 * rows * n + pairs * max(2 * n, n + 2),
        pairs + 8 * rows + 8 * perms * fact + result + rows * fact,
        result + held,
        (16 * n + 96) * draws)


def step_rows(kind: str, n: int, g: GroupTable | None) -> tuple[np.ndarray, np.ndarray]:
    """The walk's successor map on its distinct step elements: (R, row_of)
    with R[row_of[d], x] the index of s_d x, for draw d in step_draws order
    and state x in the element encoding, so R[row_of[d], 0] is s_d.  R has
    one row per distinct step element (b is overwritten at p = q, and
    (p, q, a, b) and (q, p, b, a) give one element): the table_rows of
    those elements, int32 while the order is below 2^31.

    Refuses orders past int64 and, before the map is built, maps whose
    build (build_bytes) would exceed physical memory."""
    g = walk_base(kind, g)
    order = _index_order(g.order, n)
    steps, row_of = np.unique(step_elements(kind, n, g), return_inverse=True)
    dtype = np.dtype(np.int32 if order < 2 ** 31 else np.int64)
    size = len(steps) * order * dtype.itemsize
    # the step permutations: the identity and the n(n - 1)/2 transpositions
    need = build_bytes(g.order, n, len(steps), 1 + n * (n - 1) // 2, size, len(row_of))
    refuse_past_memory(need, f"wreath order {order} needs a {size}-byte step-row map "
                             f"({len(steps)} step elements x {order} states) for the {kind} "
                             f"walk and {need} bytes to build it")
    return table_rows(g, n, steps).astype(dtype, copy=False), row_of


class WreathTable(NamedTuple):
    group: GroupTable        # the wreath product as a plain GroupTable
    base: GroupTable
    n: int


def build_wreath_table(g: GroupTable, n: int, max_order: int = MAX_WREATH_ORDER) -> WreathTable:
    """Materialize G wr S_n as an explicit multiplication table.

    Refuses orders above max_order (default 5000), and, before allocating
    anything, tables whose build (build_bytes) would exceed physical
    memory.
    """
    order = _index_order(g.order, n, max_order, f"cap {max_order}")
    table = 8 * order * order
    # every row and permutation, then the inverse search's order^2 bool mask
    need = build_bytes(g.order, n, order, math.factorial(n), order * order)
    have = _physical_memory()
    if need > have:
        raise ValueError(f"wreath order {order} needs a {table / 2 ** 30:.1f} GiB table "
                         f"(order^2 int64 entries) and {need / 2 ** 30:.1f} GiB to build it, "
                         f"more than the {have / 2 ** 30:.1f} GiB of physical memory")
    mult = table_rows(g, n, np.arange(order))
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
