"""Finite groups as explicit multiplication tables.

Elements are integer indices 0..order-1 with 0 the identity.  Built-in
constructors cover cyclic groups ("Z:m") and small symmetric groups
("S:m", m <= 6); arbitrary groups can be ingested from a JSON file
("file:path").  Character tables are stored row-per-irrep with row 0 the
trivial irrep and column k the k-th conjugacy class; entries are exact
(int / Fraction) when the group is rational, complex floats otherwise.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import MISSING, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .partitions import sn_character_table

MAX_INGEST_ORDER = 2000
BLOCK = 1 << 14            # permutations, or wreath elements, unranked or decoded at once


class _BuiltOnRead:
    """A dataclass field that may be set to a builder (a callable of no
    arguments): the first read runs it and keeps its value.  With no
    default the field is required."""

    def __init__(self, default=MISSING):
        self.default = default

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self.default is MISSING:    # dataclass reads a required field
                raise AttributeError(self.slot)
            return self.default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass
class GroupTable:
    name: str
    # (order, order) int, mult[a,b] = a*b; or its builder
    mult: np.ndarray | Callable[[], np.ndarray] = _BuiltOnRead()
    inv: np.ndarray | Callable[[], np.ndarray] = _BuiltOnRead()   # (order,) int; or its builder
    class_of: np.ndarray   # element -> class; numbered by least member, class 0 = {identity}
    # rows: irreps, cols: classes; may be given as a builder of them
    char_table: list[list] | Callable[[], list[list]] | None = _BuiltOnRead(None)
    exact_characters: bool = False

    @property
    def order(self) -> int:
        return len(self.class_of)

    @cached_property
    def _sizes(self) -> list[int]:
        return np.bincount(self.class_of).tolist()

    @property
    def num_classes(self) -> int:
        return len(self._sizes)

    @property
    def is_abelian(self) -> bool:
        return self.num_classes == self.order

    def class_sizes(self) -> list[int]:
        """Class sizes, in class order; computed once (read only)."""
        return self._sizes

    @property
    def classes(self) -> list[list[int]]:
        """Each class's members, ascending: built from class_of on each read."""
        members = np.argsort(self.class_of, kind="stable")
        return [c.tolist() for c in np.split(members, np.cumsum(self._sizes)[:-1])]

    def irrep_dims(self) -> list[int]:
        """Irrep dimensions, row order of the character table; computed once
        (read only)."""
        return self._dims

    @cached_property
    def _dims(self) -> list[int]:
        if self.char_table is None:
            raise ValueError(f"group {self.name} has no character table")
        dims = []
        for row in self.char_table:
            d = row[0]
            if isinstance(d, complex):
                d = d.real
            di = int(round(float(d)))
            if abs(float(d) - di) > 1e-9 or di < 1:
                raise ValueError("character table has a non-integer dimension")
            dims.append(di)
        return dims


def _check_group_axioms(mult: np.ndarray) -> None:
    order = mult.shape[0]
    if mult.shape != (order, order):
        raise ValueError("multiplication table must be square")
    if mult.min() < 0 or mult.max() >= order:
        raise ValueError("table entries out of range")
    if not (np.array_equal(mult[0], np.arange(order)) and np.array_equal(mult[:, 0], np.arange(order))):
        raise ValueError("element 0 is not a two-sided identity")
    # every row/column a permutation (latin square)
    ar = np.arange(order)
    for a in range(order):
        if not np.array_equal(np.sort(mult[a]), ar) or not np.array_equal(np.sort(mult[:, a]), ar):
            raise ValueError("table is not a latin square")
    # associativity, chunked so order 2000 stays tractable
    for a in range(order):
        left = mult[mult[a], :]          # (b,c) -> (a*b)*c
        right = mult[a][mult]            # (b,c) -> a*(b*c)
        if not np.array_equal(left, right):
            raise ValueError("multiplication table is not associative")


def _inverses(mult: np.ndarray) -> np.ndarray:
    order = mult.shape[0]
    inv = np.empty(order, dtype=mult.dtype)
    rows, cols = np.nonzero(mult == 0)
    inv[rows] = cols
    # latin square guarantees one zero per row
    if np.any(mult[np.arange(order), inv] != 0):
        raise ValueError("missing inverses")
    return inv


def conjugacy_classes(mult: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """class_of by conjugation closure, classes numbered by least member."""
    class_of, found = np.full(len(inv), -1, dtype=np.int64), 0
    for g in range(len(inv)):
        if class_of[g] < 0:
            class_of[mult[mult[:, g], inv]] = found        # h g h^-1 for every h
            found += 1
    return class_of


def _zm_character_table(m: int) -> list[list]:
    # chi_j(class k) = exp(2 pi i j k / m); exact for m in {1, 2, 4}
    if m == 1:
        return [[Fraction(1)]]
    if m == 2:
        return [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    if m == 4:
        i = complex(0.0, 1.0)
        return [[(i ** (j * k)) for k in range(4)] for j in range(4)]   # exact Gaussian integers
    return [[cmath.exp(2j * cmath.pi * j * k / m) for k in range(m)] for j in range(m)]


def cyclic_group(m: int) -> GroupTable:
    """Z:m; its m x m int64 table is refused before it is allocated when it
    would not fit in physical memory."""
    from .wreath import refuse_past_memory

    if m < 1:
        raise ValueError("cyclic group order must be >= 1")
    refuse_past_memory(8 * m * m, f"Z:{m} needs a {8 * m * m}-byte multiplication table "
                                  f"(m^2 int64 entries)")
    ar = np.arange(m, dtype=np.int64)
    mult = np.add.outer(ar, ar)
    mult %= m
    return GroupTable(
        name=f"Z:{m}",
        mult=mult,
        inv=(-ar) % m,
        class_of=ar,
        char_table=partial(_zm_character_table, m),      # m x m entries: built on first read
        exact_characters=m in (1, 2, 4),
    )


def perm_rank(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation along the last axis (its
    Lehmer code read in the factorial base)."""
    m = perms.shape[-1]
    rank = np.zeros(perms.shape[:-1], dtype=np.int64)
    for i in range(m):
        rank *= m - i
        for j in range(i + 1, m):      # one pair at a time: a sum over the short axis is slow
            rank += perms[..., j] < perms[..., i]
    return rank


def perm_unrank(ranks: np.ndarray, m: int) -> np.ndarray:
    """The permutations of range(m) with the given lexicographic ranks, as
    rows along a new last axis: the inverse of perm_rank.  The Lehmer code
    is read off the factorial base, then built into a permutation from the
    right, each digit shifting up the entries at or above it."""
    r = np.array(ranks, dtype=np.int64)
    perms = np.empty(r.shape + (m,), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        r, perms[..., i] = np.divmod(r, m - i)
    for i in range(m - 2, -1, -1):
        tail = perms[..., i + 1:]
        tail += tail >= perms[..., i:i + 1]
    return perms


@lru_cache(maxsize=1)
def _permutations(m: int) -> np.ndarray:
    """permutation_table's int8 rows, built once per m (read only), from
    BLOCK ranks at a time: perm_unrank holds about 9 m + 32 bytes a rank."""
    perms = np.empty((math.factorial(m), m), dtype=np.int8)
    for lo in range(0, len(perms), BLOCK):
        perms[lo:lo + BLOCK] = perm_unrank(np.arange(lo, min(lo + BLOCK, len(perms))), m)
    perms.flags.writeable = False
    return perms


def permutation_table(m: int, ranks=None) -> tuple[np.ndarray, np.ndarray]:
    """The m! permutations of range(m) as rows, in lexicographic order
    (identity first, read only), and rows `ranks` (default all) of their
    product table: mult[i, b] = rank of a o b for a of rank ranks[i], where
    (a o b)(i) = a(b(i))."""
    perms = _permutations(m)
    ranks = np.arange(len(perms)) if ranks is None else np.asarray(ranks)
    mult = np.empty((len(ranks), len(perms)), dtype=np.int64)
    # composites a o b = a[b], ranked in m blocks of rows: a block's int8
    # composites take len(ranks) m! bytes, an eighth of mult
    for rows in np.array_split(np.arange(len(ranks)), m):
        mult[rows] = perm_rank(perms[ranks[rows]][:, perms])
    return perms, mult


def cycle_paths(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(path, ends), (n!, n) int8 each, a row per permutation of range(n)
    in rank order: path[r] its positions in cycle order, each cycle from its
    least position along pi^-1 (classes.cycle_products' traversal), and
    ends[r, t] the length of the cycle that ends at path[r, t], else 0.
    Traced BLOCK permutations at a time."""
    perms = _permutations(n)
    path, ends = np.empty_like(perms), np.zeros_like(perms)
    for lo in range(0, len(perms), BLOCK):
        block = slice(lo, lo + BLOCK)
        at, length, pinv = path[block], ends[block], np.empty_like(perms[block])
        np.put_along_axis(pinv, perms[block], np.arange(n, dtype=np.int8), axis=1)
        rows, seen = np.arange(len(at)), np.zeros(at.shape, dtype=bool)
        cur, run = np.zeros((2, len(at)), dtype=np.int64)
        for t in range(n):
            at[:, t], seen[rows, cur] = cur, True
            cur, run = pinv[rows, cur], run + 1
            closed = np.flatnonzero(seen[rows, cur])      # back at the cycle's start
            length[closed, t], run[closed] = run[closed], 0
            cur[closed] = np.argmin(seen[closed], axis=1)  # the least unseen position
    return path, ends


def symmetric_group(m: int) -> GroupTable:
    """S_m with elements in lexicographic tuple order (identity first)."""
    if not 1 <= m <= 6:
        raise ValueError("built-in symmetric groups limited to 1 <= m <= 6")
    mult = permutation_table(m)[1]
    inv = _inverses(mult)
    class_of = conjugacy_classes(mult, inv)
    # Murnaghan-Nakayama characters, columns matched by a class member's cycle type
    parts, table = sn_character_table(m)
    col_of_type = {mu: c for c, mu in enumerate(parts)}
    member = np.empty(class_of.max() + 1, dtype=np.int64)
    member[class_of] = np.arange(len(class_of))
    class_cols = [col_of_type[tuple(sorted(e[e > 0].tolist(), reverse=True))]
                  for e in cycle_paths(m)[1][member]]
    char_rows = [[Fraction(table[r][c]) for c in class_cols] for r in range(len(parts))]
    return GroupTable(
        name=f"S:{m}",
        mult=mult,
        inv=inv,
        class_of=class_of,
        char_table=char_rows,
        exact_characters=True,
    )


def _validate_char_table(g: GroupTable, tol: float = 1e-9) -> None:
    table = g.char_table
    if table is None:
        return
    s = g.num_classes
    if len(table) != s or any(len(row) != s for row in table):
        raise ValueError("character table must be square num_classes x num_classes")
    for v in table[0]:
        if abs(complex(v) - 1) > tol:
            raise ValueError("row 0 must be the trivial character")
    dims = g.irrep_dims()
    if sum(d * d for d in dims) != g.order:
        raise ValueError("sum of squared dimensions must equal the group order")
    sizes = g.class_sizes()
    for i in range(s):
        for j in range(i, s):
            dot = sum(
                sizes[k] * complex(table[i][k]) * complex(table[j][k]).conjugate()
                for k in range(s)
            )
            want = g.order if i == j else 0
            if abs(dot - want) > tol * max(1, g.order):
                raise ValueError("character table rows are not orthogonal")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_pair(entry, bound: int) -> bool:
    # a JSON [re, im] of numbers; |x| <= bound also refuses inf, nan and
    # ints too large for a float
    return (isinstance(entry, list) and len(entry) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= bound
        for x in entry))


def group_from_file(path: str) -> GroupTable:
    """Ingest a group from JSON: {"order": N, "mult": [[...]...],
    "labels": [...], "char_table": [[[re, im], ...], ...]} (labels and
    char_table optional; labels are only checked against the order).
    Validation is strict."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("group file must hold a JSON object")
    if "order" not in data or "mult" not in data:
        raise ValueError("group file needs 'order' and 'mult'")
    order, table = data["order"], data["mult"]
    if not _is_int(order) or order < 1 or order > MAX_INGEST_ORDER:
        raise ValueError(f"'order' must be an integer in 1..{MAX_INGEST_ORDER}")
    if not (isinstance(table, list) and len(table) == order and all(
            isinstance(row, list) and len(row) == order
            and all(_is_int(x) and 0 <= x < order for x in row) for row in table)):
        raise ValueError("'mult' must be an order x order table of integers in 0..order-1")
    mult = np.array(table, dtype=np.int64)
    _check_group_axioms(mult)
    inv = _inverses(mult)
    class_of = conjugacy_classes(mult, inv)
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("'labels' must be a list")
    if labels and len(labels) != order:
        raise ValueError("labels length must equal order")
    char_table = None
    exact = False
    raw = data.get("char_table")
    if raw is not None:
        if not (isinstance(raw, list) and all(
                isinstance(row, list) and all(_is_pair(entry, order) for entry in row)
                for row in raw)):
            raise ValueError("'char_table' must be a list of rows of [re, im] number pairs, "
                             "each at most the order in size")
        rows = []
        all_real_int = True
        for raw_row in raw:
            row = []
            for entry in raw_row:
                re, im = float(entry[0]), float(entry[1])
                if im == 0.0 and re == int(re):
                    row.append(Fraction(int(re)))
                else:
                    row.append(complex(re, im))
                    all_real_int = False
            rows.append(row)
        char_table = rows
        exact = all_real_int
    g = GroupTable(
        name=f"file:{path}",
        mult=mult,
        inv=inv,
        class_of=class_of,
        char_table=char_table,
        exact_characters=exact,
    )
    _validate_char_table(g)
    return g


def build_group(spec: str) -> GroupTable:
    """Parse "Z:m", "S:m" (m <= 6), or "file:path"."""
    if ":" not in spec:
        raise ValueError(f"bad group spec {spec!r}; want Z:m, S:m, or file:path")
    kind, _, arg = spec.partition(":")
    if kind == "Z":
        return cyclic_group(int(arg))
    if kind == "S":
        return symmetric_group(int(arg))
    if kind == "file":
        return group_from_file(arg)
    raise ValueError(f"unknown group family {kind!r}")
