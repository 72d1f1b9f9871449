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
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .partitions import sn_character_table

MAX_INGEST_ORDER = 2000


@dataclass
class GroupTable:
    name: str
    mult: np.ndarray           # (order, order) int, mult[a,b] = a*b
    inv: np.ndarray            # (order,) int
    classes: list[list[int]]   # class 0 = {identity}; ordered by min element
    class_of: np.ndarray       # element -> class index
    char_table: list[list] | None = None   # rows: irreps, cols: classes
    exact_characters: bool = False
    _dims: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return int(self.mult.shape[0])

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def is_abelian(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def class_sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def irrep_dims(self) -> list[int]:
        """Irrep dimensions, row order of the character table; computed once
        (read only)."""
        if self._dims is not None:
            return self._dims
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
        self._dims = dims
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


def conjugacy_classes(mult: np.ndarray, inv: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Classes by conjugation closure, ordered by ascending minimal element."""
    order = mult.shape[0]
    class_of = np.full(order, -1, dtype=np.int64)
    classes: list[list[int]] = []
    everyone = np.arange(order)
    for g in range(order):
        if class_of[g] >= 0:
            continue
        # sorted orbit; np.unique would import numpy.ma (about 14 ms) on first use
        orbit = np.flatnonzero(np.bincount(mult[mult[everyone, g], inv[everyone]], minlength=order))
        idx = len(classes)
        classes.append([int(x) for x in orbit])
        class_of[orbit] = idx
    return classes, class_of


def _zm_character_table(m: int) -> tuple[list[list], bool]:
    # chi_j(class k) = exp(2 pi i j k / m); exact for m in {1, 2, 4}
    if m == 1:
        return [[Fraction(1)]], True
    if m == 2:
        return [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]], True
    if m == 4:
        i = complex(0.0, 1.0)
        rows = [[(i ** (j * k)) for k in range(4)] for j in range(4)]
        return rows, True  # entries are exact Gaussian integers in IEEE floats
    rows = []
    for j in range(m):
        rows.append([cmath.exp(2j * cmath.pi * j * k / m) for k in range(m)])
    return rows, False


def cyclic_group(m: int) -> GroupTable:
    if m < 1:
        raise ValueError("cyclic group order must be >= 1")
    ar = np.arange(m)
    mult = (ar[:, None] + ar[None, :]) % m
    inv = (-ar) % m
    classes = [[k] for k in range(m)]
    char_table, exact = _zm_character_table(m)
    return GroupTable(
        name=f"Z:{m}",
        mult=mult.astype(np.int64),
        inv=inv.astype(np.int64),
        classes=classes,
        class_of=ar.astype(np.int64),
        char_table=char_table,
        exact_characters=exact,
    )


def perm_rank(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation along the last axis (its
    Lehmer code read in the factorial base)."""
    m = perms.shape[-1]
    rank = np.zeros(perms.shape[:-1], dtype=np.int64)
    for i in range(m):
        smaller = (perms[..., i + 1:] < perms[..., i:i + 1]).sum(axis=-1)
        rank = rank * (m - i) + smaller
    return rank


def permutation_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m! permutations of range(m) as rows, in lexicographic order
    (identity first), and their product table mult[a, b] = rank of a o b,
    where (a o b)(i) = a(b(i))."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
    mult = np.empty((len(perms), len(perms)), dtype=np.int64)
    # composites a o b = a[b], ranked in m blocks of rows: a block's int8
    # composites take m!^2 bytes, an eighth of mult
    for rows in np.array_split(np.arange(len(perms)), m):
        mult[rows] = perm_rank(perms[rows][:, perms])
    return perms, mult


def _cycle_type(perm: tuple) -> tuple:
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def symmetric_group(m: int) -> GroupTable:
    """S_m with elements in lexicographic tuple order (identity first)."""
    if not 1 <= m <= 6:
        raise ValueError("built-in symmetric groups limited to 1 <= m <= 6")
    rows, mult = permutation_table(m)
    perms = [tuple(p) for p in rows.tolist()]
    inv = _inverses(mult)
    classes, class_of = conjugacy_classes(mult, inv)
    # characters from the Murnaghan-Nakayama table, columns matched by cycle type
    parts, table = sn_character_table(m)
    col_of_type = {mu: c for c, mu in enumerate(parts)}
    class_cols = [col_of_type[_cycle_type(perms[cls[0]])] for cls in classes]
    char_rows = [[Fraction(table[r][c]) for c in class_cols] for r in range(len(parts))]
    return GroupTable(
        name=f"S:{m}",
        mult=mult,
        inv=inv,
        classes=classes,
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
    classes, class_of = conjugacy_classes(mult, inv)
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
        classes=classes,
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
