"""Irreducible representations of G wr S_n: labels, dimensions, and
character values on the walk-support classes.

A label is (type, lambdas): type = (n_1..n_s) a composition of n over the s
base-group irreps (slot 1 = trivial irrep of G), lambdas = a partition of
n_j per slot.  Character values come out exact (Fractions) when the base
character table is exact, complex floats otherwise.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .classes import class_count
from .groups import GroupTable
from .partitions import (
    WORD_M_MAX,
    Partition,
    refuse_past_cap,
    char_ratio_transposition,
    dim_partition,
    enumerate_partitions,
)

MAX_LABELS = 2 * 10 ** 6
# the exact label count (class_count) costs about s n^2 / 2 big-int products
# on s base classes: 2.7 s for sym at n = 5000, and 26 ms (sym, n = 1000) to
# 51 ms (S:3, n = 577) at this work.  Past the partition table's cap, where
# no label can be built, it is computed only below this work, so that n up
# to 1000 still names its label count; a temporary fork, to go once the cap
# is checked first at every n
LABEL_COUNT_WORK = 10 ** 6


@dataclass(frozen=True, slots=True)
class IrrepLabel:
    type: tuple          # (n_1, ..., n_s)
    lambdas: tuple       # s partitions, lambdas[j] a partition of type[j]

    def __str__(self):
        lam = ";".join(".".join(str(p) for p in l) if l else "-" for l in self.lambdas)
        return f"{self.type}[{lam}]"


def _compositions_desc(n: int, s: int) -> Iterator[tuple]:
    # descending lexicographic order: (n,0,..,0) first
    if s == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions_desc(n - first, s - 1):
            yield (first,) + rest


def enumerate_labels(g: GroupTable, n: int, max_labels: int = MAX_LABELS) -> list[IrrepLabel]:
    """All irrep labels, ordered by type composition (descending lex), then
    per-slot partition order.  The trivial label (n,0,...)[ [n], -,... ]
    comes first.  On a one-class base (G = 1) the labels are the
    partitions of n, and the refusal names them so.  Past the partition
    table's cap (WORD_M_MAX) and LABEL_COUNT_WORK, n is refused before the
    labels are counted."""
    s = g.num_classes
    if n > WORD_M_MAX and s * n * n > LABEL_COUNT_WORK:
        refuse_past_cap(n)
    total = class_count(g, n)
    if total > max_labels:
        what = "partition" if s == 1 else "label"
        raise ValueError(f"{what} count {total} exceeds cap {max_labels}")
    parts_of: dict = {}          # m -> partitions of m, built when first used
    out = []
    for comp in _compositions_desc(n, s):
        for m in comp:
            if m not in parts_of:
                parts_of[m] = enumerate_partitions(m)
        for lams in itertools.product(*(parts_of[m] for m in comp)):
            out.append(IrrepLabel(comp, lams))
    assert len(out) == total
    return out


@lru_cache(maxsize=None)
def multinomial(n: int, comp: tuple) -> int:
    out = math.factorial(n)
    for m in comp:
        out //= math.factorial(m)
    return out


def irrep_dimension(g: GroupTable, n: int, label: IrrepLabel) -> int:
    """multinomial(n; type) * prod d_{rho_j}^{n_j} * prod dim(lambda_j)."""
    d = multinomial(n, label.type)
    for dj, nj, lam in zip(g.irrep_dims(), label.type, label.lambdas):
        if nj:
            d *= dj ** nj * dim_partition(lam)
    return d


def _scale(coeff: Fraction, value):
    # Fraction x (Fraction | complex) without losing exactness
    if isinstance(value, complex):
        return float(coeff) * value
    return coeff * value


@dataclass
class SupportCharacter:
    label: IrrepLabel
    dim: int
    chi_u: dict        # k (2..s) -> chi_rho(u; e) for base class k
    chi_v: dict        # k (1..s) -> chi_rho(v; tau) for base class k


def support_characters(g: GroupTable, n: int, label: IrrepLabel) -> SupportCharacter:
    """Character of the label on the walk-support classes:

      chi(u_k; e)   = d * sum_j (n_j / n) chi_j(g_k) / d_j
      chi(v_k; tau) = d * sum_j [n_j(n_j-1) / (n(n-1))] (chi_j(g_k)/d_j^2) r(lambda_j)

    The v-line divides by d_j squared, not d_j.  Sanity check on the smallest
    case that distinguishes the two: one slot with d_j = 2, n_j = n = 2,
    lambda_j = [2].  The element (v, v^-1; tau) acts on W (x) W by swapping
    factors then applying rho(v) (x) rho(v^-1), whose trace is
    tr(rho(v) rho(v^-1)) = chi_j(e) = d_j, while d_rho = d_j^2.  Only the
    d_j^2 version reproduces that (and the exact transition-matrix trace
    moments agree with it on every nonabelian instance tried).
    """
    table = g.char_table
    if table is None:
        raise ValueError("base group needs a character table")
    dims = g.irrep_dims()
    d = irrep_dimension(g, n, label)
    s = g.num_classes
    chi_u = {}
    for k in range(2, s + 1):
        acc = 0
        for j, nj in enumerate(label.type):
            if nj == 0:
                continue
            coeff = Fraction(nj, n) * Fraction(1, dims[j])
            acc = acc + _scale(coeff, table[j][k - 1])
        chi_u[k] = _scale(Fraction(d), acc) if not isinstance(acc, int) else Fraction(d) * acc
    chi_v = {}
    if n >= 2:
        for k in range(1, s + 1):
            acc = 0
            for j, nj in enumerate(label.type):
                if nj < 2:
                    continue  # the n_j(n_j-1) factor kills these slots
                r = char_ratio_transposition(label.lambdas[j])
                coeff = Fraction(nj * (nj - 1), n * (n - 1)) * Fraction(1, dims[j] ** 2) * r
                acc = acc + _scale(coeff, table[j][k - 1])
            chi_v[k] = _scale(Fraction(d), acc) if not isinstance(acc, int) else Fraction(d) * acc
    return SupportCharacter(label=label, dim=d, chi_u=chi_u, chi_v=chi_v)
