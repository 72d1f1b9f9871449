"""Walk measures on G wr S_n (and S_n) and their exact spectra.

Three kinds:

  sym          on S_n:      P(e) = 1/n, P(tau) = 2/n^2 per transposition.
  independent  on G wr S_n: P(id) = 1/(|G|n); P(u;e) = 1/(|G|n^2) per
               element with one non-identity coordinate; P(v;tau) =
               2/(|G|^2 n^2) per transposition element.
  paired       like independent, but (v;tau) carries mass 2/(|G| n^2) and
               only on the class whose cycle product is the identity
               (the two coordinates mutually inverse).

All per-element masses are exact Fractions.  Eigenvalues (the walks are
class measures, so Fourier transforms are scalars) are exact Fractions:

  sym          1/n + ((n-1)/n) r(lambda)
  independent  n_1/n^2 + [n_1(n_1-1)/n^2] r(lambda_1)
  paired       n_1/n^2 + sum_j [n_j(n_j-1)/n^2] r(lambda_j) / d_j

where d_j is the dimension of the j-th base irrep (so the division is
invisible on abelian bases).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import Atoms, exact_atoms, l2_column
from .classes import support_classes
from .groups import GroupTable
from .partitions import (
    char_ratio_transposition,
    content_sum,
    dim_partition,
    enumerate_partitions,
    partition_count,
)
from .reps import (
    MAX_LABELS,
    IrrepLabel,
    _scale,
    enumerate_labels,
    irrep_dimension,
    support_characters,
)

WALK_KINDS = ("sym", "independent", "paired")


@dataclass
class WalkMeasure:
    kind: str
    n: int
    base: GroupTable | None                  # None for the sym walk
    class_probs: dict                        # tag -> per-element Fraction
    support: list = field(default_factory=list)  # (tag, type, size)

    def total_mass(self) -> Fraction:
        if self.kind == "sym":
            return self.class_probs[("id",)] + Fraction(self.n * (self.n - 1), 2) * self.class_probs[("tau",)]
        return sum(self.class_probs[tag] * size for tag, _, size in self.support)


def build_measure(kind: str, n: int, g: GroupTable | None = None) -> WalkMeasure:
    if kind not in WALK_KINDS:
        raise ValueError(f"walk kind must be one of {WALK_KINDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "sym":
        probs = {("id",): Fraction(1, n), ("tau",): Fraction(2, n * n)}
        m = WalkMeasure(kind=kind, n=n, base=None, class_probs=probs)
        assert m.total_mass() == 1
        return m
    if g is None:
        raise ValueError("wreath walks need a base group")
    a = g.order
    probs = {("id",): Fraction(1, a * n)}
    for k in range(2, g.num_classes + 1):
        probs[("u", k)] = Fraction(1, a * n * n)
    if n >= 2:
        for k in range(1, g.num_classes + 1):
            if kind == "independent":
                probs[("v", k)] = Fraction(2, a * a * n * n)
            else:  # paired: only mutually inverse pairs
                probs[("v", k)] = Fraction(2, a * n * n) if k == 1 else Fraction(0)
    support = support_classes(g, n)
    m = WalkMeasure(kind=kind, n=n, base=g, class_probs=probs, support=support)
    assert m.total_mass() == 1
    return m


def eigenvalue(measure: WalkMeasure, label) -> Fraction:
    """Closed-form Fourier scalar of the measure at the given irrep, by
    n_j (n_j - 1) r(lambda_j) = content_sum(lambda_j) in the forms above."""
    n = measure.n
    if measure.kind == "sym":
        return Fraction(n + content_sum(label), n * n)
    lab: IrrepLabel = label
    # independent: slot 1 only.  paired: every slot; the 1/d_j keeps the
    # per-slot term consistent with the support characters (see
    # support_characters) -- it only matters off slot 1, where d_1 = 1
    dims = measure.base.irrep_dims()
    slots = 1 if measure.kind == "independent" else len(lab.type)
    return Fraction(lab.type[0], n * n) + sum(
        Fraction(content_sum(lab.lambdas[j]), n * n * dims[j]) for j in range(slots))


def fourier_class_function(measure: WalkMeasure, label):
    """Fourier transform of the measure at the irrep, evaluated from class
    data alone: (1/d) sum_classes P_i n_i chi_i.  Exact when the base table
    is exact; equals eigenvalue() in all cases (the independent route
    validates the support-character formulas)."""
    n = measure.n
    if measure.kind == "sym":
        lam = label
        if n == 1:
            return Fraction(1)
        # chi(tau) / d is the character ratio r(lambda)
        return measure.class_probs[("id",)] + measure.class_probs[("tau",)] * Fraction(
            n * (n - 1), 2
        ) * char_ratio_transposition(lam)
    g = measure.base
    sc = support_characters(g, n, label)
    d = sc.dim
    acc = measure.class_probs[("id",)] * d  # chi(id) = d
    for tag, _, size in measure.support:
        p = measure.class_probs[tag]
        if tag[0] in ("u", "v") and p:
            chi = sc.chi_u if tag[0] == "u" else sc.chi_v
            acc = acc + _scale(p * size, chi[tag[1]])
    return _scale(Fraction(1, d), acc)


@dataclass(frozen=True)
class SpectralLine:
    value: Fraction
    multiplicity: int
    witness: object      # IrrepLabel (wreath) or Partition (sym)


@dataclass
class Spectrum:
    kind: str
    n: int
    base_name: str
    group_order: int     # |G wr S_n| (or n! for sym)
    lines: list          # SpectralLine, descending by value

    def multiplicity_total(self) -> int:
        return sum(l.multiplicity for l in self.lines)


def spectrum(kind: str, n: int, g: GroupTable | None = None,
             max_labels: int | None = None) -> Spectrum:
    """Deduplicated exact spectrum of the walk's transition operator.
    max_labels (default MAX_LABELS) caps the labels, or for sym the
    partitions of n, before any is built."""
    measure = build_measure(kind, n, g)
    acc: dict[Fraction, int] = {}
    witness: dict[Fraction, object] = {}
    if kind == "sym":
        cap = MAX_LABELS if max_labels is None else max_labels
        if partition_count(n) > cap:
            raise ValueError(f"partition count {partition_count(n)} exceeds cap {cap}")
        for lam in enumerate_partitions(n):
            val = eigenvalue(measure, lam)
            d = dim_partition(lam)
            acc[val] = acc.get(val, 0) + d * d
            witness.setdefault(val, lam)
        total = math.factorial(n)
        base_name = f"S_{n}"
    else:
        kwargs = {} if max_labels is None else {"max_labels": max_labels}
        for lab in enumerate_labels(g, n, **kwargs):
            val = eigenvalue(measure, lab)
            d = irrep_dimension(g, n, lab)
            acc[val] = acc.get(val, 0) + d * d
            witness.setdefault(val, lab)
        total = g.order ** n * math.factorial(n)
        base_name = g.name
    lines = [
        SpectralLine(value=v, multiplicity=m, witness=witness[v])
        for v, m in sorted(acc.items(), reverse=True)
    ]
    assert sum(l.multiplicity for l in lines) == total
    assert lines[0].value == 1 and lines[0].multiplicity == 1, "walk must be ergodic"
    return Spectrum(kind=kind, n=n, base_name=base_name, group_order=total, lines=lines)


def return_probability(spec: Spectrum, k: int) -> Fraction:
    """P^{*k}(identity) = (1/|G|) sum multiplicity * value^k, exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = Fraction(0)
    for line in spec.lines:
        acc += line.multiplicity * line.value ** k
    return acc / spec.group_order


def spectral_atoms(spec: Spectrum) -> Atoms:
    """The nontrivial lines as (multiplicity, value) atoms."""
    lines = spec.lines[1:]
    return exact_atoms([line.multiplicity for line in lines], [line.value for line in lines])


def l2n_sq_spectral(spec: Spectrum, k: int):
    """|G| * ||P^{*k} - U||_2^2 = sum over nontrivial lines of
    multiplicity * value^{2k}.  Exact Fraction for k <= EXACT_K_MAX, float
    beyond."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return l2_column(spectral_atoms(spec), [k])[0]
