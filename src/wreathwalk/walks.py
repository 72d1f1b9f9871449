"""Walk measures on G wr S_n and their exact spectra.

Three kinds:

  sym          on S_n:      P(e) = 1/n, P(tau) = 2/n^2 per transposition.
               This is the wreath walk on G = 1 (either of the two below),
               and it is built as one: base Z:1, kind "sym".
  independent  on G wr S_n: P(id) = 1/(|G|n); P(u;e) = 1/(|G|n^2) per
               element with one non-identity coordinate; P(v;tau) =
               2/(|G|^2 n^2) per transposition element.
  paired       like independent, but (v;tau) carries mass 2/(|G| n^2) and
               only on the class whose cycle product is the identity
               (the two coordinates mutually inverse).

All per-element masses are exact Fractions.  Eigenvalues (the walks are
class measures, so Fourier transforms are scalars) are exact Fractions:

  independent  n_1/n^2 + [n_1(n_1-1)/n^2] r(lambda_1)
  paired       n_1/n^2 + sum_j [n_j(n_j-1)/n^2] r(lambda_j) / d_j

where d_j is the dimension of the j-th base irrep (so the division is
invisible on abelian bases).  For sym, G = 1 has one slot and n_1 = n, so
either form is the random-transposition eigenvalue 1/n + ((n-1)/n) r(lambda).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import Atoms, exact_atoms, l2_column
from .classes import support_classes
from .groups import GroupTable
from .partitions import (  # noqa: F401  (dim_partition unused; the tracer test reads it)
    content_rows,
    content_sum,
    dim_partition,
)
from .reps import (
    MAX_LABELS,
    IrrepLabel,
    _scale,
    enumerate_labels,
    irrep_dimension,
    support_characters,
)
from .wreath import walk_base

WALK_KINDS = ("sym", "independent", "paired")


@dataclass
class WalkMeasure:
    kind: str
    n: int
    base: GroupTable                         # Z:1 for the sym walk
    class_probs: dict                        # tag -> per-element Fraction
    support: list = field(default_factory=list)  # (tag, type, size)

    def total_mass(self) -> Fraction:
        return sum(self.class_probs[tag] * size for tag, _, size in self.support)


def build_measure(kind: str, n: int, g: GroupTable | None = None) -> WalkMeasure:
    if kind not in WALK_KINDS:
        raise ValueError(f"walk kind must be one of {WALK_KINDS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = walk_base(kind, g)
    a = g.order
    probs = {("id",): Fraction(1, a * n)}
    for k in range(2, g.num_classes + 1):
        probs[("u", k)] = Fraction(1, a * n * n)
    if n >= 2:
        for k in range(1, g.num_classes + 1):
            if kind == "independent":
                probs[("v", k)] = Fraction(2, a * a * n * n)
            else:  # paired (and sym, where G = 1): only mutually inverse pairs
                probs[("v", k)] = Fraction(2, a * n * n) if k == 1 else Fraction(0)
    support = support_classes(g, n)
    m = WalkMeasure(kind=kind, n=n, base=g, class_probs=probs, support=support)
    assert m.total_mass() == 1
    return m


def eigenvalue(measure: WalkMeasure, label: IrrepLabel) -> Fraction:
    """Closed-form Fourier scalar of the measure at the given irrep, by
    n_j (n_j - 1) r(lambda_j) = content_sum(lambda_j) in the forms above."""
    # independent (and sym, which has one slot): slot 1 only.  paired: every
    # slot; the 1/d_j keeps the per-slot term consistent with the support
    # characters (see support_characters) -- it only matters off slot 1,
    # where d_1 = 1.  One Fraction over n^2 lcm(d_j).
    dims = measure.base.irrep_dims()
    slots = 1 if measure.kind == "independent" else len(label.type)
    lcm = math.lcm(*dims[:slots])
    num = label.type[0] * lcm
    for j in range(slots):
        num += content_sum(label.lambdas[j]) * (lcm // dims[j])
    return Fraction(num, measure.n * measure.n * lcm)


def fourier_class_function(measure: WalkMeasure, label: IrrepLabel):
    """Fourier transform of the measure at the irrep, evaluated from class
    data alone: (1/d) sum_classes P_i n_i chi_i.  Exact when the base table
    is exact; equals eigenvalue() in all cases (the independent route
    validates the support-character formulas)."""
    sc = support_characters(measure.base, measure.n, label)
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
    witness: IrrepLabel  # the first label, in label order, with this value


@dataclass
class Spectrum:
    kind: str
    n: int
    group_order: int     # |G wr S_n| (n! for sym)
    lines: list          # SpectralLine, descending by value

    def multiplicity_total(self) -> int:
        return sum(l.multiplicity for l in self.lines)


def slot_convolution(n: int, g: GroupTable) -> tuple[int, dict]:
    """The paired walk's spectrum without labels: (denominator,
    {numerator: multiplicity}) over the denominator n^2 lcm(d_j).

    An eigenvalue depends only on n_1 and the per-slot content sums (see
    eigenvalue), so the base irreps are added as slots, left to right,
    over content_rows(n).  Slot j maps a partition of m with content c to
    the numerator offset ((m if j = 1 else 0) + c) lcm / d_j and the weight
    d_j^{2m} dim^2.  A state (size a, numerator v) holds the weight sum
    over its partial labels, and adding m to it multiplies by
    C(a + m, m)^2, which restores the multinomial of the label dimension:
    every weight stays an int."""
    dims = g.irrep_dims()
    lcm = math.lcm(*dims)
    rows = content_rows(n)
    states = [{0: 1}] + [{} for _ in range(n)]       # per size a: {v: weight}
    for j, dj in enumerate(dims):
        step = lcm // dj
        table = [[(((m if j == 0 else 0) + c) * step, dj ** (2 * m) * d2) for c, d2 in rows[m]]
                 for m in range(n + 1)]
        new = [{} for _ in range(n + 1)]
        for a in range(n + 1):
            for m in ([n - a] if j == len(dims) - 1 else range(n - a + 1)):
                f = math.comb(a + m, m) ** 2
                into = new[a + m]
                for v, w in states[a].items():
                    fw = f * w
                    for dv, w2 in table[m]:
                        into[v + dv] = into.get(v + dv, 0) + fw * w2
        states = new
    return n * n * lcm, states[n]


def spectrum(kind: str, n: int, g: GroupTable | None = None,
             max_labels: int | None = None) -> Spectrum:
    """Deduplicated exact spectrum of the walk's transition operator.
    max_labels (default MAX_LABELS) caps the labels before any is built."""
    measure = build_measure(kind, n, g)
    g = measure.base
    acc: dict[Fraction, list] = {}       # value -> [multiplicity, first label]
    cap = MAX_LABELS if max_labels is None else max_labels
    for lab in enumerate_labels(g, n, cap):
        val = eigenvalue(measure, lab)
        d = irrep_dimension(g, n, lab)
        line = acc.get(val)          # one Fraction hash per label
        if line is None:
            acc[val] = [d * d, lab]
        else:
            line[0] += d * d
    total = g.order ** n * math.factorial(n)
    lines = [
        SpectralLine(value=v, multiplicity=m, witness=w)
        for v, (m, w) in sorted(acc.items(), reverse=True)
    ]
    assert sum(l.multiplicity for l in lines) == total
    assert lines[0].value == 1 and lines[0].multiplicity == 1, "walk must be ergodic"
    return Spectrum(kind=kind, n=n, group_order=total, lines=lines)


def return_probability(spec: Spectrum, k: int) -> Fraction:
    """P^{*k}(identity) = (1/|G|) sum multiplicity * value^k, exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    atoms = spectral_atoms(spec)
    acc = atoms.den ** k + sum(w * v ** k for w, v in zip(atoms.weights, atoms.nums))
    return Fraction(acc, atoms.den ** k * spec.group_order)


def spectral_atoms(spec: Spectrum) -> Atoms:
    """The nontrivial lines as (multiplicity, numerator) atoms over one den."""
    lines = spec.lines[1:]
    den = math.lcm(*(line.value.denominator for line in lines))
    nums = [line.value.numerator * (den // line.value.denominator) for line in lines]
    return exact_atoms([line.multiplicity for line in lines], nums, den)


def l2n_sq_spectral(spec: Spectrum, k: int):
    """|G| * ||P^{*k} - U||_2^2 = sum over nontrivial lines of
    multiplicity * value^{2k}.  Exact Fraction for k <= EXACT_K_MAX, float
    beyond."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return l2_column(spectral_atoms(spec), [k])[0]
