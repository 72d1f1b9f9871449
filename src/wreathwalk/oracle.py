"""Brute-force oracle on explicit group tables: exact transition matrices,
convolution powers, and distances.

Everything is exact rational arithmetic.  Matrices and convolution powers
are integer numerators over a common denominator, so powers stay cheap.
The one-step law is counted from the walk's draws (measure_on_table), each
applied to the identity by the walk's step `wreath.apply_steps`, not read
from the spectral side's class measure, so agreement between the two
routes is evidence, not circularity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .groups import GroupTable
from .wreath import step_elements

if TYPE_CHECKING:
    from .walks import WalkMeasure


@dataclass
class TransitionMatrix:
    group: GroupTable
    num: np.ndarray      # (order, order) int64 numerators
    den: int             # shared denominator

    @property
    def order(self) -> int:
        return len(self.num)

    def trace(self) -> Fraction:
        return Fraction(int(self.num.trace()), self.den)


def measure_on_table(measure: WalkMeasure, g: GroupTable) -> dict[int, Fraction]:
    """Per-element masses of the walk's one-step law on an explicit table in
    the wreath encoding; keys are element indices with nonzero mass.

    Counted from the walk's definition: each of the n^2 |G|^b equally likely
    draws (positions p, q, then two independent base elements a, b, or one
    pair a, a^-1 for paired; `wreath.step_draws`, the simulator's draw
    order) is applied to the identity with `wreath.apply_steps`
    (`wreath.step_elements`).  Sym is the independent case on G = 1: one
    draw (a, b) = (e, e) per (p, q)."""
    n, base = measure.n, measure.base
    go = base.order
    if g.order != go ** n * math.factorial(n):
        raise ValueError(f"table order {g.order} is not |G|^n n! = {go ** n * math.factorial(n)}")
    steps = step_elements(measure.kind, n, base)
    counts = np.bincount(steps, minlength=g.order)
    return {int(i): Fraction(int(counts[i]), len(steps)) for i in np.flatnonzero(counts)}


def build_transition_matrix(g: GroupTable, measure: WalkMeasure) -> TransitionMatrix:
    """M[i][j] = P(e_j * e_i^{-1}): row = current state, column = next."""
    probs = measure_on_table(measure, g)
    den = math.lcm(*(p.denominator for p in probs.values()))
    row_of_identity = np.zeros(g.order, dtype=np.int64)
    for idx, p in probs.items():
        row_of_identity[idx] = int(p * den)
    # mult[j, inv[i]] = e_j e_i^{-1}, indexed [j, i]
    num = row_of_identity[g.mult[:, g.inv]].T
    return TransitionMatrix(group=g, num=num, den=den)


def matrix_power_traces(m: TransitionMatrix, k_max: int) -> list[Fraction]:
    """tr(M^k) for k = 0..k_max via repeated multiplication, exact.  Entries
    of num^k are nonnegative with row sums den^k, so every partial sum and
    the trace stay below order * den^k: int64 while that fits, Python ints
    past it."""
    order = m.order
    num = m.num if order * m.den ** k_max < 2 ** 63 else m.num.astype(object)
    traces = [Fraction(order)]
    power = num
    den = m.den
    for k in range(1, k_max + 1):
        if k > 1:
            power = power @ num
            den *= m.den
        traces.append(Fraction(int(power.trace()), den))
    return traces


def convolution_power(g: GroupTable, measure: WalkMeasure, k: int) -> list[Fraction]:
    """P^{*k} as a dense vector over the table, by k sparse convolutions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return next(convolution_curve(g, measure, [k]))[1]


def convolution_curve(g: GroupTable, measure: WalkMeasure, ks: list):
    """Yield (k, P^{*k}) at the requested k values in one incremental pass.
    ks must be sorted ascending and nonnegative.  Fractions are built only
    for the yielded vectors."""
    if ks and ks[0] < 0:
        raise ValueError("k must be >= 0")
    support = measure_on_table(measure, g)
    den = math.lcm(*(p.denominator for p in support.values()))
    # (P * Q)(y) = sum_s P(s) Q(s^{-1} y); row inv[s] of the table maps y to s^{-1} y
    steps = [(int(p * den), g.mult[g.inv[s]]) for s, p in support.items()]
    num = np.zeros(g.order, dtype=object)   # Python ints: num[i] / scale = P^{*k}(e_i)
    num[0] = 1
    scale = 1
    cur = 0
    for k in ks:
        if k < cur:
            raise ValueError("ks must be ascending")
        while cur < k:
            num = sum(w * num[row] for w, row in steps)
            scale *= den
            cur += 1
        assert num.sum() == scale
        yield k, [Fraction(x, scale) for x in num]


def exact_distances(dist: list, order: int) -> dict:
    """tv, l1, l2 squared, and |G|*l2^2 of dist against uniform; exact.
    Sums integer numerators over one common denominator."""
    den = math.lcm(*{p.denominator for p in dist})
    # p - 1/order = (num * order - den) / (den * order)
    diffs = [p.numerator * (den // p.denominator) * order - den for p in dist]
    scale = den * order
    l1 = Fraction(sum(map(abs, diffs)), scale)
    l2_sq = Fraction(sum(d * d for d in diffs), scale * scale)
    return {
        "tv": l1 / 2,
        "l1": l1,
        "l2_sq": l2_sq,
        "l2n_sq": order * l2_sq,
    }


def trace_moment_check(m: TransitionMatrix, spectral_moments: list, k_max: int) -> list:
    """Deviations tr(M^k) - sum(mult * value^k) for k = 0..k_max; all should
    be exactly zero when the spectrum is right."""
    traces = matrix_power_traces(m, k_max)
    return [traces[k] - spectral_moments[k] for k in range(k_max + 1)]
