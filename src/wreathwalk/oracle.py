"""Brute-force oracle on group tables: exact transition matrices on the
explicit table, convolution powers on the conjugacy classes, and distances.

Everything is exact rational arithmetic, carried as integer numerators over
one shared denominator; Fractions are built only for the cells a caller
reads.  A transition matrix is int64 numerators over den, and its powers
are numerators over den^k.  A convolution power P^{*k} is one integer
vector v of class masses over scale = den^k.  The one-step law is a class
function, so P^{*k} is one too and the walk lumps onto the table's
conjugacy classes: each step multiplies v by an integer class kernel, on
int64 while scale * den stays below 2^63 and on Python ints past it, and
the readers take v as it is, with no law expanded to the elements.
The kernel multiplies one member of each class by the support elements
(wreath.products), so a wreath.class_table, whose classes come without a
multiplication table, serves the sparse oracle with no table rows.
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
from .wreath import draw_count, products, step_elements

if TYPE_CHECKING:
    from .walks import WalkMeasure

PRODUCT_CELLS = 1 << 16    # products x_C s formed at once by the class kernel
DRAW_CHUNK = 1 << 16       # draws applied to the identity at once by measure_on_table


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
    """Per-element masses of the walk's one-step law on g, a table of
    G wr S_n in the wreath encoding of which only the order is read; keys
    are element indices with nonzero mass.

    Counted from the walk's definition: each of the n^2 |G|^b equally likely
    draws (positions p, q, then two independent base elements a, b, or one
    pair a, a^-1 for paired; d = 0..draw_count - 1 by `wreath.decode_draws`,
    the draws the simulator takes) is applied to the identity with
    `wreath.apply_steps` (`wreath.step_elements`), DRAW_CHUNK draws at a
    time, and the step elements are counted.  Sym is the independent case on G = 1: one draw
    (a, b) = (e, e) per (p, q)."""
    n, base = measure.n, measure.base
    go = base.order
    if g.order != go ** n * math.factorial(n):
        raise ValueError(f"table order {g.order} is not |G|^n n! = {go ** n * math.factorial(n)}")
    draws = draw_count(measure.kind, n, base)
    counts = np.zeros(g.order, dtype=np.int64)
    for lo in range(0, draws, DRAW_CHUNK):
        chunk = np.arange(lo, min(lo + DRAW_CHUNK, draws))
        counts += np.bincount(step_elements(measure.kind, n, base, chunk), minlength=g.order)
    return {int(i): Fraction(int(counts[i]), draws) for i in np.flatnonzero(counts)}


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
    of num^k are nonnegative with row sums den^k, so every product, partial
    sum and the trace are integers below order * den^k: float64 (BLAS) while
    that is below 2^53, int64 below 2^63, Python ints past it."""
    order = m.order
    top = order * m.den ** k_max
    num = m.num.astype(np.float64 if top < 2 ** 53 else np.int64 if top < 2 ** 63 else object)
    traces = [Fraction(order)]
    power = num
    den = m.den
    for k in range(1, k_max + 1):
        if k > 1:
            power = power @ num
            den *= m.den
        traces.append(Fraction(int(power.trace()), den))
    return traces


def _class_kernel(g: GroupTable, measure: WalkMeasure, support: dict, den: int) -> np.ndarray:
    """The transpose of the integer class kernel K[C, C'] = sum_s w_s
    [x_C s in C'] of the one-step law: s runs over the support with weight
    w_s = den * P(s) and x_C is any member of class C (x_C s is conjugate
    to s x_C).  Every row of K (column of the result) sums to den.  The
    products are formed by wreath.products, about PRODUCT_CELLS at once.

    Refuses (ValueError, naming the class) a law that is not constant on
    the table's classes, checked in O(|support|) before K is built: each
    class the support touches must lie wholly in it, with one weight."""
    m = g.num_classes
    s = np.fromiter(support, dtype=np.int64, count=len(support))
    w = np.array([p.numerator * (den // p.denominator) for p in support.values()],
                 dtype=np.int64)
    cls = g.class_of[s]
    in_support = np.bincount(cls, minlength=m)
    weight_of = np.zeros(m, dtype=np.int64)
    weight_of[cls] = w
    sizes = np.array(g.class_sizes(), dtype=np.int64)
    ok = (in_support[cls] == sizes[cls]) & (weight_of[cls] == w)
    if not ok.all():
        c = int(cls[np.argmin(ok)])
        raise ValueError(f"the one-step law is not constant on conjugacy class {c} of "
                         f"{g.name} ({sizes[c]} elements, {in_support[c]} in the support)")
    reps = np.empty(m, dtype=np.int64)
    reps[g.class_of] = np.arange(g.order)           # one member of each class
    kernel_t = np.zeros((m, m), dtype=np.int64)     # kernel_t[C', C] = K[C, C']
    width = max(1, PRODUCT_CELLS // len(s))
    for lo in range(0, m, width):
        block = reps[lo:lo + width]
        landed = g.class_of[products(measure.base, measure.n, block, s)]
        np.add.at(kernel_t, (landed, np.arange(lo, lo + len(block))[:, None]), w)
    return kernel_t


def convolution_curve(g: GroupTable, measure: WalkMeasure, ks: list):
    """Yield (k, v, scale) with v the class masses, P^{*k}(C) = v[C] / scale
    for each conjugacy class C of g, at the requested k values in one
    incremental pass; scale = den^k for the one-step law's common
    denominator den.  ks must be sorted ascending and nonnegative.  v is
    int64 while scale * den < 2^63 and an object array of Python ints past
    that; no Fractions are built.

    The one-step law P is constant on conjugacy classes (checked, see
    _class_kernel), so P^{*k} is too, and the walk is stepped on the
    table's classes: (P * Q)(C') = sum_C Q(C) sum_s P(s) [s x_C in C'] for
    any x_C in C, so one step is v <- v @ K = K^T v with the integer class
    kernel K.  Entries are nonnegative, each row of K sums to den and v
    sums to scale, so no partial sum exceeds scale * den.  Each element of
    C has P^{*k} = (v[C] // |C|) / scale; v[C] divides by |C| (asserted)."""
    if ks and ks[0] < 0:
        raise ValueError("k must be >= 0")
    support = measure_on_table(measure, g)
    den = math.lcm(*(p.denominator for p in support.values()))
    kernel_t = _class_kernel(g, measure, support, den)
    sizes = np.array(g.class_sizes(), dtype=np.int64)
    v = np.zeros(g.num_classes, dtype=np.int64)
    v[g.class_of[0]] = 1
    scale = 1
    cur = 0
    for k in ks:
        if k < cur:
            raise ValueError("ks must be ascending")
        while cur < k:
            if v.dtype != object and scale * den >= 2 ** 63:
                v, kernel_t = v.astype(object), kernel_t.astype(object)
            v = kernel_t @ v
            scale *= den
            cur += 1
        assert not (v % sizes).any(), "a class mass does not divide by its class size"
        assert v.sum() == scale
        yield k, v, scale


def exact_distances(g: GroupTable, v: np.ndarray, scale: int) -> dict:
    """tv, l1, l2 squared, and |G|*l2^2 against uniform of the law with
    class masses v / scale on g (see convolution_curve); exact.  Each class
    C adds |C| times the integer deviation (v[C] // |C|) * order - scale of
    its elements, over the common denominator scale * order."""
    order = g.order
    diffs = [(x // c * order - scale, c) for x, c in zip(v.tolist(), g.class_sizes())]
    den = scale * order
    l1 = Fraction(sum(c * abs(d) for d, c in diffs), den)
    l2_sq = Fraction(sum(c * d * d for d, c in diffs), den * den)
    return {
        "tv": l1 / 2,
        "l1": l1,
        "l2_sq": l2_sq,
        "l2n_sq": order * l2_sq,
    }
