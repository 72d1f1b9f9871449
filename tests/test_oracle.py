"""The oracle route (explicit tables, integer matrices, sparse convolution)
against the spectral route.  Nothing here imports the closed forms except to
compare final numbers."""
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from wreathwalk import oracle
from wreathwalk.groups import build_group, symmetric_group
from wreathwalk.oracle import (
    build_transition_matrix,
    convolution_curve,
    convolution_power,
    exact_distances,
    matrix_power_traces,
    measure_on_table,
    trace_moment_check,
)
from wreathwalk.walks import build_measure, l2n_sq_spectral, return_probability, spectrum
from wreathwalk.wreath import (
    WreathElement,
    build_wreath_table,
    enumerate_wreath_elements,
    wreath_multiply,
)

INSTANCES = [("Z:2", 2), ("Z:2", 3), ("Z:3", 2), ("S:3", 2)]


@pytest.mark.parametrize("gspec,n", INSTANCES)
@pytest.mark.parametrize("kind", ["independent", "paired"])
def test_trace_moments_exact(gspec, n, kind):
    g = build_group(gspec)
    wt = build_wreath_table(g, n)
    spec = spectrum(kind, n, g)
    meas = build_measure(kind, n, g)
    m = build_transition_matrix(wt.group, meas)
    moments = [
        sum(Fraction(l.multiplicity) * l.value ** k for l in spec.lines)
        for k in range(7)
    ]
    dev = trace_moment_check(m, moments, 6)
    assert dev == [Fraction(0)] * 7


def test_transition_matrix_is_stochastic():
    g = build_group("Z:3")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    m = build_transition_matrix(wt.group, meas)
    for i in range(m.order):
        assert sum(m.num[i]) == m.den


def test_transition_matrix_doubly_stochastic():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 3)
    meas = build_measure("paired", 3, g)
    m = build_transition_matrix(wt.group, meas)
    for j in range(m.order):
        assert sum(m.num[i][j] for i in range(m.order)) == m.den


def test_convolution_matches_spectral_l2():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 3)
    for kind in ("independent", "paired"):
        spec = spectrum(kind, 3, g)
        meas = build_measure(kind, 3, g)
        for k in range(1, 21):
            num, scale = convolution_power(wt.group, meas, k)
            d = exact_distances(num, scale, wt.group.order)
            assert d["l2n_sq"] == l2n_sq_spectral(spec, k)
            assert Fraction(int(num[0]), scale) == return_probability(spec, k)


def test_tv_l2_inequality():
    # tv^2 <= (1/4) order l2^2, with equality iff two-valued deviations
    g = build_group("Z:3")
    wt = build_wreath_table(g, 2)
    meas = build_measure("paired", 2, g)
    spec = spectrum("paired", 2, g)
    for k in (1, 3, 6, 10):
        num, scale = convolution_power(wt.group, meas, k)
        d = exact_distances(num, scale, wt.group.order)
        assert d["tv"] ** 2 <= Fraction(1, 4) * d["l2n_sq"]
        assert d["l2n_sq"] == l2n_sq_spectral(spec, k)


def test_convolution_power_zero_is_point_mass():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    num, scale = convolution_power(wt.group, meas, 0)
    assert num[0] == scale == 1
    assert all(p == 0 for p in num[1:])


def test_sym_walk_oracle():
    # the permutation-only walk, straight on S_n tables
    for n in (3, 4):
        g = symmetric_group(n)
        meas = build_measure("sym", n)
        spec = spectrum("sym", n)
        m = build_transition_matrix(g, meas)
        moments = [
            sum(Fraction(l.multiplicity) * l.value ** k for l in spec.lines)
            for k in range(6)
        ]
        assert trace_moment_check(m, moments, 5) == [Fraction(0)] * 6
        for k in (1, 5, 12):
            num, scale = convolution_power(g, meas, k)
            d = exact_distances(num, scale, g.order)
            assert d["l2n_sq"] == l2n_sq_spectral(spec, k)


def test_measure_on_table_refuses_wrong_order():
    g = build_group("Z:2")
    meas = build_measure("independent", 2, g)
    with pytest.raises(ValueError, match="table order 48"):
        measure_on_table(meas, build_wreath_table(g, 3).group)
    with pytest.raises(ValueError, match="table order 6"):
        measure_on_table(build_measure("sym", 2), symmetric_group(3))


def test_matrix_power_traces_start_at_order():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("paired", 2, g)
    m = build_transition_matrix(wt.group, meas)
    traces = matrix_power_traces(m, 3)
    assert traces[0] == 8
    assert traces[1] == m.trace()


def test_trace_moments_past_the_int64_range():
    # Z:2 wr S_2 independent: den = 8, order 8.  k_max = 19 is the last on
    # the int64 path; at k_max = 24 the row sums den^k are past 2^64, so
    # int64 products would wrap
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    m = build_transition_matrix(wt.group, build_measure("independent", 2, g))
    assert (m.order, m.den) == (8, 8)
    assert m.order * m.den ** 19 < 2 ** 63 <= m.order * m.den ** 20
    assert m.den ** 24 > 2 ** 64
    spec = spectrum("independent", 2, g)
    moments = [
        sum(Fraction(l.multiplicity) * l.value ** k for l in spec.lines)
        for k in range(25)
    ]
    assert trace_moment_check(m, moments, 24) == [Fraction(0)] * 25
    assert matrix_power_traces(m, 24)[:20] == matrix_power_traces(m, 19)


def _scalar_laws(g, n, kind, k_max):
    """P^{*k} for k = 0..k_max as {element: Fraction}, by scalar convolution
    with wreath_multiply and no table.  The one-step law is the walk's
    definition: each draw (p, q, a, b), b = a^-1 for paired, is the element
    with a at p, b at q (a alone when p = q) and the swap (p q)."""
    if kind == "paired":
        ab = [(a, int(g.inv[a])) for a in range(g.order)]
    else:
        ab = [(a, b) for a in range(g.order) for b in range(g.order)]
    draws = [(p, q, a, b) for p in range(n) for q in range(n) for a, b in ab]
    step = defaultdict(Fraction)
    for p, q, a, b in draws:
        v = [0] * n
        v[q] = b
        v[p] = a
        tau = list(range(n))
        tau[p], tau[q] = q, p
        step[WreathElement(tuple(v), tuple(tau))] += Fraction(1, len(draws))
    law = {WreathElement((0,) * n, tuple(range(n))): Fraction(1)}
    yield law
    for _ in range(k_max):
        nxt = defaultdict(Fraction)
        for s, ps in step.items():
            for x, px in law.items():
                nxt[wreath_multiply(g, s, x)] += ps * px
        law = nxt
        yield law


@pytest.mark.parametrize("gspec,n,kind", [("Z:2", 2, "independent"), ("Z:3", 2, "paired"),
                                          ("S:3", 2, "paired")])
def test_integer_curve_matches_scalar_fraction_convolution(gspec, n, kind):
    # every k through the int64 -> Python-int switch (k = 21, 18 and 14
    # here) and past it; elements map to indices by the enumeration order,
    # which is the element encoding
    g = build_group(gspec)
    wt = build_wreath_table(g, n)
    index = {e: i for i, e in enumerate(enumerate_wreath_elements(g, n))}
    k_max = 24
    dtypes = []
    curve = convolution_curve(wt.group, build_measure(kind, n, g), list(range(k_max + 1)))
    for (k, num, scale), law in zip(curve, _scalar_laws(g, n, kind, k_max)):
        want = [Fraction(0)] * wt.group.order
        for e, p in law.items():
            want[index[e]] = p
        assert [Fraction(int(x), scale) for x in num] == want, k
        dtypes.append(num.dtype)
    assert dtypes[0] == np.int64 and dtypes[-1] == object
    switch = dtypes.index(object)
    assert all(d == np.int64 for d in dtypes[:switch])
    assert all(d == object for d in dtypes[switch:])


def _element_convolution_curve(g, measure, ks):
    """The element-wise reference for convolution_curve: one integer per
    element, stepped by (P * Q)(y) = sum_s P(s) Q(s^-1 y).  Row inv[s] of
    the table maps y to s^-1 y, so a step is sum_w w * sum_s num[row inv[s]]
    over the support elements s of integer weight w, on int64 while
    scale * den < 2^63 and on Python ints past it."""
    support = measure_on_table(measure, g)
    den = math.lcm(*(p.denominator for p in support.values()))
    rows_of = {}   # weight w -> rows inv[s]
    for s, p in support.items():
        rows_of.setdefault(int(p * den), []).append(g.mult[g.inv[s]])
    num = np.zeros(g.order, dtype=np.int64)
    num[0] = 1
    scale = 1
    cur = 0
    for k in ks:
        while cur < k:
            if num.dtype != object and scale * den >= 2 ** 63:
                num = num.astype(object)
            num = sum(w * sum(num[row] for row in rows) for w, rows in rows_of.items())
            scale *= den
            cur += 1
        yield k, num, scale


CLASS_STEP_INSTANCES = (
    [("Z:2", n, kind) for n in range(1, 6) for kind in ("independent", "paired")]
    + [("Z:3", n, kind) for n in range(1, 4) for kind in ("independent", "paired")]
    + [("S:3", n, kind) for n in range(1, 4) for kind in ("independent", "paired")]
    + [("Z:1", n, "sym") for n in range(1, 7)]
    + [("Z:4", 3, "paired"), ("Z:5", 2, "independent"), ("Z:300", 1, "independent")]
)


@pytest.mark.parametrize("gspec,n,kind", CLASS_STEP_INSTANCES)
def test_class_steps_match_the_element_steps(gspec, n, kind):
    # S:3 n = 3 paired (den = 54) steps on Python ints from k = 11 on
    g = build_group(gspec)
    gt = build_wreath_table(g, n).group
    measure = build_measure(kind, n, g)
    ks = list(range(25))
    for (k, num, scale), (k_ref, num_ref, scale_ref) in zip(
            convolution_curve(gt, measure, ks), _element_convolution_curve(gt, measure, ks),
            strict=True):
        assert k == k_ref
        assert scale == scale_ref, k
        assert num.dtype == num_ref.dtype, k
        assert np.array_equal(num, num_ref), k


@pytest.mark.parametrize("weights", [(1,), (2, 1, 1)])
def test_class_steps_refuse_a_law_that_is_not_a_class_function(weights, monkeypatch):
    # on the transpositions of 1 wr S_3 (a class of 3 elements): a point
    # mass on one of them, then all three with two different weights
    gt = build_wreath_table(build_group("Z:1"), 3).group
    c, members = next((c, m) for c, m in enumerate(gt.classes) if len(m) == 3)
    law = {x: Fraction(w, sum(weights)) for x, w in zip(members, weights)}
    monkeypatch.setattr(oracle, "measure_on_table", lambda measure, g: law)
    with pytest.raises(ValueError, match=f"not constant on conjugacy class {c} "):
        next(convolution_curve(gt, build_measure("sym", 3), [0, 1]))


@pytest.mark.parametrize("gspec,n,kind", [("S:3", 2, "paired"), ("Z:5", 2, "independent"),
                                          ("Z:1", 4, "sym")])
def test_class_kernel_is_the_same_built_in_blocks(gspec, n, kind, monkeypatch):
    # one representative per block (KERNEL_CELLS below the order) and a
    # last block of one (m - 1 per block) against one block for all
    g = build_group(gspec)
    gt = build_wreath_table(g, n).group
    support = measure_on_table(build_measure(kind, n, g), gt)
    den = math.lcm(*(p.denominator for p in support.values()))
    whole = oracle._class_kernel(gt, support, den)
    assert (whole.sum(axis=0) == den).all()
    assert gt.order < oracle.KERNEL_CELLS
    for cells in (1, (gt.num_classes - 1) * gt.order):
        monkeypatch.setattr(oracle, "KERNEL_CELLS", cells)
        assert np.array_equal(oracle._class_kernel(gt, support, den), whole)


@pytest.mark.parametrize("kind,gspec,n", [("independent", "Z:3", 2), ("paired", "S:3", 2),
                                          ("sym", None, 4)])
def test_measure_on_table_is_the_same_in_any_chunk_of_draws(kind, gspec, n, monkeypatch):
    # chunks of one draw, of 7 (the last one short) and one chunk past all
    # n^2 |G|^b draws count the same law
    g = build_group(gspec) if gspec else None
    meas = build_measure(kind, n, g)
    table = build_wreath_table(meas.base, n).group
    draws = n * n * meas.base.order ** (1 if kind == "paired" else 2)
    laws = []
    for chunk in (1, 7, draws + 1):
        monkeypatch.setattr(oracle, "DRAW_CHUNK", chunk)
        laws.append(measure_on_table(meas, table))
    assert laws[0] == laws[1] == laws[2]
    assert sum(laws[0].values()) == 1
