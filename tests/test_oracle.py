"""The oracle route (explicit tables, integer matrices, sparse convolution)
against the spectral route.  Nothing here imports the closed forms except to
compare final numbers."""
import math
from fractions import Fraction

import pytest

from wreathwalk.groups import build_group, symmetric_group
from wreathwalk.oracle import (
    build_transition_matrix,
    convolution_power,
    exact_distances,
    matrix_power_traces,
    measure_on_table,
    trace_moment_check,
)
from wreathwalk.walks import build_measure, l2n_sq_spectral, return_probability, spectrum
from wreathwalk.wreath import build_wreath_table

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
        dist = [Fraction(0)] * wt.group.order
        dist[0] = Fraction(1)
        for k in range(1, 21):
            dist = convolution_power(wt.group, meas, k)
            d = exact_distances(dist, wt.group.order)
            assert d["l2n_sq"] == l2n_sq_spectral(spec, k)
            assert dist[0] == return_probability(spec, k)


def test_tv_l2_inequality():
    # tv^2 <= (1/4) order l2^2, with equality iff two-valued deviations
    g = build_group("Z:3")
    wt = build_wreath_table(g, 2)
    meas = build_measure("paired", 2, g)
    spec = spectrum("paired", 2, g)
    for k in (1, 3, 6, 10):
        dist = convolution_power(wt.group, meas, k)
        d = exact_distances(dist, wt.group.order)
        assert d["tv"] ** 2 <= Fraction(1, 4) * d["l2n_sq"]
        assert d["l2n_sq"] == l2n_sq_spectral(spec, k)


def test_convolution_power_zero_is_point_mass():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    dist = convolution_power(wt.group, meas, 0)
    assert dist[0] == 1
    assert all(p == 0 for p in dist[1:])


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
            dist = convolution_power(g, meas, k)
            d = exact_distances(dist, g.order)
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
