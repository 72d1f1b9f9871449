"""The oracle route (explicit tables, integer matrices, sparse convolution)
against the spectral route.  Nothing here imports the closed forms except to
compare final numbers."""
import contextlib
import io
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from wreathwalk import groups, oracle, wreath
from wreathwalk.cli import main
from wreathwalk.groups import GroupTable, build_group, symmetric_group
from wreathwalk.oracle import (
    build_transition_matrix,
    convolution_curve,
    exact_distances,
    matrix_power_traces,
    measure_on_table,
)
from wreathwalk.walks import build_measure, l2n_sq_spectral, return_probability, spectrum
from wreathwalk.wreath import (
    WreathElement,
    build_wreath_table,
    enumerate_wreath_elements,
    wreath_multiply,
)

INSTANCES = [("Z:2", 2), ("Z:2", 3), ("Z:3", 2), ("S:3", 2)]


def _spread(g, v):
    """The per-element numerators of the class masses v: each element of
    class C carries v[C] // |C|."""
    return (v // np.array(g.class_sizes(), dtype=np.int64))[g.class_of]


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
    assert matrix_power_traces(m, 6) == moments


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
        for k, v, scale in convolution_curve(wt.group, meas, list(range(1, 21))):
            d = exact_distances(wt.group, v, scale)
            assert d["l2n_sq"] == l2n_sq_spectral(spec, k)
            assert Fraction(int(v[0]), scale) == return_probability(spec, k)


def test_tv_l2_inequality():
    # tv^2 <= (1/4) order l2^2, with equality iff two-valued deviations
    g = build_group("Z:3")
    wt = build_wreath_table(g, 2)
    meas = build_measure("paired", 2, g)
    spec = spectrum("paired", 2, g)
    for k, v, scale in convolution_curve(wt.group, meas, [1, 3, 6, 10]):
        d = exact_distances(wt.group, v, scale)
        assert d["tv"] ** 2 <= Fraction(1, 4) * d["l2n_sq"]
        assert d["l2n_sq"] == l2n_sq_spectral(spec, k)


def test_convolution_power_zero_is_point_mass():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    (_, v, scale), = convolution_curve(wt.group, meas, [0])
    assert len(v) == wt.group.num_classes
    num = _spread(wt.group, v)
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
        assert matrix_power_traces(m, 5) == moments
        for k, v, scale in convolution_curve(g, meas, [1, 5, 12]):
            d = exact_distances(g, v, scale)
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
    assert matrix_power_traces(m, 24) == moments
    assert matrix_power_traces(m, 24)[:20] == matrix_power_traces(m, 19)


def test_trace_moments_agree_on_float64_int64_and_python_ints():
    # Z:2 wr S_2 independent (order 8, den 8): k_max = 16 is the last on
    # float64 (every value an integer below 2^53), 19 the last on int64
    g = build_group("Z:2")
    m = build_transition_matrix(build_wreath_table(g, 2).group, build_measure("independent", 2, g))
    assert m.order * m.den ** 16 < 2 ** 53 <= m.order * m.den ** 17
    traces = matrix_power_traces(m, 24)
    assert matrix_power_traces(m, 16) == traces[:17] and matrix_power_traces(m, 19) == traces[:20]


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
    for (k, v, scale), law in zip(curve, _scalar_laws(g, n, kind, k_max)):
        want = [Fraction(0)] * wt.group.order
        for e, p in law.items():
            want[index[e]] = p
        assert [Fraction(int(x), scale) for x in _spread(wt.group, v)] == want, k
        dtypes.append(v.dtype)
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
    for (k, v, scale), (k_ref, num_ref, scale_ref) in zip(
            convolution_curve(gt, measure, ks), _element_convolution_curve(gt, measure, ks),
            strict=True):
        assert k == k_ref
        assert len(v) == gt.num_classes, k
        assert scale == scale_ref, k
        num = _spread(gt, v)
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


def test_the_sym_oracle_unranks_the_permutations_once(monkeypatch, capsys):
    # at order 9! = 362 880 the class table traces the cycles of the one
    # cached array of permutations, whose build unranks each of the 9! ranks
    # once; the kernel decodes only its 30 class members and 37 step elements
    unranked, unrank = [], groups.perm_unrank
    monkeypatch.setattr(groups, "perm_unrank",
                        lambda ranks, m: unranked.extend([m] * len(ranks)) or unrank(ranks, m))
    groups._permutations.cache_clear()
    try:
        assert main("oracle --walk sym --n 9 --max-order 1000000 --k 0..3".split()) == 0
    finally:
        groups._permutations.cache_clear()
    assert "1,1/9,111991/9,362843/362880" in capsys.readouterr().out.splitlines()
    assert unranked == [9] * math.factorial(9)


@pytest.mark.parametrize("gspec,n,kind", [("S:3", 2, "paired"), ("Z:5", 2, "independent"),
                                          ("Z:1", 4, "sym")])
def test_class_kernel_is_the_same_built_in_blocks(gspec, n, kind, monkeypatch):
    # one class member per block (PRODUCT_CELLS below the support) and a
    # last block of one (m - 1 per block) against one block for all
    g = build_group(gspec)
    gt = build_wreath_table(g, n).group
    measure = build_measure(kind, n, g)
    support = measure_on_table(measure, gt)
    den = math.lcm(*(p.denominator for p in support.values()))
    whole = oracle._class_kernel(gt, measure, support, den)
    assert (whole.sum(axis=0) == den).all()
    assert gt.num_classes * len(support) < oracle.PRODUCT_CELLS
    for cells in (1, (gt.num_classes - 1) * len(support)):
        monkeypatch.setattr(oracle, "PRODUCT_CELLS", cells)
        assert np.array_equal(oracle._class_kernel(gt, measure, support, den), whole)


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


def _per_element_distances(num, scale, order):
    """exact_distances term by term: one integer deviation per element."""
    diffs = [x * order - scale for x in num.tolist()]
    den = scale * order
    l1 = Fraction(sum(map(abs, diffs)), den)
    l2_sq = Fraction(sum(d * d for d in diffs), den * den)
    return {"tv": l1 / 2, "l1": l1, "l2_sq": l2_sq, "l2n_sq": order * l2_sq}


def test_exact_distances_sum_once_per_class():
    # random class masses, on int64 and past it (an object array), on
    # tables whose classes have several sizes, against the sum over the
    # elements
    rng = np.random.default_rng(5)
    for gspec, n in [("Z:2", 3), ("Z:3", 2), ("S:3", 2), ("Z:1", 4), ("Z:5", 1)]:
        gt = build_wreath_table(build_group(gspec), n).group
        sizes = np.array(gt.class_sizes(), dtype=np.int64)
        for _ in range(10):
            v = rng.integers(0, 6, size=gt.num_classes) * sizes * int(rng.integers(1, 10 ** 6))
            scale = int(v.sum()) or 1
            big = v.astype(object) * (3 ** 70)
            for law, s in ((v, scale), (big, scale * 3 ** 70)):
                assert (exact_distances(gt, law, s)
                        == _per_element_distances(_spread(gt, law), s, gt.order))
    # the curve on S:3 wr S_3: 1296 elements in 22 classes, on Python ints at k = 12
    g = build_group("S:3")
    gt = build_wreath_table(g, 3).group
    for k, v, scale in convolution_curve(gt, build_measure("paired", 3, g), [1, 4, 12]):
        assert len(v) == gt.num_classes == 22
        assert (v.dtype == object) == (k == 12)
        assert exact_distances(gt, v, scale) == _per_element_distances(_spread(gt, v), scale, 1296), k


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("argv,gspec,n", [
    ("oracle --group S:3 --n 3 --walk paired --k 0..20", "S:3", 3),
    ("oracle --walk sym --n 7 --max-order 6000 --k 0..3", "Z:1", 7),
    ("distance --group Z:2 --n 4 --walk independent --k 0..30 --check-oracle", "Z:2", 4),
    # 100 trials: the simulator's step-row map (table_rows of its own step
    # elements) would cost more than the walk, so it is not built
    ("simulate --group Z:3 --n 3 --walk paired --k 0..40:10 --trials 100", "Z:3", 3),
    ("simulate --group Z:2 --n 3 --walk independent --mode continuized --k 0..6:3 "
     "--trials 100", "Z:2", 3),
])
def test_commands_build_rows_of_representatives_only(argv, gspec, n, monkeypatch):
    # the commands build no row of a wreath table, no inverses and no class
    # lists: the kernel multiplies class members by the step elements
    rows = []
    built = wreath.table_rows

    def counted(g, n, elements=None):
        rows.append(elements)
        return built(g, n, elements)

    def no_inverses(*args):
        raise AssertionError("the inverse table was built")

    def no_lists(self):
        raise AssertionError("the class lists were built")

    monkeypatch.setattr(wreath, "table_rows", counted)
    monkeypatch.setattr(wreath, "wreath_inverses", no_inverses)
    monkeypatch.setattr(GroupTable, "classes", property(no_lists))
    _cli(argv.split())
    assert rows == []


def _spectral_rows(kind, n, g, ks):
    spec = spectrum(kind, n, g)
    return [(return_probability(spec, k), l2n_sq_spectral(spec, k)) for k in ks]


@pytest.mark.parametrize("argv,kind,gspec,n", [
    ("oracle --walk sym --n 9 --max-order 1000000 --k 0..3", "sym", None, 9),
    ("oracle --group Z:2 --n 5 --walk independent", "independent", "Z:2", 5),
    ("oracle --group Z:3 --n 4 --walk paired --max-order 6000", "paired", "Z:3", 4),
])
def test_oracle_rows_equal_the_spectrum(argv, kind, gspec, n):
    # S_9 (order 362880) is past any order^2 table; Z:2 n = 5 and Z:3 n = 4
    # (3840 and 1944) are the largest wreath instances under the default
    # cap.  Every row equals the spectral route exactly
    lines = _cli(argv.split()).splitlines()
    assert lines[0] == "k,return_prob,l2n_sq,tv"
    cells = [line.split(",") for line in lines[1:]]
    g = build_group(gspec) if gspec else None
    want = _spectral_rows(kind, n, g, [int(c[0]) for c in cells])
    assert [(Fraction(c[1]), Fraction(c[2])) for c in cells] == want
