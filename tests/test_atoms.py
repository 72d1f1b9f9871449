"""The one l2 evaluator: atoms built once per curve, exact and float paths
of power_sums, windowed upper edges, and the shared partition table."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathwalk import bounds
from wreathwalk.bounds import (
    distance_curve,
    l2_lower_dominant,
    l2n_sq_collapsed,
    l2n_sq_collapsed_bounds,
    paired_relaxed_bound,
    power_sums,
    tv_upper_coupling,
    tv_upper_spectral,
)
from wreathwalk.groups import build_group
from wreathwalk.partitions import (
    conjugate,
    content_rows,
    content_sum,
    dim_hook,
    dim_partition,
    partition_table,
    partitions_of,
)
from wreathwalk.walks import l2n_sq_spectral, spectral_atoms, spectrum

KS = [0, 1, 30, 64, 65, 200]


def _column(curve, name):
    return [row[name] for row in curve.rows]


@pytest.mark.parametrize("kind,gname,n", [
    ("independent", "Z:2", 3), ("paired", "Z:3", 3), ("sym", None, 5),
    ("sym", None, 12), ("independent", "S:3", 5),
])
def test_full_spectrum_column_equals_per_k_calls(kind, gname, n):
    g = build_group(gname) if gname else None
    ks = [0, 1, 7, 64, 65, 90]
    curve = distance_curve(kind, n, g, ks=ks)
    assert curve.mode == "full-spectrum"
    spec = spectrum(kind, n, g)
    want = [l2n_sq_spectral(spec, k) for k in ks]
    assert _column(curve, "l2n_sq") == want
    assert [type(v) for v in _column(curve, "l2n_sq")] == [type(v) for v in want]


@pytest.mark.parametrize("gname,n", [("Z:2", 6), ("Z:2", 20), ("Z:3", 60)])
def test_collapsed_columns_equal_per_k_calls(gname, n):
    # through FULL_ENUM_MAX the curve, the per-k sums and the coupling
    # column's sym part all read the exact rows; above it, the window
    g = build_group(gname)
    ks = [0, 1, 40, 64, 65, 300]
    curve = distance_curve("independent", n, g, ks=ks)
    want = [l2n_sq_collapsed(g.order, n, k) for k in ks]
    assert _column(curve, "l2n_sq") == want
    exact = n <= bounds.FULL_ENUM_MAX
    assert [isinstance(v, Fraction) for v in want] == [exact and k <= bounds.EXACT_K_MAX for k in ks]
    coupling = [tv_upper_coupling(n, k, tv_upper_spectral(l2n_sq_collapsed(1, n, k))) for k in ks]
    assert _column(curve, "tv_upper_coupling") == coupling


@pytest.mark.parametrize("gname,n", [("Z:2", 4), ("S:3", 50)])
def test_relaxed_column_equals_per_k_calls(gname, n):
    g = build_group(gname)
    ks = [0, 1, 64, 65, 400]
    curve = distance_curve("paired", n, g, ks=ks, max_labels=0 if n == 4 else None)
    assert curve.mode == "relaxed"
    assert _column(curve, "l2n_sq") == [4.0 * float(paired_relaxed_bound(g, n, k)) for k in ks]


def test_sym_collapsed_column_equals_per_k_calls():
    ks = [0, 3, 64, 65, 150]
    curve = distance_curve("sym", 45, ks=ks)
    assert curve.mode == "collapsed"
    assert _column(curve, "l2n_sq") == [l2n_sq_collapsed(1, 45, k) for k in ks]


@pytest.mark.parametrize("n", [5, 31, 45])
def test_sym_is_the_independent_walk_on_z1(n):
    # one walk, two spellings: the same route and the same columns
    ks = [1, 30, 60, 90]
    sym = distance_curve("sym", n, ks=ks)
    z1 = distance_curve("independent", n, build_group("Z:1"), ks=ks)
    assert sym.mode == z1.mode
    for name in ("l2n_sq", "tv_upper_spectral"):
        assert _column(sym, name) == _column(z1, name)


def _paired(g, n):
    return (g.num_classes, bounds.delta_n(g, n))


def _assert_float_matches_exact(atoms):
    exact = power_sums(atoms, KS, exact=True)
    for k, ex, (lo, hi) in zip(KS, exact, power_sums(atoms, KS)):
        assert isinstance(ex, Fraction)
        assert lo == hi, k                     # exact atoms carry no tail
        assert abs(lo - float(ex)) <= 1e-12 * float(ex), k


@pytest.mark.parametrize("gname", ["Z:2", "Z:3"])
@pytest.mark.parametrize("kind", ["independent", "paired"])
def test_float_path_matches_exact_spectral(gname, kind):
    g = build_group(gname)
    for n in range(2, 6):
        _assert_float_matches_exact(spectral_atoms(spectrum(kind, n, g)))


@pytest.mark.parametrize("g_order", [1, 2, 3])
def test_float_path_matches_exact_collapsed(g_order):
    _assert_float_matches_exact(bounds._slot_atoms(g_order, 12, None))


@pytest.mark.parametrize("gname", ["Z:2", "S:3"])
def test_relaxed_atoms_have_no_exact_form(gname):
    # (n_1 + content)/(n n_1) share no denominator: no exact relaxed atoms
    g = build_group(gname)
    with pytest.raises(ValueError, match="no exact atoms"):
        bounds._slot_atoms(g.order, 12, None, _paired(g, 12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 200), st.integers(-1000, 1000)), max_size=12),
       st.integers(1, 1000), st.lists(st.integers(0, 40), min_size=1, max_size=6))
@example([(1, 0), (2 ** 200, 7), (3, -7), (5, 7)], 12, [3, 0, 3, 1, 0])
def test_exact_power_sums_match_a_direct_fraction_sum(pairs, den, ks):
    # ints over one den: zeros, negatives and repeated |num| merge by num^2
    atoms = bounds.exact_atoms([w for w, _ in pairs], [v for _, v in pairs], den)
    got = power_sums(atoms, ks, exact=True)
    want = [sum((w * Fraction(v, den) ** (2 * k) for w, v in pairs), Fraction(0)) for k in ks]
    assert got == want and all(isinstance(v, Fraction) for v in got)
    for ex, (lo, hi) in zip(want, power_sums(atoms, ks)):
        assert lo == hi                        # exact atoms carry no tail
        if bounds._float_or_inf(ex) < math.inf:
            assert abs(lo - float(ex)) <= 1e-12 * float(ex)


def test_exact_path_switches_at_exact_k_max():
    spec = spectrum("independent", 3, build_group("Z:2"))
    assert isinstance(l2n_sq_spectral(spec, bounds.EXACT_K_MAX), Fraction)
    assert isinstance(l2n_sq_spectral(spec, bounds.EXACT_K_MAX + 1), float)
    # collapsed sums: exact through FULL_ENUM_MAX; relaxed: a float at every n
    assert isinstance(l2n_sq_collapsed(2, bounds.FULL_ENUM_MAX, bounds.EXACT_K_MAX), Fraction)
    assert isinstance(l2n_sq_collapsed(2, bounds.FULL_ENUM_MAX + 1, 1), float)
    g = build_group("Z:2")
    for n in (1, 2, 12, 13, bounds.FULL_ENUM_MAX, bounds.FULL_ENUM_MAX + 1):
        for k in (0, 1, bounds.EXACT_K_MAX):
            assert isinstance(paired_relaxed_bound(g, n, k), float), (n, k)
    with pytest.raises(ValueError):
        power_sums(bounds._slot_atoms(2, 30, (bounds.J_WINDOW, bounds.FULL_ENUM_MAX)),
                   [1], exact=True)


def _relaxed_sum(g, n, k):
    """The full relaxed bound as one Fraction: (s/2) times every
    (n_1, content) row at (n_1 + content)/(n n_1), plus delta_n/4 at (n-1)/n."""
    s, delta = _paired(g, n)
    rows = content_rows(n)
    acc = Fraction(delta, 4) * Fraction(n - 1, n) ** (2 * k)
    for m in range(n + 1):
        w = Fraction(s, 2) * math.comb(n, m) * math.perm(n, n - m) * (g.order - 1) ** (n - m)
        acc += sum(w * d2 * Fraction(m + c, n * max(m, 1)) ** (2 * k)
                   for c, d2 in rows[m] if not (m == n and c == m * (m - 1)))
    return acc


@pytest.mark.parametrize("gname", ["Z:3", "S:3"])
def test_relaxed_windowed_upper_edge_covers_exact(monkeypatch, gname):
    # shrink the window so the n = 12 relaxed bound takes a real window,
    # whose upper edge must still cover the full relaxed sum
    g = build_group(gname)
    ks = [8, 12, 20, 40]
    exact = [_relaxed_sum(g, 12, k) for k in ks]
    monkeypatch.setattr(bounds, "FULL_ENUM_MAX", 10)
    monkeypatch.setattr(bounds, "J_WINDOW", 4)
    atoms = bounds._slot_atoms(g.order, 12, (4, 10), _paired(g, 12))
    assert atoms.tail.any() and atoms.weights is None
    for k, ex, (lo, hi) in zip(ks, exact, power_sums(atoms, ks)):
        got = paired_relaxed_bound(g, 12, k)
        assert isinstance(got, float) and got == hi
        assert lo <= float(ex) * (1 + 1e-9)
        assert hi >= float(ex) * (1 - 1e-9)


def test_sums_past_the_float_range_answer():
    # the k = 0 closed form and a slot sum with d^{2n} = 2^1200 used to
    # raise OverflowError; now they come out as inf and as a finite value
    curve = distance_curve("paired", 200, build_group("S:3"), ks=[0])
    assert curve.mode == "relaxed" and curve.rows[0]["l2n_sq"] == math.inf
    got = l2_lower_dominant([1, 2, 1], 600, 4000, "paired")
    # the d = 2 slot, 2^1200 (599/1200)^8000, is below e^-4700
    want = 0.5 * math.sqrt(max(600 ** 2 * 5 * (599 / 600) ** 16000, (599 / 600) ** 8000))
    assert got == pytest.approx(want, rel=1e-9)


def test_partition_table_matches_hooks_and_contents():
    for m in range(0, 10):
        table = partition_table(m)
        assert list(table) and set(table) == set(partitions_of(m))
        for lam, (d, c) in table.items():
            assert d == (dim_hook(lam) if lam else 1)
            assert c == content_sum(lam)


def test_content_rows_aggregate_the_table():
    rows = content_rows(12)
    assert len(rows) == 13
    for m, per_m in enumerate(rows):
        assert sum(d2 for _, d2 in per_m) == math.factorial(m)
        want = {}
        for lam in partitions_of(m):
            d = dim_hook(lam) if lam else 1
            want[content_sum(lam)] = want.get(content_sum(lam), 0) + d * d
        assert dict(per_m) == want


def test_partition_table_keeps_only_requested_levels():
    partition_table.cache_clear()
    assert dim_partition((5, 3, 1)) == dim_hook((5, 3, 1))
    assert partition_table.cache_info().currsize == 1


def test_sym_window_builds_no_small_slot_rows(monkeypatch):
    # |G| = 1 has the one slot n_1 = n; above FULL_ENUM_MAX no row of the
    # m <= FULL_ENUM_MAX table is used, so none of them is built
    tops = []
    monkeypatch.setattr(bounds, "content_rows", lambda top: tops.append(top) or content_rows(top))
    bounds._slot_atoms.cache_clear()
    lo, hi = bounds.l2n_sq_collapsed_bounds(1, 200, 600)
    assert 0 < lo <= hi and tops == [0]


def test_sym_spectrum_lines_by_content():
    # one line per content value, as the per-partition route gives it
    for n in range(1, 9):
        acc = {}
        for lam in partitions_of(n):
            val = Fraction(n + content_sum(lam), n * n) if n > 1 else Fraction(1)
            acc[val] = acc.get(val, 0) + dim_hook(lam) ** 2
        spec = spectrum("sym", n)
        assert {line.value: line.multiplicity for line in spec.lines} == acc


def _reference_window_atoms(g_order, n, window, paired=None):
    """The windowed collapsed atoms as they were built before the window
    shape was shared across base orders, kept as the bit-for-bit reference:
    one Python pass per mu |- j <= j_window with its first-row hooks summed
    as a generator, every block a part of one final concatenate."""
    full = min(n, max(window[1], 2 * window[0] + 2))
    slots = range(n + 1) if g_order > 1 else [n]
    table = content_rows(max((m for m in slots if m <= full), default=0))
    rows = [(m, c, d2) for m in slots if m <= full for c, d2 in table[m]
            if not (m == n and c == m * (m - 1))]
    half_s = Fraction(paired[0], 2) if paired else 1
    extra = ([Fraction(paired[1], 4)], [Fraction(n - 1, n)]) if paired else ([], [])
    lnf = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    ms = np.arange(n + 1)
    ln_w = (bounds._ln(half_s) + 2 * lnf[n] - 2 * lnf - lnf[::-1]
            + (n - ms) * math.log(max(g_order - 1, 1)))
    ln_scale = np.log(n * np.maximum(ms, 1)) if paired else np.full(n + 1, 2 * math.log(n))
    parts = [(np.array([bounds._ln(q) for q in extra[0]], dtype=float),
              np.array([bounds._ln(q) for q in extra[1]], dtype=float),
              np.zeros(len(extra[0]), dtype=bool))]

    def add(m, ln_d2, top, tail=False):
        with np.errstate(divide="ignore"):
            ln_y = np.log(np.abs(top)) - ln_scale[m]
        parts.append((ln_w[m] + ln_d2, ln_y, np.full(ln_y.shape, tail)))

    sizes = np.array([m for m, _, _ in rows], dtype=np.int64)
    add(sizes, np.array([math.log(d2) for _, _, d2 in rows]),
        sizes + np.array([c for _, c, _ in rows], dtype=np.int64))
    big = np.array([m for m in slots if m > full], dtype=np.int64)
    if big.size:
        j_window = window[0]
        for j in range(j_window + 1):
            level = partition_table(j)
            for mu in partitions_of(j):
                d_mu, c_mu = level[mu]
                mu1, conj = (mu[0] if mu else 0), conjugate(mu)
                ln_d = (lnf[big] - lnf[big - j - mu1] - lnf[j] + math.log(d_mu)
                        - sum(np.log(big - j - c + 1 + conj[c - 1]) for c in range(1, mu1 + 1)))
                c_lam = (big - j) * (big - j - 1) + c_mu - 2 * j
                own = big != n if j == 0 else slice(None)
                add(big[own], 2 * ln_d[own], (big + c_lam)[own])
                outside = big - 1 - len(mu) > j_window
                add(big[outside], 2 * ln_d[outside], (big - c_lam)[outside])
        mm = np.repeat(big, big - 1 - j_window)
        jj = np.concatenate([np.arange(j_window + 1, m) for m in big])
        top = mm + bounds._cmax_at_deficit(mm, jj)
        ok = top > 0
        mm, jj = mm[ok], jj[ok]
        ln_count = math.log(2.0) + 2 * (lnf[mm] - lnf[jj] - lnf[mm - jj]) + lnf[jj]
        add(mm, ln_count, top[ok], tail=True)
    return bounds.Atoms(*(np.concatenate(col) for col in zip(*parts)))


WINDOW = (bounds.J_WINDOW, bounds.FULL_ENUM_MAX)


@pytest.mark.parametrize("g_order,n,window,gname", [
    (2, 200, WINDOW, None), (1, 200, WINDOW, None), (720, 200, WINDOW, None),
    (2, 1000, WINDOW, None), (6, 200, WINDOW, "S:3"), (2, 41, WINDOW, None),
    (1, 45, WINDOW, None), (5, 45, WINDOW, "Z:5"), (2, 12, (4, 10), None),
    (6, 12, (4, 10), "S:3"),
])
def test_window_atoms_equal_the_reference_bit_for_bit(g_order, n, window, gname):
    paired = _paired(build_group(gname), n) if gname else None
    got = bounds._slot_atoms(g_order, n, window, paired)
    want = _reference_window_atoms(g_order, n, window, paired)
    assert got.tail.any() and got.weights is None
    for name in ("ln_w", "ln_y", "tail"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_window_shape_is_built_once_per_n():
    # Z:2, sym, the S:3 relaxed bound and |G| = 720 share one n = 200 shape
    bounds._slot_atoms.cache_clear()
    bounds._window_shape.cache_clear()
    l2n_sq_collapsed_bounds(2, 200, 600)
    l2n_sq_collapsed_bounds(1, 200, 600)
    paired_relaxed_bound(build_group("S:3"), 200, 1200)
    l2n_sq_collapsed_bounds(720, 200, 1200)
    assert bounds._slot_atoms.cache_info().misses == 4
    assert bounds._window_shape.cache_info().misses == 1


@pytest.mark.parametrize("gname", ["Z:1", "Z:2", "S:3"])
def test_relaxed_atoms_at_n_equal_to_full_equal_the_reference(gname):
    # windowed relaxed atoms at n = 20 <= FULL_ENUM_MAX: table rows only, the
    # trivial line [n] dropped from the shared table block
    g = build_group(gname)
    got = bounds._slot_atoms(g.order, 20, WINDOW, _paired(g, 20))
    want = _reference_window_atoms(g.order, 20, WINDOW, _paired(g, 20))
    for name in ("ln_w", "ln_y", "tail"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_table_rows_are_logged_once_per_full(monkeypatch):
    # the windowed calls of the cutoff experiments (Z:2, the S:3 relaxed bound
    # and |G| = 720 at n = 200, Z:2 at n = 1000) share one m <= 40 table block
    tops = []
    monkeypatch.setattr(bounds, "content_rows", lambda top: tops.append(top) or content_rows(top))
    bounds._slot_atoms.cache_clear()
    bounds._table_logs.cache_clear()
    l2n_sq_collapsed_bounds(2, 200, 600)
    paired_relaxed_bound(build_group("S:3"), 200, 1200)
    l2n_sq_collapsed_bounds(720, 200, 1200)
    l2n_sq_collapsed_bounds(2, 1000, 4000)
    assert bounds._slot_atoms.cache_info().misses == 4
    assert bounds._table_logs.cache_info().misses == 1 and tops == [bounds.FULL_ENUM_MAX]


@pytest.mark.parametrize("n", [41, 45])
@pytest.mark.parametrize("g_order", [1, 2, 720])
def test_real_window_sandwiches_the_exact_sum(n, g_order):
    # the windowed bracket at J_WINDOW, FULL_ENUM_MAX against every row exactly
    ks = [n, 3 * n, 7 * n]
    exact = power_sums(bounds._slot_atoms(g_order, n, None), ks, exact=True)
    for k, ex, (lo, hi) in zip(ks, exact, power_sums(bounds._atoms(g_order, n), ks)):
        assert lo <= float(ex) * (1 + 1e-9), k
        assert hi >= float(ex) * (1 - 1e-9), k
