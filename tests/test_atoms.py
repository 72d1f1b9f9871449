"""The one l2 evaluator: atoms built once per curve, exact and float paths
of power_sums, windowed upper edges, and the shared partition table."""
import math
from fractions import Fraction

import pytest

from wreathwalk import bounds
from wreathwalk.bounds import (
    distance_curve,
    l2n_sq_collapsed,
    paired_relaxed_bound,
    power_sums,
    tv_lower_dominant,
    tv_upper_coupling,
    tv_upper_spectral,
)
from wreathwalk.groups import build_group
from wreathwalk.partitions import (
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
def test_float_path_matches_exact_relaxed(gname):
    g = build_group(gname)
    _assert_float_matches_exact(bounds._slot_atoms(g.order, 12, None, _paired(g, 12)))


def test_exact_path_switches_at_exact_k_max():
    spec = spectrum("independent", 3, build_group("Z:2"))
    assert isinstance(l2n_sq_spectral(spec, bounds.EXACT_K_MAX), Fraction)
    assert isinstance(l2n_sq_spectral(spec, bounds.EXACT_K_MAX + 1), float)
    # collapsed sums: exact through FULL_ENUM_MAX; relaxed: through EXACT_N_MAX
    assert isinstance(l2n_sq_collapsed(2, bounds.FULL_ENUM_MAX, bounds.EXACT_K_MAX), Fraction)
    assert isinstance(l2n_sq_collapsed(2, bounds.FULL_ENUM_MAX + 1, 1), float)
    g = build_group("Z:2")
    assert isinstance(paired_relaxed_bound(g, bounds.EXACT_N_MAX, bounds.EXACT_K_MAX), Fraction)
    assert isinstance(paired_relaxed_bound(g, bounds.EXACT_N_MAX + 1, 1), float)
    with pytest.raises(ValueError):
        power_sums(bounds._slot_atoms(2, 30, (bounds.J_WINDOW, bounds.FULL_ENUM_MAX)),
                   [1], exact=True)


@pytest.mark.parametrize("gname", ["Z:3", "S:3"])
def test_relaxed_windowed_upper_edge_covers_exact(monkeypatch, gname):
    # shrink the window so the n = 12 relaxed bound takes the windowed
    # path, whose upper edge must still cover the exact relaxed sum
    g = build_group(gname)
    ks = [8, 12, 20, 40]
    exact = [paired_relaxed_bound(g, 12, k) for k in ks]
    assert all(isinstance(v, Fraction) for v in exact)
    monkeypatch.setattr(bounds, "FULL_ENUM_MAX", 10)
    monkeypatch.setattr(bounds, "J_WINDOW", 4)
    monkeypatch.setattr(bounds, "EXACT_N_MAX", 11)
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
    got = tv_lower_dominant([1, 2, 1], 600, 4000, "paired")
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
