"""The one l2 evaluator: atoms built once per curve, exact and float paths
of power_sums, windowed upper edges, and the shared partition table."""
import decimal
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


def test_exact_power_sums_step_to_unsorted_repeated_and_gapped_ks():
    # the stepped terms against a direct sum per k, on the collapsed sym
    # and independent atoms and a paired spectrum
    ks = [64, 0, 7, 7, 1, 33]
    cases = [bounds._slot_atoms(1, n, None) for n in range(1, 31)]
    cases += [bounds._slot_atoms(g_order, n, None) for g_order in (2, 3) for n in range(1, 21)]
    cases.append(spectral_atoms(spectrum("paired", 6, build_group("S:3"))))
    for atoms in cases:
        want = [Fraction(sum(w * y ** (2 * k) for w, y in zip(atoms.weights, atoms.nums)),
                         atoms.den ** (2 * k)) for k in ks]
        assert power_sums(atoms, ks, exact=True) == want


def test_exact_atoms_build_their_logs_on_the_first_float_read():
    weights, nums = [3, 5, 2 ** 300], [4, -7, 0]
    atoms = bounds.exact_atoms(weights, nums, 9)
    (logs,) = atoms.blocks
    power_sums(atoms, [0, 5], exact=True)
    assert logs.cache_info().currsize == 0
    power_sums(atoms, [1, 2])
    power_sums(atoms, [3])
    assert logs.cache_info().misses == 1
    m, ln_w, ln_y = logs()
    assert m is None
    assert ln_w.tolist() == [math.log(3), math.log(5), 300 * math.log(2)]
    assert ln_y.tolist() == [math.log(4) - math.log(9), math.log(7) - math.log(9), -math.inf]


@pytest.mark.parametrize("dims", [[1, 1, 1], [1, 1, 2], [1, 1, 2, 3, 3], [1] * 5])
def test_the_dominant_column_is_its_one_k_values(dims):
    ks = list(range(161))
    for n in (3, 10):
        for kind in ("independent", "paired"):
            want = [l2_lower_dominant(dims, n, k, kind) for k in ks]
            assert bounds._dominant_column(dims, n, ks, kind) == want


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
    assert atoms.units and atoms.weights is None
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


@pytest.mark.parametrize("top", [-650, -1, 100, 650])
@pytest.mark.parametrize("s", [1.37, 1234.567])
def test_a_total_is_within_2_ulps_of_e_to_the_top_times_its_sum(top, s):
    # e^top s, not e^(top + ln s), which is resolved only to ulp(top + ln s)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = float(decimal.Decimal(top).exp() * decimal.Decimal(s))
    got = bounds._total([(float(top), s)])
    assert abs(got - want) <= 2 * math.ulp(want)
    assert bounds._total([(float(top), s), (top - 800.0, 3.0), (-math.inf, 0.0)]) == got


def test_a_total_past_the_float_range_is_inf_or_tiny():
    assert bounds._total([(800.0, 1.5)]) == math.inf
    assert bounds._total([(-705.0, 1.5)]) == pytest.approx(1.5 * math.exp(-705.0), rel=1e-12)
    assert bounds._total([(-math.inf, 0.0)]) == 0.0 == bounds._total([])


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
    lo, hi = bounds.l2n_sq_collapsed_bounds(1, 200, 600)
    assert 0 < lo <= hi and tops == []


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
    as a generator, every block a part of one final concatenate; the window
    atoms then put slot size by slot size, n down, by a stable sort."""
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

    sizes, slot_sizes = np.array([m for m, _, _ in rows], dtype=np.int64), []
    add(sizes, np.array([math.log(d2) for _, _, d2 in rows]),
        sizes + np.array([c for _, c, _ in rows], dtype=np.int64))
    big = np.array([m for m in slots if m > full], dtype=np.int64)
    if big.size:
        j_window, table_parts = window[0], len(parts)
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
                slot_sizes += [big[own], big[outside]]
        by_slot = np.argsort(-np.concatenate(slot_sizes), kind="stable")
        parts[table_parts:] = [tuple(np.concatenate(col)[by_slot] for col in zip(*parts[table_parts:]))]
        mm = np.repeat(big, big - 1 - j_window)
        jj = np.concatenate([np.arange(j_window + 1, m) for m in big])
        top = mm + bounds._cmax_at_deficit(mm, jj)
        ok = top > 0
        mm, jj = mm[ok], jj[ok]
        ln_count = math.log(2.0) + 2 * (lnf[mm] - lnf[jj] - lnf[mm - jj]) + lnf[jj]
        add(mm, ln_count, top[ok], tail=True)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _every_read(atoms, ks):
    """_reads' answer where every unit of every run is read at every k."""
    return ([np.full((len(ks), len(c)), c.shape[1]) for _, c, _ in atoms.units.sections()],
            [(-math.inf, 0.0)] * len(ks))


def _streamed(atoms):
    """(ln w, ln |y|) of the atoms and of every table and window unit,
    their chunks concatenated."""
    blocks = list(atoms.blocks)
    if atoms.units:
        blocks += [block for block, _ in atoms.units.blocks(_every_read(atoms, [1])[0])]
    chunks = (chunk for block in blocks for chunk in bounds._block_chunks(atoms, block))
    return tuple(np.concatenate(col) for col in zip(*chunks))


def _every_majorant(atoms):
    """The majorants of every tail segment unit, in chunks."""
    return atoms.units.majorants(atoms, _every_read(atoms, [1])[0][-1].max(0))


def _assert_atoms_equal_the_reference(atoms, want):
    # bit for bit: the atoms, and every tail majorant as a pass that cuts
    # nothing streams them (a pass cuts per k; the cut sum is checked below)
    ln_w, ln_y, tail = want
    for name, a, b in zip(("ln_w", "ln_y"), _streamed(atoms), (ln_w[~tail], ln_y[~tail])):
        assert np.array_equal(a, b), name
    every = _every_majorant(atoms) if atoms.units else []
    for name, a, b in zip(("tail ln_w", "tail ln_y"), zip(*every), (ln_w[tail], ln_y[tail])):
        assert np.array_equal(np.concatenate(a), b), name


WINDOW = (bounds.J_WINDOW, bounds.FULL_ENUM_MAX)
OFFSETS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)     # the benchmark's cutoff offsets, in units of n


@pytest.mark.parametrize("g_order,n,window,gname", [
    (2, 200, WINDOW, None), (1, 200, WINDOW, None), (720, 200, WINDOW, None),
    (2, 1000, WINDOW, None), (6, 200, WINDOW, "S:3"), (2, 41, WINDOW, None),
    (1, 45, WINDOW, None), (5, 45, WINDOW, "Z:5"), (2, 12, (4, 10), None),
    (6, 12, (4, 10), "S:3"),
])
def test_window_atoms_equal_the_reference_bit_for_bit(g_order, n, window, gname):
    paired = _paired(build_group(gname), n) if gname else None
    atoms = bounds._slot_atoms(g_order, n, window, paired)
    assert atoms.units and atoms.weights is None
    _assert_atoms_equal_the_reference(atoms, _reference_window_atoms(g_order, n, window, paired))


def test_window_shape_is_built_once_per_n(monkeypatch):
    # Z:2, sym, the S:3 relaxed bound and |G| = 720 share one n = 200 shape,
    # and each slot size of it is built once
    bounds._window_shape.cache_clear()
    built = _count_slot_builds(monkeypatch)
    l2n_sq_collapsed_bounds(2, 200, 600)
    l2n_sq_collapsed_bounds(1, 200, 600)
    paired_relaxed_bound(build_group("S:3"), 200, 1200)
    l2n_sq_collapsed_bounds(720, 200, 1200)
    assert bounds._window_shape.cache_info().misses == 1
    assert built and len(set(built)) == len(built)


@pytest.mark.parametrize("gname", ["Z:1", "Z:2", "S:3"])
def test_relaxed_atoms_at_n_equal_to_full_equal_the_reference(gname):
    # windowed relaxed atoms at n = 20 <= FULL_ENUM_MAX: table rows only, the
    # trivial line [n] dropped from the shared table block
    g = build_group(gname)
    atoms = bounds._slot_atoms(g.order, 20, WINDOW, _paired(g, 20))
    assert atoms.units is None
    want = _reference_window_atoms(g.order, 20, WINDOW, _paired(g, 20))
    _assert_atoms_equal_the_reference(atoms, want)


def test_table_rows_are_logged_once_per_full(monkeypatch):
    # windowed calls far before the cutoff (Z:2, the S:3 relaxed bound and
    # |G| = 720 at n = 200, Z:2 at n = 1000, all at k = n/4) read the m <= 40
    # table block, and share one
    tops = []
    monkeypatch.setattr(bounds, "content_rows", lambda top: tops.append(top) or content_rows(top))
    bounds._table_logs.cache_clear()
    l2n_sq_collapsed_bounds(2, 200, 50)
    paired_relaxed_bound(build_group("S:3"), 200, 50)
    l2n_sq_collapsed_bounds(720, 200, 50)
    l2n_sq_collapsed_bounds(2, 1000, 250)
    assert bounds._table_logs.cache_info().misses == 1 and tops == [bounds.FULL_ENUM_MAX]


def _count_table_reads(monkeypatch):
    tops, reads = [], []
    monkeypatch.setattr(bounds, "content_rows", lambda top: tops.append(top) or content_rows(top))
    table_logs = bounds._table_logs
    monkeypatch.setattr(bounds, "_table_logs", lambda full: reads.append(full) or table_logs(full))
    return tops, reads


def test_cutoff_window_brackets_read_no_table_rows(monkeypatch):
    # at the cutoff the m <= 40 table block is below 2^-60 of the [n-1]
    # atom: the benchmark's windowed brackets neither build nor read it
    bounds._table_logs.cache_clear()
    tops, reads = _count_table_reads(monkeypatch)
    for g_order in (2, 720):
        for c in OFFSETS:
            lo, hi = l2n_sq_collapsed_bounds(g_order, 200, _k0(g_order, 200) + math.ceil(c * 200))
            assert 0 < lo <= hi < math.inf
    curve = distance_curve("paired", 200, build_group("S:3"), ks=list(range(1000, 1401, 100)))
    assert curve.mode == "relaxed"
    l2n_sq_collapsed_bounds(2, 1000, _k0(2, 1000) - 500)
    hi, bound = bounds.envelope_decay_certificate(720, 200, 1.0)
    assert hi <= bound
    assert tops == [] and reads == []


@pytest.mark.parametrize("g_order,gname", [(2, None), (720, None), (6, "S:3")])
def test_the_table_is_read_at_n_41_and_at_k_1(monkeypatch, g_order, gname):
    # at n = 41 the [n-1] atom is a table row, so every k reads the table;
    # above it k = 1 does, where the table holds most of the sum.  k = 0 is
    # the atoms' zero and reads nothing
    _, reads = _count_table_reads(monkeypatch)
    g = build_group(gname) if gname else None
    for n, k in [(41, 1), (41, 41), (41, 3 * 41), (41, 100 * 41), (42, 1), (200, 1), (1000, 1)]:
        reads.clear()
        atoms = bounds._atoms(g_order, n, _paired(g, n) if g else None)
        power_sums(atoms, [k])
        assert reads == [bounds.FULL_ENUM_MAX], (n, k)
    reads.clear()
    atoms = bounds._atoms(g_order, 200, _paired(g, 200) if g else None)
    assert power_sums(atoms, [0]) == [(atoms.zero, atoms.zero)]
    assert reads == []


@pytest.mark.parametrize("n", [41, 45])
@pytest.mark.parametrize("g_order", [1, 2, 720])
def test_real_window_sandwiches_the_exact_sum(n, g_order):
    # the windowed bracket at J_WINDOW, FULL_ENUM_MAX against every row exactly
    ks = [n, 3 * n, 7 * n]
    exact = power_sums(bounds._slot_atoms(g_order, n, None), ks, exact=True)
    for k, ex, (lo, hi) in zip(ks, exact, power_sums(bounds._atoms(g_order, n), ks)):
        assert lo <= float(ex) * (1 + 1e-9), k
        assert hi >= float(ex) * (1 - 1e-9), k


def _materialized_power_sums(atoms, ks):
    """(lower, upper) per k in one log-sum-exp over whole (ln w, ln |y|,
    tail) arrays, as the evaluator ran before it streamed its chunks."""
    ln_w, ln_y, tail = atoms

    def exp_sum(t):
        top = t.max(initial=-math.inf)
        return 0.0 if top == -math.inf else math.exp(top + math.log(np.exp(t - top).sum()))

    out = []
    for k in ks:
        t = ln_y * (2 * k) + ln_w
        lo = exp_sum(t[~tail])
        out.append((lo, lo + exp_sum(t[tail])))
    return out


@pytest.mark.parametrize("g_order,n,gname", [
    (2, 100, None), (720, 100, None), (2, 200, None), (720, 200, None),
    (2, 1000, None), (720, 1000, None), (6, 200, "S:3"),
])
def test_streamed_power_sums_match_a_materialized_evaluation(g_order, n, gname):
    # the chunked running sums against one pass over the reference atoms,
    # at the cutoff-window offsets of the benchmark's brackets
    paired = _paired(build_group(gname), n) if gname else None
    extra = 0.25 * n * math.log(g_order - 1) if g_order > 1 else 0.0
    ks = [math.ceil(0.5 * n * math.log(n) + extra + c * n) for c in (-0.5, 0.0, 1.0, 2.0)]
    if paired:
        ks = [2 * k for k in ks]
    got = power_sums(bounds._slot_atoms(g_order, n, WINDOW, paired), ks)
    want = _materialized_power_sums(_reference_window_atoms(g_order, n, WINDOW, paired), ks)
    for k, (lo, hi), (lo_want, hi_want) in zip(ks, got, want):
        assert 0 < lo_want <= hi_want < math.inf, k
        assert abs(lo - lo_want) <= 1e-13 * lo_want, k
        assert abs(hi - hi_want) <= 1e-13 * hi_want, k


def _k0(g_order, n):
    extra = 0.25 * n * math.log(g_order - 1) if g_order > 1 else 0.0
    return math.ceil(0.5 * n * math.log(n) + extra)


@pytest.mark.parametrize("n", [41, 45, 200, 1000])
@pytest.mark.parametrize("g_order,gname", [(1, None), (2, None), (720, None), (6, "S:3")])
def test_cut_tail_is_within_2_to_the_minus_50_lo_of_every_majorant(g_order, gname, n):
    # the cut tail and its certificate against the sum of every per-j
    # majorant of the reference, at the benchmark's cutoff offsets and at
    # k = n, 3n, far before the cutoff, where the tail can dwarf lo
    paired = _paired(build_group(gname), n) if gname else None
    ks = [_k0(g_order, n) + math.ceil(c * n) for c in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    ks = [2 * k for k in ks] if paired else ks
    ln_w, ln_y, tail = _reference_window_atoms(g_order, n, WINDOW, paired)
    atoms = bounds._slot_atoms(g_order, n, WINDOW, paired)
    for k, (lo, hi) in zip(ks + [n, 3 * n], power_sums(atoms, ks + [n, 3 * n])):
        assert (lo, hi) == power_sums(atoms, [k])[0], k          # k alone decides
        t = ln_y * (2 * k) + ln_w
        ln_lo, ln_tail = _ln_sum(t[~tail]), _ln_sum(t[tail])    # the tail: every majorant
        if max(ln_lo, ln_tail) > 709:                            # past the float range
            assert hi == math.inf, k
            continue
        assert abs(math.log(lo) - ln_lo) <= 1e-13, k
        hi_full = lo + _linear_sum(t[tail])
        assert hi_full * (1 - 1e-15) <= hi <= hi_full * (1 + 1e-15) + 2 ** -50 * lo, k


def _read_at_every_k(monkeypatch, *sections):
    """Make _reads read every unit of the given _unit_terms sections (0:
    the table levels, 1: the window slot sizes) at every k, by certificates
    of +inf; the other units are read or certified as before."""
    unit_terms = bounds._unit_terms

    def patched(*args):
        got = list(unit_terms(*args))
        for at in sections:
            m, ln_c, ln_y = got[at]
            got[at] = m, np.full_like(ln_c, math.inf), ln_y
        return tuple(got)
    monkeypatch.setattr(bounds, "_unit_terms", patched)


def _gate_ks(g_order, paired, n):
    """k = 1, n/4, n, 3n and the benchmark's cutoff offsets (doubled for the
    relaxed bound, whose cutoff is twice as far)."""
    ks = [_k0(g_order, n) + math.ceil(c * n) for c in OFFSETS]
    return [1, n // 4, n, 3 * n] + ([2 * k for k in ks] if paired else ks)


@pytest.mark.parametrize("n", [42, 45, 60, 200, 1000])
@pytest.mark.parametrize("g_order,gname", [(2, None), (3, None), (720, None), (6, "S:3")])
def test_a_skipped_table_is_certified_against_the_read_one(monkeypatch, g_order, gname, n):
    # a k that skips the table levels takes their certificate instead, which
    # bounds them (with the window slot sizes and tail segments the k skips,
    # one certificate): lo may only fall and hi only rise, each by at most
    # 2^-60 lo and an ulp
    paired = _paired(build_group(gname), n) if gname else None
    ks = _gate_ks(g_order, paired, n)
    atoms = bounds._atoms(g_order, n, paired)
    gated = power_sums(atoms, ks)
    reads, certs = bounds._reads(atoms, ks)
    skipped = [not read for read in reads[0][:, 0].tolist()]    # the table levels' one run
    assert not skipped[0] and any(skipped) == (n >= 60)     # at n = 42, 45 every k reads it
    chunks = bounds._block_chunks(atoms, bounds._table_logs(bounds.FULL_ENUM_MAX))
    ln_w, ln_y = (np.concatenate(col) for col in zip(*chunks))
    for k, skip, cert, got in zip(ks, skipped, certs, gated):
        assert got == power_sums(atoms, [k])[0], k              # k alone decides
        if skip:
            ln_cert = cert[0] + math.log(cert[1])
            assert _ln_sum(ln_y * (2 * k) + ln_w) <= ln_cert < math.log(got[0]) - 60 * math.log(2), k
    # against the pass that reads the table at every k and gates the window as before
    _read_at_every_k(monkeypatch, 0)
    for k, skip, (lo, hi), (lo_read, hi_read) in zip(ks, skipped, gated, power_sums(atoms, ks)):
        if not skip:
            assert (lo, hi) == (lo_read, hi_read), k
            continue
        assert 0 < lo <= lo_read and hi >= hi_read, k
        if hi_read < math.inf:                                   # else past the float range
            assert lo_read - lo <= 2 ** -60 * lo + math.ulp(lo), k
            assert hi - hi_read <= 2 ** -60 * lo + math.ulp(hi_read), k


GATE_GRID = [(n, g_order, gname) for n in (41, 45, 60, 200, 1000)
             for g_order, gname in ((2, None), (3, None), (720, None), (6, "S:3"))]


@pytest.mark.parametrize("n,g_order,gname", GATE_GRID)
def test_a_window_slot_certificate_bounds_its_atoms(n, g_order, gname):
    # per unit and k, the closed form _reads compares is at least the sum of
    # the unit's own atoms: a table level's rows, a window slot size's atoms,
    # own and conjugate, and a tail segment's majorants
    paired = _paired(build_group(gname), n) if gname else None
    ks = _gate_ks(g_order, paired, n) + [10 * n]
    atoms = bounds._atoms(g_order, n, paired)
    sections = atoms.units.sections()
    table, window = (block for block, _ in atoms.units.blocks(_every_read(atoms, [1])[0]))
    ln_w, ln_y, slot, seg = (np.concatenate(col) for col in zip(*_every_majorant(atoms)))
    units = [(*_streamed_block(atoms, table), table[0]),                # per level m
             (*_streamed_block(atoms, window), n - window[0].astype(np.int64)),  # slot n down
             (ln_w, ln_y, slot * sections[2][1].shape[1] + seg)]        # per (slot, segment)
    for at, ((m, ln_c, ln_y), (ln_w, ln_y_atoms, unit)) in enumerate(zip(sections, units)):
        starts = np.flatnonzero(np.diff(unit, prepend=-1))              # units in order
        assert len(starts) == ln_c[..., 0].size or at == 2              # a segment may be empty
        for k in ks:
            t = atoms.ln_w[m] + ln_c + 2 * k * (ln_y - atoms.ln_scale[m])
            ln_cert = np.logaddexp.reduce(t, -1)
            got = np.logaddexp.reduceat(ln_y_atoms * (2 * k) + ln_w, starts)
            assert (got <= ln_cert.ravel()[unit[starts]]).all(), (k, m.size)


def _streamed_block(atoms, block):
    """(ln w, ln |y|) of one block, its chunks concatenated."""
    return (np.concatenate(col) for col in zip(*bounds._block_chunks(atoms, block)))


@pytest.mark.parametrize("n,g_order,gname", GATE_GRID)
def test_a_gated_pass_is_within_2_to_the_minus_60_lo_of_every_slot_read(monkeypatch, n, g_order,
                                                                       gname):
    # against a pass that reads every table level and window slot size: each
    # edge within 2^-60 lo and 2 ulps, lo never above and hi never below by
    # more than 2 ulps
    paired = _paired(build_group(gname), n) if gname else None
    ks = _gate_ks(g_order, paired, n)
    atoms = bounds._atoms(g_order, n, paired)
    gated = power_sums(atoms, ks)
    _read_at_every_k(monkeypatch, 0, 1)
    for k, (lo, hi), (lo_all, hi_all) in zip(ks, gated, power_sums(atoms, ks)):
        if hi_all == math.inf:                                   # past the float range
            assert hi == math.inf and (lo == math.inf) == (lo_all == math.inf), k
            continue
        assert 0 < lo <= lo_all + 2 * math.ulp(lo_all) and hi >= hi_all - 2 * math.ulp(hi_all), k
        assert abs(lo - lo_all) <= 2 ** -60 * lo_all + 2 * math.ulp(lo_all), k
        assert abs(hi - hi_all) <= 2 ** -60 * lo_all + 2 * math.ulp(hi_all), k


@pytest.mark.parametrize("n,g_order,gname", GATE_GRID)
def test_a_gated_bracket_depends_on_its_k_alone(n, g_order, gname):
    # mixed, unsorted and repeated ks read different prefixes of the window
    # in one pass, and each gets its single-k bracket to the bit
    paired = _paired(build_group(gname), n) if gname else None
    ks = [3 * n, n, 0, 3 * n, 1] + _gate_ks(g_order, paired, n)[::-1]
    atoms = bounds._atoms(g_order, n, paired)
    assert power_sums(atoms, ks) == [power_sums(atoms, [k])[0] for k in ks]


def _count_slot_builds(monkeypatch):
    """Record (n, m) of every window slot size built."""
    built, build = [], bounds.Window._build

    def counted(self, big, out):
        built.extend((self.n, m) for m in big.tolist())
        return build(self, big, out)
    monkeypatch.setattr(bounds.Window, "_build", counted)
    return built


@pytest.mark.parametrize("n", [45, 200, 1000])
def test_sym_reads_and_builds_slot_n_only(monkeypatch, n):
    bounds._window_shape.cache_clear()
    built = _count_slot_builds(monkeypatch)
    ks = [1, n, 3 * n, _k0(1, n)]
    atoms = bounds._atoms(1, n)
    reads, _ = bounds._reads(atoms, ks)
    assert atoms.units.blocks(reads)[-1][1] == [atoms.units.window.per_slot - 1] * len(ks)
    assert all(0 < lo <= hi for lo, hi in power_sums(atoms, ks))
    assert built == [(n, n)]
    bounds._window_shape.cache_clear()


def test_a_bracket_near_the_n_1000_cutoff_builds_few_slot_sizes(monkeypatch):
    bounds._window_shape.cache_clear()
    built = _count_slot_builds(monkeypatch)
    lo, hi = l2n_sq_collapsed_bounds(2, 1000, _k0(2, 1000) - 500)
    assert 0 < lo < hi and 0 < len(built) <= 48
    assert sorted(built, reverse=True) == [(1000, m) for m in range(1000, 1000 - len(built), -1)]
    bounds._window_shape.cache_clear()


def test_the_cutoff_window_sequence_builds_each_slot_size_once(monkeypatch, capsys):
    # the benchmark's cutoff-window operations in order, from a cold shape
    from wreathwalk.cli import main
    bounds._window_shape.cache_clear()
    built = _count_slot_builds(monkeypatch)
    assert main("distance --group Z:2 --n 200 --walk independent --k 400..800:50".split()) == 0
    assert main("distance --group S:3 --n 200 --walk paired --k 1000..1400:100".split()) == 0
    for g_order in (2, 720):
        for c in OFFSETS:
            l2n_sq_collapsed_bounds(g_order, 200, _k0(g_order, 200) + math.ceil(c * 200))
    bounds.envelope_decay_certificate(720, 200, 1.0)
    l2n_sq_collapsed_bounds(2, 1000, _k0(2, 1000) - 500)
    for k in (1, 15, 30, 60):
        l2n_sq_collapsed_bounds(2, 12, k)
    capsys.readouterr()
    assert built and len(set(built)) == len(built)
    assert {n for n, _ in built} == {200, 1000}
    bounds._window_shape.cache_clear()


@pytest.mark.parametrize("history", [(990, 950, 995, 41), (41, 990), (600, 601, 599, 300)])
def test_an_extended_window_builds_only_new_slot_sizes_and_equals_a_fresh_one(monkeypatch,
                                                                                 history):
    n, full = 1000, bounds.FULL_ENUM_MAX
    shape = bounds.Window(n, bounds.J_WINDOW, full)
    fresh = {m: bounds.Window(n, bounds.J_WINDOW, full)(shape.stop(m)) for m in history}
    built = _count_slot_builds(monkeypatch)
    for at, m_min in enumerate(history):
        got = shape(shape.stop(m_min))
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh[m_min])), m_min
        low = max(min(history[:at + 1]), full + 1)
        assert [m for _, m in built] == list(range(n, low - 1, -1)), m_min


def _ln_sum(t):
    """ln sum e^t in one pass, -inf if empty."""
    top = t.max(initial=-math.inf)
    return top if top == -math.inf else top + math.log(np.exp(t - top).sum())


def _linear_sum(t):
    """sum e^t in one pass as _total forms it, e^top times the sum of
    e^(t - top): e^(top + ln sum) would be resolved only to ulp(top + ln sum)."""
    top = t.max(initial=-math.inf)
    return 0.0 if top == -math.inf else math.exp(top) * np.exp(t - top).sum()


def _count_majorants(monkeypatch):
    seen = []
    majorants = bounds.Units.majorants

    def counted(units, atoms, reads):
        for chunk in majorants(units, atoms, reads):
            seen.append(len(chunk[0]))
            yield chunk
    monkeypatch.setattr(bounds.Units, "majorants", counted)
    return seen


def test_a_pass_evaluates_few_of_the_tail_majorants(monkeypatch):
    # at n = 1000 the tail has 467 216 per-j majorants; a bracket half a
    # cutoff window early evaluates under 5 % of them, and at n = 200 one
    # where the tail is 10^55 times lo evaluates no more than all 15 632
    every = {}
    for n in (200, 1000):
        every[n] = sum(len(chunk[0]) for chunk in _every_majorant(bounds._atoms(2, n)))
    assert every == {200: 15632, 1000: 467216}
    seen = _count_majorants(monkeypatch)
    for n, k, share in [(1000, _k0(2, 1000) - 500, 0.05), (200, _k0(2, 200) - 200, 1.0)]:
        seen.clear()
        lo, hi = power_sums(bounds._atoms(2, n), [k])[0]
        assert 0 < lo < hi and 0 < sum(seen) <= share * every[n], n
    assert hi > 1e50 * lo


def test_a_pass_builds_each_majorant_once_for_all_its_ks(monkeypatch):
    # a bracket depends on its k alone, and a pass builds the union of its
    # ks' majorants once: k = 330 twice costs no more than once
    seen = _count_majorants(monkeypatch)
    atoms = bounds._atoms(2, 200)
    singles, built = [], []
    for k in (330, 600):
        seen.clear()
        singles += power_sums(atoms, [k])
        built.append(sum(seen))
    seen.clear()
    assert power_sums(atoms, [330, 600, 330]) == [singles[0], singles[1], singles[0]]
    assert 0 < max(built) <= sum(seen) <= sum(built)


def _count_folds(monkeypatch):
    """Record the ks of every chunk the float evaluator folds."""
    folds, fold = [], bounds._fold
    monkeypatch.setattr(bounds, "_fold", lambda ln_w, ln_y, ks, *rest: (
        folds.append(list(ks)) or fold(ln_w, ln_y, ks, *rest)))
    return folds


def test_a_curve_with_k_0_is_the_curve_without_it_and_the_closed_form(monkeypatch):
    # no chunk of the windowed atoms is folded at k = 0: the only k = 0
    # folds are the dominant column's, over its exact atoms
    folds = _count_folds(monkeypatch)
    for kind, gname, n, at_zero in [
        ("independent", "Z:2", 60, float(2 ** 60 * math.factorial(60) - 1)),
        ("paired", "S:3", 50, 4.0 * float(Fraction(3, 2) * (6 ** 50 * math.factorial(50) - 1)
                                          + Fraction(bounds.delta_n(build_group("S:3"), 50), 4))),
    ]:
        g = build_group(gname)
        folds.clear()
        with_zero = distance_curve(kind, n, g, ks=[0, 300, 900])
        at_zero_folds = [ks for ks in folds if 0 in ks]
        assert folds and len(at_zero_folds) < len(folds)
        folds.clear()
        bounds._dominant_column(g.irrep_dims(), n, [0, 300, 900], kind)
        assert at_zero_folds == folds
        assert with_zero.rows[1:] == distance_curve(kind, n, g, ks=[300, 900]).rows
        assert with_zero.rows[0]["l2n_sq"] == pytest.approx(at_zero, rel=1e-12)


@pytest.mark.parametrize("g_order,n,gname", [
    (2, 200, None), (720, 200, None), (720, 1000, None), (1, 200, None),   # windowed collapsed
    (6, 200, "S:3"), (6, 50, "S:3"), (2, 41, "Z:2"), (720, 1000, "S:6"),   # windowed relaxed
    (2, 20, None), (3, 40, None), (1, 30, None),                           # exact collapsed
])
def test_k_0_is_the_atoms_zero_and_makes_no_pass(monkeypatch, g_order, n, gname):
    # the weights' total in closed form, |G|^n n! - 1 (relaxed: (s/2) of it
    # plus delta_n/4), a float, inf past the float range: power_sums reads
    # it at k = 0 with no table read and no chunk folded
    paired = _paired(build_group(gname), n) if gname else None
    total = g_order ** n * math.factorial(n) - 1
    if paired:
        total = Fraction(paired[0], 2) * total + Fraction(paired[1], 4)
    try:
        want = float(total)
    except OverflowError:
        want = math.inf
    atoms = bounds._atoms(g_order, n, paired)
    _, reads = _count_table_reads(monkeypatch)
    folds = _count_folds(monkeypatch)
    assert atoms.zero == want
    assert power_sums(atoms, [0]) == [(want, want)]
    assert reads == [] and folds == []
    mixed = power_sums(atoms, [0, n, 0])
    assert mixed == [(want, want), power_sums(atoms, [n])[0], (want, want)]
    assert folds and not any(0 in ks for ks in folds)
    if atoms.weights is not None:                       # the exact total is the zero's
        assert power_sums(atoms, [0], exact=True) == [total]
    elif want < math.inf:                               # a pass at k = 0 brackets it
        lo, hi = power_sums(atoms._replace(zero=None), [0])[0]
        assert lo <= want * (1 + 1e-12) and hi >= want * (1 - 1e-12)
