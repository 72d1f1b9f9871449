"""Bound chains: collapsed sum, windowed certificates, relaxed paired
bound, Chebyshev/dominant/coupling witnesses, thresholds."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathwalk import bounds
from wreathwalk.bounds import (
    delta_n,
    distance_curve,
    envelope_decay_certificate,
    independent_envelope_holds,
    l2_lower_dominant,
    l2n_sq_collapsed,
    l2n_sq_collapsed_bounds,
    mixing_threshold,
    paired_relaxed_bound,
    threshold_rows,
    tv_lower_chebyshev_sym,
    tv_upper_coupling,
    tv_upper_spectral,
    classify_base,
)
from wreathwalk.groups import build_group, symmetric_group
from wreathwalk.oracle import convolution_power, exact_distances
from wreathwalk.partitions import conjugate, content_sum, dim_hook, partitions_of
from wreathwalk.reps import enumerate_labels, irrep_dimension
from wreathwalk.walks import build_measure, l2n_sq_spectral, spectrum


def test_delta_n_examples():
    s3 = build_group("S:3")
    assert delta_n(s3, 3) == 65
    assert delta_n(s3, 2) == 17
    assert delta_n(build_group("Z:2"), 5) == 1
    # abelian bases always give |G| - 1
    for m in (2, 3, 4, 5):
        g = build_group(f"Z:{m}")
        assert delta_n(g, 7) == m - 1


@pytest.mark.parametrize("gname,nmax", [("Z:2", 5), ("Z:3", 4)])
def test_collapsed_equals_spectral_exact(gname, nmax):
    g = build_group(gname)
    for n in range(2, nmax + 1):
        spec = spectrum("independent", n, g)
        for k in range(0, 13):
            col = l2n_sq_collapsed(g.order, n, k)
            assert isinstance(col, Fraction)
            assert col == l2n_sq_spectral(spec, k)


def test_sym_degenerate_case():
    for n in (4, 7):
        spec = spectrum("sym", n)
        for k in (0, 1, 3, 8):
            assert l2n_sq_collapsed(1, n, k) == l2n_sq_spectral(spec, k)


@pytest.mark.parametrize("gname,n", [("Z:2", 6), ("Z:3", 5), ("S:3", 4)])
def test_multiplicity_collapse_identity(gname, n):
    # sum of squared dimensions over labels sharing slot-1 data (n_1, lam_1)
    # equals C(n,n_1) (n!/n_1!) (|G|-1)^{n-n_1} d_{lam_1}^2
    g = build_group(gname)
    acc = {}
    for lab in enumerate_labels(g, n):
        key = (lab.type[0], lab.lambdas[0])
        d = irrep_dimension(g, n, lab)
        acc[key] = acc.get(key, 0) + d * d
    for (n1, lam1), tot in acc.items():
        w = (
            math.comb(n, n1)
            * (math.factorial(n) // math.factorial(n1))
            * (g.order - 1) ** (n - n1)
        )
        assert tot == w * dim_hook(lam1) ** 2


def test_float_path_matches_exact():
    # exact atoms through FULL_ENUM_MAX: the bracket closes on the exact sum
    for go, n in [(2, 6), (3, 5), (2, bounds.FULL_ENUM_MAX)]:
        for k in (1, 4, 10, 25):
            ex = float(l2n_sq_collapsed(go, n, k, exact=True))
            lo, hi = l2n_sq_collapsed_bounds(go, n, k)
            assert lo == hi
            assert abs(lo - ex) <= 1e-12 * ex


def test_k0_closed_form():
    lo, hi = l2n_sq_collapsed_bounds(2, 5, 0)
    assert lo == hi == 2 ** 5 * 120 - 1
    assert l2n_sq_collapsed(3, 4, 0) == 3 ** 4 * 24 - 1


def test_windowed_bounds_sandwich_exact(monkeypatch):
    # shrink the full-enumeration cutoff and the window so the deficit
    # window is exercised at a size where the exact value is computable;
    # the exact references come first, while n = 12 is still exact
    cases = [(go, 12, k) for go in (2, 3) for k in (8, 12, 20, 40)]
    exact = [float(l2n_sq_collapsed(go, n, k, exact=True)) for go, n, k in cases]
    monkeypatch.setattr(bounds, "FULL_ENUM_MAX", 10)
    monkeypatch.setattr(bounds, "J_WINDOW", 4)
    for (go, n, k), ex in zip(cases, exact):
        assert bounds._atoms(go, n).tail.any()  # the windowed atoms
        lo, hi = l2n_sq_collapsed_bounds(go, n, k)
        assert lo <= ex * (1 + 1e-9)
        assert hi >= ex * (1 - 1e-9)
        if k >= 20:
            # window majorants are tight once the small eigenvalues decay
            assert hi <= ex * 1.001


def test_window_dimension_recursion():
    # the first-row-strip formula used inside the window must reproduce the
    # hook-length dimension exactly
    for m in (17, 33, 52):
        for j in range(0, 7):
            for mu in partitions_of(j):
                if mu and mu[0] > m - j:
                    continue
                lam = (m - j,) + mu
                conj = conjugate(mu)
                mu1 = mu[0] if mu else 0
                ln_d = (
                    math.lgamma(m + 1)
                    - math.lgamma(m - j - mu1 + 1)
                    - math.fsum(
                        math.log(m - j - c + 1 + conj[c - 1]) for c in range(1, mu1 + 1)
                    )
                    - math.lgamma(j + 1)
                    + math.log(dim_hook(mu))
                )
                assert abs(ln_d - math.log(dim_hook(lam))) < 1e-9
                c_lam = (m - j) * (m - j - 1) + content_sum(mu) - 2 * j
                assert c_lam == content_sum(lam)


@given(st.integers(6, 14), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_cmax_is_the_true_max(m, j):
    if j > m - 1:
        j = m - 1
    want = max(
        (content_sum((m - j,) + mu) for mu in partitions_of(j) if not mu or mu[0] <= m - j),
        default=None,
    )
    got = bounds._cmax_at_deficit(m, j)
    if want is None:
        assert got is None or m - j < 1
    else:
        assert got == want


@pytest.mark.parametrize("gname,n", [("Z:2", 4), ("Z:3", 3), ("S:3", 3)])
def test_paired_relaxed_dominates(gname, n):
    g = build_group(gname)
    spec = spectrum("paired", n, g)
    for k in range(0, 26):
        rb = paired_relaxed_bound(g, n, k)
        assert rb >= Fraction(1, 4) * l2n_sq_spectral(spec, k)


def test_paired_relaxed_float_path():
    g = build_group("Z:2")
    v12 = float(paired_relaxed_bound(g, 12, 40))
    v13 = paired_relaxed_bound(g, 13, 43)
    assert isinstance(v13, float)
    # same walk a step past its threshold; magnitudes should be comparable
    assert 0 < v13 < 10 * v12 + 1


def test_chebyshev_variance_vanishes_at_k0():
    # Var(k=0) must be 0: the display collapses to
    # 1 + (n-1) + (n-1)(n-2)/2 - (n^2-n+2)/2 = 0
    for n in (4, 10, 37):
        var0 = 1 + (n - 1) + 0.5 * (n - 1) * (n - 2) - 0.5 * (n * n - n + 2)
        assert abs(var0) < 1e-9
    assert tv_lower_chebyshev_sym(10, 0) > 0.98


def test_chebyshev_below_exact_tv():
    g = symmetric_group(4)
    meas = build_measure("sym", 4)
    for k in range(0, 13):
        num, scale = convolution_power(g, meas, k)
        tv = exact_distances(num, scale, g.order)["tv"]
        assert tv_lower_chebyshev_sym(4, k) <= float(tv) + 1e-12


def test_chebyshev_pins():
    assert tv_lower_chebyshev_sym(100, 131) == pytest.approx(0.5351236299731792, rel=1e-12)
    assert tv_lower_chebyshev_sym(100, 31) == pytest.approx(0.9906612234102232, rel=1e-12)
    with pytest.raises(ValueError):
        tv_lower_chebyshev_sym(3, 5)


def test_coupling_upper_pin():
    k = math.ceil(0.5 * 100 * math.log(100) + 200)
    assert k == 431
    assert tv_upper_coupling(100, k, 0.25) == pytest.approx(0.2672797614663848, rel=1e-14)
    assert tv_upper_coupling(5, 0, 0.9) == 1.0  # clamped


def test_dominant_pins_and_soundness():
    assert l2_lower_dominant([1, 1], 50, 98, "independent") == pytest.approx(
        0.47670624834126707, rel=1e-12
    )
    assert l2_lower_dominant([1, 1], 100, 231, "independent") == pytest.approx(
        0.48131556731477393, rel=1e-12
    )
    assert l2_lower_dominant([1, 2, 1], 50, 118, "independent") == pytest.approx(
        0.4750932654766864, rel=1e-12
    )
    for gname in ("Z:2", "S:3"):
        g = build_group(gname)
        for kind in ("independent", "paired"):
            spec = spectrum(kind, 3, g)
            for k in range(1, 31):
                dom = l2_lower_dominant(g.irrep_dims(), 3, k, kind)
                assert dom <= 0.5 * math.sqrt(float(l2n_sq_spectral(spec, k))) + 1e-12
    with pytest.raises(ValueError):
        l2_lower_dominant([1, 1], 5, 3, "sym")


def test_dominant_paired_nonabelian_slots():
    # with dims supplied the slowest per-slot family decays as
    # ((n-1)/(n d_j))^{2k}; those eigenvalues are really in the spectrum
    g = build_group("S:3")
    spec = spectrum("paired", 2, g)
    vals = {line.value for line in spec.lines}
    assert Fraction(1, 4) in vals and Fraction(1, 2) in vals
    k = 6
    got = l2_lower_dominant(g.irrep_dims(), 2, k, "paired")
    # dims [1, 2, 1]: nontrivial slots contribute 2^4 (1/4)^{2k} and (1/2)^{2k}
    by_hand = max(
        4 * 5 * (1 - 0.5) ** (4 * k),
        2 ** 4 * (0.5 / 2) ** (2 * k) + (0.5 / 1) ** (2 * k),
    )
    assert got == pytest.approx(0.5 * math.sqrt(by_hand), rel=1e-12)


def test_envelope_symbolic():
    for n in range(2, 41):
        assert independent_envelope_holds(n)
    assert independent_envelope_holds(200)


def test_envelope_decay_certificate_small():
    lhs, rhs = envelope_decay_certificate(2, 25, 1.0)
    assert lhs <= rhs * (1 + 1e-6)
    assert lhs > 0


def test_mixing_threshold_values():
    g2, g3, s3 = build_group("Z:2"), build_group("Z:3"), build_group("S:3")
    n = 10
    half = 0.5 * n * math.log(n)
    assert mixing_threshold(None, n, "sym", "tv") == pytest.approx(half)
    assert mixing_threshold(g2, n, "independent", "l2") == pytest.approx(half)
    assert mixing_threshold(g2, n, "independent", "tv") == pytest.approx(half)
    assert mixing_threshold(g3, n, "independent", "l2") == pytest.approx(
        half + 0.25 * n * math.log(2)
    )
    assert mixing_threshold(g2, n, "paired", "l2") == pytest.approx(n * math.log(n))
    assert mixing_threshold(g3, n, "paired", "l2") == pytest.approx(
        n * math.log(n) + n * math.log(2)
    )
    dn = delta_n(s3, n)
    want = max(
        n * math.log(n) + 0.5 * n * math.log(5) + 0.5 * n * math.log(2),
        0.5 * n * math.log(dn),
    )
    assert mixing_threshold(s3, n, "paired", "l2") == pytest.approx(want)
    assert mixing_threshold(s3, n, "paired", "tv") == pytest.approx(half)


def test_threshold_rows_shapes():
    ind = threshold_rows("independent")
    pai = threshold_rows("paired")
    assert len(ind) == 20 and len(pai) == 20 and len(threshold_rows("sym")) == 4
    assert all(r.formula == "(1/2) n log n" for r in ind if r.metric == "tv")
    suff_sm = next(
        r for r in pai if r.g_class == "Sm" and r.metric == "l2" and r.direction == "sufficient"
    )
    assert "p(m)-1" in suff_sm.formula and suff_sm.formula.startswith("max{")
    nec_ab = next(
        r for r in pai if r.g_class == "abelian" and r.metric == "l2" and r.direction == "necessary"
    )
    assert "max" not in nec_ab.formula
    assert all(r.asymptotic for r in pai if r.metric == "tv" and r.direction == "sufficient")
    with pytest.raises(ValueError):
        threshold_rows("bogus")


def test_classify_base():
    assert classify_base(build_group("Z:2")) == "Z2"
    assert classify_base(build_group("Z:5")) == "Zm"
    assert classify_base(build_group("S:4")) == "Sm"


def test_distance_curve_modes():
    g = build_group("Z:2")
    dc = distance_curve("independent", 3, g, ks=[0, 1, 5])
    assert dc.mode == "full-spectrum"
    assert dc.rows[0]["l2n_sq"] == 47
    assert dc.rows[1]["tv_upper_coupling"] is not None
    dc_sym = distance_curve("sym", 5, ks=[2])
    assert dc_sym.rows[0]["tv_lower_chebyshev"] is not None
    assert dc_sym.rows[0]["l2_lower_dominant"] is None
    dc_big = distance_curve("independent", 60, build_group("Z:3"), ks=[300])
    assert dc_big.mode == "collapsed"
    assert 0 <= dc_big.rows[0]["tv_upper_spectral"] <= 1
    dc_rel = distance_curve("paired", 50, build_group("S:3"), ks=[100])
    assert dc_rel.mode == "relaxed"


def test_tv_upper_spectral_clamp():
    assert tv_upper_spectral(Fraction(47)) == 1.0
    assert tv_upper_spectral(0.04) == pytest.approx(0.1)
    assert tv_upper_spectral(float("inf")) == 1.0


def test_relaxed_bound_covers_the_exact_paired_sum():
    # the exact paired sum straight from the slot convolution, past any
    # label cap: 4 x the relaxed bound stays above it through n = 40
    from wreathwalk.walks import slot_convolution

    ks = [0, 1, 40, 80, 160]
    for gspec in ("S:3", "Z:2"):
        g = build_group(gspec)
        for n in (13, 20, 30, 40):
            den, mults = slot_convolution(n, g)
            nums = [v for v in mults if v != den]               # the nontrivial lines
            atoms = bounds.exact_atoms([mults[v] for v in nums], nums, den)
            exact = bounds.power_sums(atoms, ks, exact=True)
            for k, e in zip(ks, exact):
                assert 4 * paired_relaxed_bound(g, n, k) >= e, (gspec, n, k)
