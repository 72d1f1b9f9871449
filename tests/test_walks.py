from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathwalk.groups import build_group, cyclic_group
from wreathwalk.reps import IrrepLabel, enumerate_labels
from wreathwalk.walks import (
    build_measure,
    eigenvalue,
    fourier_class_function,
    l2n_sq_spectral,
    return_probability,
    slot_convolution,
    spectrum,
)


def test_measure_masses_sym():
    m = build_measure("sym", 4)
    assert m.class_probs[("id",)] == Fraction(1, 4)
    assert m.class_probs[("v", 1)] == Fraction(2, 16)
    assert m.total_mass() == 1


def test_measure_masses_independent():
    g = build_group("Z:3")
    m = build_measure("independent", 2, g)
    assert m.class_probs[("id",)] == Fraction(1, 6)
    assert m.class_probs[("u", 2)] == Fraction(1, 12)
    assert m.class_probs[("v", 1)] == Fraction(2, 36)
    assert m.total_mass() == 1


def test_measure_masses_paired():
    g = build_group("S:3")
    n = 3
    m = build_measure("paired", n, g)
    assert m.class_probs[("id",)] == Fraction(1, 18)
    # v-mass concentrates on the mutually-inverse class
    assert m.class_probs[("v", 1)] == Fraction(2, 54)
    assert m.class_probs[("v", 2)] == 0
    assert m.class_probs[("v", 3)] == 0
    assert m.total_mass() == 1
    # identity + u's + v's = 1/(|G|n) + (|G|-1)/(|G|n) + (n-1)/n
    u_total = sum(
        m.class_probs[t] * sz for t, _, sz in m.support if t[0] == "u"
    )
    assert u_total == Fraction(g.order - 1, g.order * n)


def test_sym_spectrum_n3():
    spec = spectrum("sym", 3)
    got = {l.value: l.multiplicity for l in spec.lines}
    assert got == {Fraction(1): 1, Fraction(1, 3): 4, Fraction(-1, 3): 1}


def test_sym_is_the_trivial_base_case():
    # S_n is 1 wr S_n: the sym walk's spectrum, witnesses included, and its
    # class measure are those of either wreath walk on G = 1
    trivial = cyclic_group(1)
    for n in range(1, 11):
        spec = spectrum("sym", n)
        assert all(isinstance(line.witness, IrrepLabel) for line in spec.lines)
        for kind in ("independent", "paired"):
            assert spectrum(kind, n, trivial).lines == spec.lines
        assert (build_measure("sym", n).class_probs
                == build_measure("independent", n, trivial).class_probs)


def test_independent_spectrum_z2_s2():
    g = build_group("Z:2")
    spec = spectrum("independent", 2, g)
    got = {l.value: l.multiplicity for l in spec.lines}
    assert got == {Fraction(1): 1, Fraction(1, 4): 4, Fraction(0): 3}


def test_paired_spectrum_z2_s2():
    g = build_group("Z:2")
    spec = spectrum("paired", 2, g)
    got = {l.value: l.multiplicity for l in spec.lines}
    assert got == {
        Fraction(1): 1,
        Fraction(1, 2): 1,
        Fraction(1, 4): 4,
        Fraction(0): 1,
        Fraction(-1, 2): 1,
    }


def test_paired_spectrum_s3_s2():
    # nonabelian base: the per-slot character ratio is damped by the base
    # irrep dimension, visible here as the 36-fold line at 1/4
    g = build_group("S:3")
    spec = spectrum("paired", 2, g)
    got = {l.value: l.multiplicity for l in spec.lines}
    assert got == {
        Fraction(1): 1,
        Fraction(1, 2): 1,
        Fraction(1, 4): 36,
        Fraction(0): 17,
        Fraction(-1, 4): 16,
        Fraction(-1, 2): 1,
    }


def test_spectrum_total_multiplicity():
    import math

    for gspec, n, kind in [("Z:2", 4, "independent"), ("Z:3", 3, "paired"), ("S:3", 3, "paired")]:
        g = build_group(gspec)
        spec = spectrum(kind, n, g)
        assert spec.multiplicity_total() == g.order ** n * math.factorial(n)


def test_fourier_equals_eigenvalue_everywhere():
    for gspec, n in [("Z:2", 3), ("Z:3", 2), ("S:3", 2), ("Z:4", 2)]:
        g = build_group(gspec)
        for kind in ("independent", "paired"):
            meas = build_measure(kind, n, g)
            for lab in enumerate_labels(g, n):
                fe = fourier_class_function(meas, lab)
                ev = eigenvalue(meas, lab)
                if isinstance(fe, complex):
                    assert abs(fe - complex(ev)) <= 1e-9
                else:
                    assert fe == ev


def test_eigenvalue_examples():
    g = build_group("S:3")
    meas = build_measure("paired", 2, g)
    # all mass in the 2-dim slot, lambda = [2]: 0 + (2*1/4) * 1 / 2 = 1/4
    lab = IrrepLabel(type=(0, 2, 0), lambdas=((), (2,), ()))
    assert eigenvalue(meas, lab) == Fraction(1, 4)
    # independent eigenvalue ignores the nontrivial slots entirely
    ind = build_measure("independent", 2, g)
    assert eigenvalue(ind, lab) == Fraction(0)


def test_return_probability_and_l2():
    g = build_group("Z:2")
    spec = spectrum("independent", 2, g)
    assert return_probability(spec, 0) == 1
    assert return_probability(spec, 1) == Fraction(1, 4)
    assert l2n_sq_spectral(spec, 0) == 7
    assert l2n_sq_spectral(spec, 1) == Fraction(1, 4)


def test_l2_large_k_float_path():
    g = build_group("Z:2")
    spec = spectrum("independent", 3, g)
    exact64 = float(l2n_sq_spectral(spec, 64))
    # float path continues smoothly past the exact window
    f65 = l2n_sq_spectral(spec, 65)
    assert isinstance(f65, float)
    assert 0 < f65 < exact64


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_l2_monotone_nonincreasing(k):
    g = build_group("Z:3")
    spec = spectrum("paired", 2, g)
    a = l2n_sq_spectral(spec, k)
    b = l2n_sq_spectral(spec, k + 1)
    assert b <= a


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        build_measure("swap", 3, build_group("Z:2"))


# the instances of acceptance criteria 1-4, then larger and edge cases
SLOT_CASES = sorted(
    {(gspec, n) for gspec, n_max in [("Z:2", 6), ("Z:3", 5), ("S:3", 4)]
     for n in range(1, n_max + 1)}
    | {("Z:3", 10), ("S:3", 8), ("S:4", 4), ("S:4", 2), ("Z:5", 6), ("Z:4", 5),
       ("Z:1", 1), ("Z:1", 6)})


@pytest.mark.parametrize("gspec,n", SLOT_CASES)
def test_slot_convolution_equals_labels(gspec, n):
    # spectrum is the label route: every label's eigenvalue and dimension
    g = build_group(gspec)
    den, mults = slot_convolution(n, g)
    got = [(Fraction(v, den), mults[v]) for v in sorted(mults, reverse=True)]
    assert got == [(l.value, l.multiplicity) for l in spectrum("paired", n, g).lines]


def test_distance_builds_no_labels(monkeypatch):
    from wreathwalk import bounds, reps, walks

    def refused(*args, **kw):
        raise AssertionError("label path called")

    for mod in (reps, walks):
        for name in ("enumerate_labels", "irrep_dimension"):
            monkeypatch.setattr(mod, name, refused)
    for name in ("eigenvalue", "spectrum"):
        monkeypatch.setattr(walks, name, refused)
    for kind, gspec, n in (("sym", None, 9), ("independent", "S:3", 5), ("paired", "Z:3", 7),
                           ("paired", "S:3", 6)):
        g = build_group(gspec) if gspec else None
        assert bounds.distance_curve(kind, n, g, ks=[0, 3, 80]).mode == "full-spectrum"
