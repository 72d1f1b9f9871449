"""Acceptance suite: one test per numbered criterion.

Run via `wreathwalk selftest` or `pytest -v tests/test_acceptance.py`;
the -v listing gives one pass/fail line per criterion.  Tolerances,
seeds, and runtime budgets are pinned in the individual tests.
"""
import filecmp
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from wreathwalk.bounds import (
    envelope_decay_certificate,
    independent_envelope_holds,
    l2n_sq_collapsed,
    threshold_rows,
    tv_lower_chebyshev_sym,
)
from wreathwalk.classes import class_count, type_matrix
from wreathwalk.cli import main as cli_main
from wreathwalk.groups import build_group
from wreathwalk.oracle import (
    build_transition_matrix,
    convolution_curve,
    exact_distances,
    matrix_power_traces,
)
from wreathwalk.partitions import (
    char_ratio_transposition,
    conjugate,
    dim_hook,
    dim_partition,
    enumerate_partitions,
    sn_character_table,
)
from wreathwalk.reps import enumerate_labels, irrep_dimension
from wreathwalk.simulate import SimConfig, coupling_experiment, empirical_tv, run_walk_indices
from wreathwalk.walks import (
    build_measure,
    eigenvalue,
    fourier_class_function,
    l2n_sq_spectral,
    return_probability,
    spectrum,
)
from wreathwalk.wreath import build_wreath_table, enumerate_wreath_elements, wreath_order

SMALL_INSTANCES = [("Z:2", 2), ("Z:2", 3), ("Z:3", 2), ("S:3", 2)]
WREATH_WALKS = ("independent", "paired")


def test_criterion_01_trace_moments_exact():
    t0 = time.monotonic()
    for gspec, n in SMALL_INSTANCES:
        g = build_group(gspec)
        wt = build_wreath_table(g, n)
        for kind in WREATH_WALKS:
            spec = spectrum(kind, n, g)
            moments = [
                sum(l.multiplicity * l.value ** k for l in spec.lines)
                for k in range(7)
            ]
            m = build_transition_matrix(wt.group, build_measure(kind, n, g))
            assert matrix_power_traces(m, 6) == moments
    assert time.monotonic() - t0 < 60


def test_criterion_02_fourier_equals_eigenvalue():
    for gspec, n in SMALL_INSTANCES:
        g = build_group(gspec)
        for kind in WREATH_WALKS:
            measure = build_measure(kind, n, g)
            for lab in enumerate_labels(g, n):
                ev = eigenvalue(measure, lab)
                fv = fourier_class_function(measure, lab)
                if g.exact_characters:
                    assert fv == ev
                else:
                    assert abs(complex(fv) - complex(ev)) <= 1e-9


def test_criterion_03_convolution_oracle_equality():
    g = build_group("Z:2")
    n = 3
    wt = build_wreath_table(g, n)
    for kind in WREATH_WALKS:
        spec = spectrum(kind, n, g)
        measure = build_measure(kind, n, g)
        for k, v, scale in convolution_curve(wt.group, measure, list(range(1, 21))):
            assert return_probability(spec, k) == Fraction(int(v[0]), scale)
            assert l2n_sq_spectral(spec, k) == exact_distances(wt.group, v, scale)["l2n_sq"]


def test_criterion_04_counting_identities():
    cases = [("Z:2", 6), ("Z:3", 5), ("S:3", 4)]
    for gspec, n_max in cases:
        g = build_group(gspec)
        for n in range(1, n_max + 1):
            order = wreath_order(g.order, n)
            spec = spectrum("independent", n, g)
            assert spec.multiplicity_total() == order
            labels = len(enumerate_labels(g, n))
            assert labels == class_count(g, n)
            brute = len({type_matrix(g, w) for w in enumerate_wreath_elements(g, n)})
            assert labels == brute


def test_criterion_05_partition_layer():
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        assert sum(dim_hook(lam) ** 2 for lam in parts) == math.factorial(n)
        for lam in parts:
            assert dim_partition(lam) == dim_hook(lam)
            assert dim_hook(conjugate(lam)) == dim_hook(lam)
            if n >= 2:
                assert char_ratio_transposition(conjugate(lam)) == -char_ratio_transposition(lam)
    for m in range(2, 7):
        parts, table = sn_character_table(m)
        sizes = []
        for mu in parts:
            z = 1
            for part, a in Counter(mu).items():
                z *= part ** a * math.factorial(a)
            sizes.append(math.factorial(m) // z)
        assert sum(sizes) == math.factorial(m)
        for r1 in range(len(parts)):
            for r2 in range(len(parts)):
                ip = sum(s * table[r1][c] * table[r2][c] for c, s in enumerate(sizes))
                assert ip == (math.factorial(m) if r1 == r2 else 0)


def test_criterion_06_collapsed_formula():
    for gspec, n_max in [("Z:2", 6), ("Z:3", 5)]:
        g = build_group(gspec)
        for n in range(2, n_max + 1):
            spec = spectrum("independent", n, g)
            for k in range(21):
                a = l2n_sq_collapsed(g.order, n, k)
                b = l2n_sq_spectral(spec, k)
                assert abs(float(a) - float(b)) <= 1e-9
                assert a == b        # both exact on this range
    # multiplicity collapse: summing d^2 over labels with a fixed trivial
    # slot recovers the closed-form weight
    for gspec, n_max in [("Z:2", 8), ("Z:3", 5)]:
        g = build_group(gspec)
        for n in range(2, n_max + 1):
            weights = {}
            for lab in enumerate_labels(g, n):
                key = (lab.type[0], lab.lambdas[0])
                weights[key] = weights.get(key, 0) + irrep_dimension(g, n, lab) ** 2
            for (n1, lam1), total in weights.items():
                closed = (
                    math.comb(n, n1)
                    * (math.factorial(n) // math.factorial(n1))
                    * (g.order - 1) ** (n - n1)
                    * dim_hook(lam1) ** 2
                    if n1 else
                    math.comb(n, n1) * math.factorial(n) * (g.order - 1) ** n
                )
                assert total == closed


def test_criterion_07_cutoff_envelope():
    t0 = time.monotonic()
    for n in range(2, 201):
        assert independent_envelope_holds(n)
    for g_order in (2, 6, 720):
        for n in (25, 50, 100, 200):
            for c in (0.5, 1.0, 2.0):
                lhs, rhs = envelope_decay_certificate(g_order, n, c)
                assert lhs <= rhs * (1 + 1e-6)
    assert time.monotonic() - t0 < 120


def test_criterion_08_lower_bound_witnesses():
    g = build_group("Z:2")
    n = 3
    spec = spectrum("independent", n, g)
    for k in range(31):
        dominant = n * n * (g.order - 1) * Fraction(n - 1, n) ** (4 * k)
        assert dominant <= l2n_sq_spectral(spec, k)
    n = 100
    for c in (1, 2, 3):
        k = max(0, math.ceil(0.5 * n * math.log(n) - c * n))
        bound = tv_lower_chebyshev_sym(n, k)
        assert bound >= 1 - 2187 * math.exp(-2 * c)


def test_criterion_09_coupling_experiment():
    t0 = time.monotonic()
    rep = coupling_experiment(200, 10 ** 4, [0.0, 1.0, 2.0], seed=0)
    rows = rep.rows                      # per c: T row, then T* row
    t_tail = {r["c"]: r["empirical_tail"] for r in rows[0::2]}
    tstar_tail = {r["c"]: r["empirical_tail"] for r in rows[1::2]}
    for c in (0.0, 1.0):
        limit = 1 - math.exp(-math.exp(-2 * c))
        assert abs(t_tail[c] - limit) <= 0.05
    for c in (1.0, 2.0):
        assert tstar_tail[c] <= 2 * math.exp(-c) + 0.03
    assert time.monotonic() - t0 < 300


def test_criterion_10_monte_carlo_validation(tmp_path):
    g = build_group("Z:2")
    n, k, trials, seed = 2, 20, 10 ** 5, 12345
    wt = build_wreath_table(g, n)
    measure = build_measure("independent", n, g)
    (_, v, scale), = convolution_curve(wt.group, measure, [k])
    exact_tv = float(exact_distances(wt.group, v, scale)["tv"])
    cfg = SimConfig(kind="independent", n=n, g=g, k=k, trials=trials, seed=seed)
    tv, se = empirical_tv(run_walk_indices(cfg), None, wt.group.order)
    assert abs(tv - exact_tv) <= 3 * se
    argv = ["simulate", "--group", "Z:2", "--n", "2", "--walk", "independent",
            "--k", "20", "--trials", str(trials), "--seed", str(seed)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(p1)]) == 0
    assert cli_main(argv + ["--out", str(p2)]) == 0
    assert filecmp.cmp(p1, p2, shallow=False)
    assert p1.read_text().splitlines()[0] == "# rng=PCG64"


def test_criterion_11_threshold_tables():
    ind_l2 = {
        "Z2": "(1/2) n log n",
        "Zm": "(1/2) n log n + (1/4) n log(m-1)",
        "Sm": "(1/2) n log n + (1/4) n log(m!-1)",
        "abelian": "(1/2) n log n + (1/4) n log(|G|-1)",
        "nonabelian": "(1/2) n log n + (1/4) n log(|G|-1)",
    }
    rows = {(r.g_class, r.metric, r.direction): r for r in threshold_rows("independent")}
    assert len(rows) == 20
    for gc, formula in ind_l2.items():
        for direction in ("sufficient", "necessary"):
            assert rows[(gc, "l2", direction)].formula == formula
            assert rows[(gc, "tv", direction)].formula == "(1/2) n log n"

    paired_suff = {
        "Z2": "n log n",
        "Zm": "n log n + n log(m-1)",
        "Sm": "max{ (1/2) n log delta_n, n log n + (1/2) n log(m!-1) + (1/2) n log(p(m)-1) }",
        "abelian": "n log n + n log(|G|-1)",
        "nonabelian": "max{ (1/2) n log delta_n, n log n + (1/2) n log(|G|-1) + (1/2) n log(s-1) }",
    }
    paired_nec = {
        "Z2": "(1/2) n log n",
        "Zm": "(1/2) n log n + (1/4) n log(m-1)",
        "Sm": "max{ (1/2) n log delta_n, (1/2) n log n + (1/4) n log(m!-1) }",
        "abelian": "(1/2) n log n + (1/4) n log(|G|-1)",
        "nonabelian": "max{ (1/2) n log delta_n, (1/2) n log n + (1/4) n log(|G|-1) }",
    }
    rows = {(r.g_class, r.metric, r.direction): r for r in threshold_rows("paired")}
    assert len(rows) == 20
    for gc in paired_suff:
        assert rows[(gc, "l2", "sufficient")].formula == paired_suff[gc]
        assert rows[(gc, "l2", "necessary")].formula == paired_nec[gc]
        assert rows[(gc, "tv", "sufficient")].formula == "(1/2) n log n"
        assert rows[(gc, "tv", "sufficient")].asymptotic is True
        assert rows[(gc, "tv", "necessary")].formula == "(1/2) n log n"

    rows = {(r.metric, r.direction): r for r in threshold_rows("sym")}
    assert len(rows) == 4
    for key, r in rows.items():
        assert r.formula == "(1/2) n log n"
