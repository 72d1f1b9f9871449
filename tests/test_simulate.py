"""Sampler correctness: one-step laws, state encoding, reproducibility,
empirical TV, and both coupling experiments."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wreathwalk import simulate as sim
from wreathwalk.groups import build_group, symmetric_group
from wreathwalk.oracle import convolution_power, exact_distances, measure_on_table
from wreathwalk.simulate import (
    CouplingReport,
    SimConfig,
    coupling_experiment,
    discrete_coupling_bound,
    discrete_coupling_tail,
    empirical_tv,
    encode_states,
    one_step_counts,
    per_step_hit_probability,
    run_walk,
    run_walk_indices,
    tv_curve,
)
from wreathwalk.walks import build_measure
from wreathwalk.wreath import (
    WreathElement,
    apply_steps,
    build_wreath_table,
    enumerate_wreath_elements,
    wreath_multiply,
)


@pytest.mark.parametrize("gname,n", [("Z:2", 2), ("Z:2", 3), ("Z:3", 2), ("S:3", 2)])
def test_encode_matches_table_order(gname, n):
    g = build_group(gname)
    wt = build_wreath_table(g, n)
    elements = list(enumerate_wreath_elements(g, n))
    coords = np.array([e.coords for e in elements])
    perms = np.array([e.perm for e in elements])
    got = encode_states(coords, perms, g.order)
    assert np.array_equal(got, np.arange(wt.group.order))


@pytest.mark.parametrize("gname,n", [("Z:1", 3), ("Z:2", 3), ("Z:3", 2), ("S:3", 2)])
def test_apply_steps_is_left_multiplication_by_the_step_element(gname, n):
    # every draw (p, q, a, b), p = q included, on every state: the array
    # update equals the scalar product with (a at p, b at q; (p q))
    g = build_group(gname)
    states = list(enumerate_wreath_elements(g, n))
    draws = [(p, q, a, b) for p in range(n) for q in range(n)
             for a in range(g.order) for b in range(g.order)]
    pairs = [(d, s) for d in draws for s in states]
    coords = np.array([s.coords for _, s in pairs], dtype=np.int64)
    pinv = np.argsort(np.array([s.perm for _, s in pairs]), axis=1)
    p, q, a, b = np.array([d for d, _ in pairs]).T
    apply_steps(coords, pinv, np.arange(len(pairs)), p, q, a, b, g.mult)
    perms = np.argsort(pinv, axis=1)
    for i, ((p, q, a, b), state) in enumerate(pairs):
        v = [0] * n
        v[q] = b
        v[p] = a                          # a alone at p when p = q
        tau = list(range(n))
        tau[p], tau[q] = q, p
        want = wreath_multiply(g, WreathElement(tuple(v), tuple(tau)), state)
        assert (tuple(coords[i]), tuple(perms[i])) == want


@pytest.mark.parametrize("mode", ["discrete", "continuized"])
def test_sym_samples_equal_the_trivial_base_walks(mode):
    # sym runs on Z:1, whose base draws integers(0, 1) consume no random
    # bits, so one seed gives sym and both wreath walks on Z:1 one stream
    z1 = build_group("Z:1")
    runs = [run_walk_indices(SimConfig(kind=kind, n=4, g=g, k=9, t=6.0, trials=3000,
                                       seed=31, mode=mode))
            for kind, g in (("sym", None), ("independent", z1), ("paired", z1))]
    assert len(np.unique(runs[0])) > 1
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


@pytest.mark.parametrize("gname", ["Z:2", "Z:3"])
@pytest.mark.parametrize("kind", ["sym", "independent", "paired"])
def test_one_step_chi2(gname, kind):
    # empirical one-step law equals the measure: chi^2 not rejected at 1e-4
    n = 2
    g = build_group(gname)
    if kind == "sym":
        cfg = SimConfig(kind=kind, n=n, g=None, k=1, trials=10 ** 6, seed=11)
        counts = np.bincount(run_walk_indices(cfg), minlength=math.factorial(n))
        probs = measure_on_table(build_measure(kind, n), symmetric_group(n))
    else:
        counts = one_step_counts(kind, n, g, 10 ** 6, seed=11)
        probs = measure_on_table(build_measure(kind, n, g), build_wreath_table(g, n).group)
    expect = np.zeros(len(counts))
    for i, p in probs.items():
        expect[i] = float(p) * counts.sum()
    on = expect > 0
    assert counts[~on].sum() == 0          # nothing lands off the support
    _, pval = stats.chisquare(counts[on], expect[on])
    assert pval > 1e-4


def test_continuized_matches_poissonized_oracle():
    # P_t = sum_k e^{-t} t^k/k! P^{*k}; chi^2 the empirical continuized law
    # against a truncated Poisson mixture of exact convolution powers
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    t = 4.0
    kcap = 30
    mix = np.zeros(8)
    logw_total = 0.0
    for k in range(kcap + 1):
        w = math.exp(-t) * t ** k / math.factorial(k)
        dk = convolution_power(wt.group, meas, k)
        for i, p in enumerate(dk):
            mix[i] += w * float(p)
        logw_total += w
    mix /= logw_total
    cfg = SimConfig(kind="independent", n=2, g=g, t=t, trials=2 * 10 ** 5, seed=23,
                    mode="continuized")
    counts = np.bincount(run_walk_indices(cfg), minlength=8)
    _, pval = stats.chisquare(counts, mix * counts.sum())
    assert pval > 1e-4


def test_seeded_reproducibility():
    g = build_group("Z:3")
    cfg = SimConfig(kind="paired", n=3, g=g, k=15, trials=2000, seed=99)
    a = run_walk_indices(cfg)
    b = run_walk_indices(SimConfig(kind="paired", n=3, g=g, k=15, trials=2000, seed=99))
    assert np.array_equal(a, b)
    c = run_walk_indices(SimConfig(kind="paired", n=3, g=g, k=15, trials=2000, seed=100))
    assert not np.array_equal(a, c)


def test_empirical_tv_point_mass():
    g = build_group("Z:2")
    cfg = SimConfig(kind="independent", n=2, g=g, k=0, trials=1000, seed=5)
    tv, se = empirical_tv(run_walk_indices(cfg), None, 8)
    assert tv == pytest.approx(1 - 1 / 8, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_empirical_tv_three_sigma_of_oracle():
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    exact_tv = float(exact_distances(convolution_power(wt.group, meas, 20), 8)["tv"])
    cfg = SimConfig(kind="independent", n=2, g=g, k=20, trials=10 ** 5, seed=12345)
    tv, se = empirical_tv(run_walk_indices(cfg), None, 8)
    assert abs(tv - exact_tv) <= 3 * se


def test_empirical_tv_against_reference():
    # comparing the k-step sample against the exact k-step law should sit
    # closer than against uniform at small k
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    dk = convolution_power(wt.group, meas, 2)
    cfg = SimConfig(kind="independent", n=2, g=g, k=2, trials=10 ** 5, seed=8)
    idx = run_walk_indices(cfg)
    tv_ref, _ = empirical_tv(idx, dict(enumerate(dk)), 8)
    tv_unif, _ = empirical_tv(idx, None, 8)
    assert tv_ref < tv_unif


def test_sym_walk_marginal():
    # permutation marginal of the independent walk is the transposition walk
    g = build_group("Z:2")
    cfg = SimConfig(kind="independent", n=3, g=g, k=40, trials=20000, seed=2)
    coords, perms = run_walk(cfg)
    # at k=40 >> mixing, permutation should be near uniform over S_3
    ranks = encode_states(np.zeros_like(coords), perms, 1)
    counts = np.bincount(ranks, minlength=6)
    _, pval = stats.chisquare(counts)
    assert pval > 1e-4


def test_per_step_hit_probability():
    for n in (2, 5, 10, 37):
        hp = per_step_hit_probability(n)
        assert hp == Fraction(2 * n - 1, n * n)
        assert hp == 1 - (1 - Fraction(1, n)) ** 2


def test_discrete_coupling_tail():
    assert discrete_coupling_tail(5, 0, 200, seed=1) == 1.0
    n = 100
    k = math.ceil(0.5 * n * math.log(n) + n)
    tail = discrete_coupling_tail(n, k, 10 ** 4, seed=3)
    bound = discrete_coupling_bound(n, k)
    se = math.sqrt(max(tail * (1 - tail), 1e-9) / 10 ** 4)
    assert tail <= bound + 4 * se


def test_coupling_experiment_small():
    rep = coupling_experiment(50, 1500, [0.0, 1.0], seed=9)
    assert isinstance(rep, CouplingReport)
    assert np.all(rep.tstar_samples >= rep.t_samples)
    assert len(rep.rows) == 4           # T row then T* row per c
    t_rows = rep.rows[0::2]
    for r in t_rows:
        assert r["limit"] == pytest.approx(1 - math.exp(-math.exp(-2 * r["c"])))
    by_c = {r["c"]: r["empirical_tail"] for r in t_rows}
    assert by_c[0.0] > by_c[1.0]        # tails decrease in c
    for r in rep.rows:
        assert set(r) == set(CouplingReport.columns)
        assert 0 <= r["empirical_tail"] <= 1


def _event_connectivity_time(n, rng):
    """Scalar reference for the batched sampler: run the pair-event stream
    (aggregate rate (n-1)/n, uniform unordered pairs) through a union-find
    until the graph connects."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps, t = n, 0.0
    while comps > 1:
        t += rng.exponential(n / (n - 1.0))
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        j += j >= i
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            comps -= 1
    return t


def test_connectivity_time_n2_is_exponential():
    # one pair, first firing at rate 2/n^2 = 1/2
    ts = coupling_experiment(2, 2 * 10 ** 4, [0.0], seed=21).t_samples
    assert stats.kstest(ts, stats.expon(scale=2.0).cdf).pvalue > 1e-3


def test_connectivity_time_n3_is_second_order_statistic():
    # the triangle connects at its second-smallest of three Exp(2/9) waits
    lam = 2.0 / 9.0

    def cdf(t):
        return (1 - np.exp(-3 * lam * t)
                - 3 * (1 - np.exp(-lam * t)) * np.exp(-2 * lam * t))

    ts = coupling_experiment(3, 2 * 10 ** 4, [0.0], seed=22).t_samples
    assert stats.kstest(ts, cdf).pvalue > 1e-3


def test_connectivity_time_matches_event_process():
    n, trials = 30, 4000
    rng = np.random.default_rng(23)
    ref = [_event_connectivity_time(n, rng) for _ in range(trials)]
    ts = coupling_experiment(n, trials, [0.0], seed=24).t_samples
    assert stats.ks_2samp(ts, ref).pvalue > 1e-3


def test_coupling_seeded_and_chunked():
    # more trials than one chunk of Prim keys holds: the stream is fixed by
    # (n, trials, seed), and a prefix of trials does not depend on the total
    chunk = sim._PRIM_KEYS // 49
    a = coupling_experiment(50, chunk + 7, [0.0], seed=25)
    b = coupling_experiment(50, chunk + 7, [0.0], seed=25)
    c = coupling_experiment(50, chunk, [0.0], seed=25)
    assert np.array_equal(a.t_samples, b.t_samples)
    assert np.array_equal(a.tstar_samples, b.tstar_samples)
    assert np.array_equal(a.t_samples[:chunk], c.t_samples)
    assert np.all(a.t_samples > 0)


def test_coupling_caps():
    with pytest.raises(ValueError):
        coupling_experiment(20000, 10, [0.0], seed=1)
    with pytest.raises(ValueError):
        coupling_experiment(10, 2 * 10 ** 6, [0.0], seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(kind="bogus", n=3)
    with pytest.raises(ValueError):
        SimConfig(kind="independent", n=3)       # missing group
    with pytest.raises(ValueError):
        SimConfig(kind="sym", n=3, trials=0)
    with pytest.raises(ValueError):
        SimConfig(kind="sym", n=3, mode="continuized")   # missing t


@pytest.mark.parametrize("kind,gspec", [("sym", None), ("independent", "Z:3"), ("paired", "S:3")])
def test_one_run_tv_curve_equals_per_k_runs(kind, gspec):
    g = build_group(gspec) if gspec else None
    ks = [7, 0, 3, 7, 12, 3]                       # unsorted, repeated
    cfg = SimConfig(kind=kind, n=3, g=g, k=max(ks), trials=500, seed=11)
    got = tv_curve(cfg, ks)
    assert len(got) == len(ks)
    for k, tv_se in zip(ks, got):
        idx = run_walk_indices(SimConfig(kind=kind, n=3, g=g, k=k, trials=500, seed=11))
        assert tv_se == empirical_tv(idx, None, cfg.g.order ** 3 * 6)
    with pytest.raises(ValueError, match="0..12"):
        tv_curve(cfg, [13])
    with pytest.raises(ValueError, match="discrete"):
        tv_curve(SimConfig(kind=kind, n=3, g=g, t=2.0, trials=10, mode="continuized"), [1])


def test_simulate_rows_come_from_one_run(capsys, monkeypatch):
    # the CLI walks once, to the largest k, and prints what per-k runs print
    from wreathwalk import cli

    argv = ["simulate", "--group", "Z:2", "--n", "3", "--walk", "paired",
            "--k", "0..12:4", "--trials", "400", "--seed", "5"]
    calls = []
    real = cli.tv_curve
    monkeypatch.setattr(cli, "tv_curve", lambda cfg, ks: calls.append(cfg.k) or real(cfg, ks))
    assert cli.main(argv) == 0
    assert calls == [12]
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 4
    g = build_group("Z:2")
    for k, row in zip(range(0, 13, 4), rows):
        idx = run_walk_indices(SimConfig(kind="paired", n=3, g=g, k=k, trials=400, seed=5))
        tv, se = empirical_tv(idx, None, 48)
        assert row.split(",")[:3] == [str(k), repr(tv), repr(se)]
