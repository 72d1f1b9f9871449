"""Sampler correctness: one-step laws, state encoding, reproducibility,
empirical TV, and both coupling experiments."""
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from wreathwalk import simulate as sim
from wreathwalk.bounds import tv_upper_coupling
from wreathwalk.groups import build_group, symmetric_group
from wreathwalk.oracle import convolution_curve, exact_distances, measure_on_table
from wreathwalk.simulate import (
    CouplingReport,
    SimConfig,
    coupling_experiment,
    empirical_tv,
    encode_states,
    run_walk,
    run_walk_indices,
    tv_curve,
)
from wreathwalk.walks import build_measure
from wreathwalk.wreath import (
    WreathElement,
    apply_steps,
    build_wreath_table,
    decode_states,
    draw_count,
    enumerate_wreath_elements,
    step_rows,
    walk_base,
    wreath_multiply,
)


def _spread(g, v):
    """The per-element numerators of the class masses v: each element of
    class C carries v[C] // |C|."""
    return (v // np.array(g.class_sizes(), dtype=np.int64))[g.class_of]


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
    g = None if kind == "sym" else build_group(gname)
    cfg = SimConfig(kind=kind, n=n, g=g, k=1, trials=10 ** 6, seed=11)
    counts = np.bincount(run_walk_indices(cfg), minlength=cfg.g.order ** n * math.factorial(n))
    table = symmetric_group(n) if kind == "sym" else build_wreath_table(g, n).group
    probs = measure_on_table(build_measure(kind, n, g), table)
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
    for k, v, scale in convolution_curve(wt.group, meas, list(range(kcap + 1))):
        w = math.exp(-t) * t ** k / math.factorial(k)
        for i, x in enumerate(_spread(wt.group, v).tolist()):
            mix[i] += w * float(Fraction(x, scale))
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
    (_, v, scale), = convolution_curve(wt.group, meas, [20])
    exact_tv = float(exact_distances(wt.group, v, scale)["tv"])
    cfg = SimConfig(kind="independent", n=2, g=g, k=20, trials=10 ** 5, seed=12345)
    tv, se = empirical_tv(run_walk_indices(cfg), None, 8)
    assert abs(tv - exact_tv) <= 3 * se


def test_empirical_tv_against_reference():
    # comparing the k-step sample against the exact k-step law should sit
    # closer than against uniform at small k
    g = build_group("Z:2")
    wt = build_wreath_table(g, 2)
    meas = build_measure("independent", 2, g)
    (_, v, scale), = convolution_curve(wt.group, meas, [2])
    dk = [Fraction(int(x), scale) for x in _spread(wt.group, v)]
    cfg = SimConfig(kind="independent", n=2, g=g, k=2, trials=10 ** 5, seed=8)
    idx = run_walk_indices(cfg)
    tv_ref, _ = empirical_tv(idx, dict(enumerate(dk)), 8)
    tv_unif, _ = empirical_tv(idx, None, 8)
    assert tv_ref < tv_unif


def _loop_jackknife(samples, reference, order):
    """empirical_tv as one bincount per jackknife block, kept as the
    reference for the one count of every block."""
    m = len(samples)
    pi = np.full(order, 1.0 / order)
    if reference is not None:
        pi = np.zeros(order)
        for i, p in reference.items():
            pi[i] = float(p)
    counts = np.bincount(samples, minlength=order).astype(np.float64)
    tv = 0.5 * np.abs(counts / m - pi).sum()
    B = min(sim.JACKKNIFE_BLOCKS, m)
    edges = np.linspace(0, m, B + 1).astype(int)
    reps = []
    for b in range(B):
        blk = samples[edges[b]:edges[b + 1]]
        cb = np.bincount(blk, minlength=order).astype(np.float64)
        reps.append(0.5 * np.abs((counts - cb) / (m - len(blk)) - pi).sum())
    reps = np.asarray(reps)
    return float(tv), math.sqrt((B - 1) / B * ((reps - reps.mean()) ** 2).sum())


@pytest.mark.parametrize("m,order,cells", [
    (2, 8, None), (57, 8, None), (1001, 162, None), (10 ** 5, 162, None),
    (12345, 50000, None), (4321, 300, 1000),        # blocks counted 20 and 3 at a time
])
def test_empirical_tv_equals_the_per_block_counts(m, order, cells, monkeypatch):
    # m < 100 blocks, m not divisible by 100, int32 and int64 samples, a
    # reference dict, and counts split when blocks x order passes the cells
    if cells is not None:
        monkeypatch.setattr(sim, "JACKKNIFE_CELLS", cells)
    rng = np.random.default_rng(m)
    reference = dict(enumerate(rng.dirichlet(np.ones(order)).tolist()))
    for dtype in (np.int32, np.int64):
        samples = rng.integers(0, order, size=m).astype(dtype)
        for ref in (None, reference):
            assert empirical_tv(samples, ref, order) == _loop_jackknife(samples, ref, order)


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


def _untouched_tail(n, k, trials, seed):
    """Empirical P{T > k}, T the first step by which the independent walk
    has touched every coordinate (both positions on p != q steps, the one
    on p == q steps)."""
    rng = np.random.default_rng(seed)
    touched = np.zeros((trials, n), dtype=bool)
    rows = np.arange(trials)
    for _ in range(k):
        touched[rows, rng.integers(0, n, size=trials)] = True
        touched[rows, rng.integers(0, n, size=trials)] = True
    return float(np.mean(~touched.all(axis=1)))


def test_discrete_coupling_tail():
    # the tail term of tv_upper_coupling (its sym part set to 0) bounds the
    # chance that some coordinate is still untouched
    assert _untouched_tail(5, 0, 200, seed=1) == tv_upper_coupling(5, 0, 0.0) == 1.0
    n = 100
    k = math.ceil(0.5 * n * math.log(n) + n)
    tail = _untouched_tail(n, k, 10 ** 4, seed=3)
    bound = tv_upper_coupling(n, k, 0.0)
    se = math.sqrt(max(tail * (1 - tail), 1e-9) / 10 ** 4)
    assert 0 < tail <= bound + 4 * se and bound < 1


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


def _exact_mean_connectivity_time(n):
    """E[T] by a DP over the partitions of n the component sizes pass
    through: the sum over the n - 1 merges of the mean wait n^2/(n^2 - Q),
    Q the sum of squared sizes, with parts i < j merging with probability
    2 s_i s_j / (n^2 - Q)."""
    law, mean = {(1,) * n: Fraction(1)}, Fraction(0)
    for _ in range(n - 1):
        after = {}
        for parts, pr in law.items():
            free = n * n - sum(s * s for s in parts)
            mean += pr * Fraction(n * n, free)
            for i, j in itertools.combinations(range(len(parts)), 2):
                rest = parts[:i] + parts[i + 1:j] + parts[j + 1:]
                key = tuple(sorted(rest + (parts[i] + parts[j],)))
                after[key] = after.get(key, 0) + pr * Fraction(2 * parts[i] * parts[j], free)
        law = after
    return mean


def test_exact_mean_connectivity_time_small_cases():
    # n = 2: one Exp(mean 2) wait; n = 3: waits of mean 9/6, then 9/4
    assert _exact_mean_connectivity_time(2) == 2
    assert _exact_mean_connectivity_time(3) == Fraction(15, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_connectivity_time_mean_is_exact(n):
    ts = coupling_experiment(n, 2 * 10 ** 5, [0.0], seed=40 + n).t_samples
    se = ts.std(ddof=1) / math.sqrt(len(ts))
    assert abs(ts.mean() - float(_exact_mean_connectivity_time(n))) < 4 * se


def test_coupling_seeded_and_chunked():
    # more trials than one chunk of (class, trial) cells holds (K = 9 size
    # classes at n = 50): the stream is fixed by (n, trials, seed), and a
    # prefix of trials does not depend on the total
    chunk = sim._CLASS_CELLS // 9
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


def test_coupling_cap_accepts_n2000_with_1e4_trials(monkeypatch):
    # the cap prices the component-size chain, n^1.5 per trial: n = 2000
    # with 10^4 trials (a few seconds of sampling, stubbed here) is accepted
    calls = []
    monkeypatch.setattr(sim, "_connectivity_times",
                        lambda n, trials, rng: calls.append((n, trials)) or np.ones(trials))
    rep = coupling_experiment(2000, 10 ** 4, [0.0], seed=1)
    assert calls == [(2000, 10 ** 4)] and rep.trials == 10 ** 4
    with pytest.raises(ValueError, match="exceeds cap"):
        coupling_experiment(10 ** 4, 10 ** 4, [0.0], seed=1)


def _reference_connectivity_times(n, trials, rng):
    """The component-size chain on int64 arrays, fresh weight arrays at
    every merge and the same draws (one exponential per trial, then one
    (2, trials in the chunk) block of uniforms), kept as the reference for
    the narrow-dtype kernels of simulate._connectivity_times."""
    out = np.zeros(trials)
    k, nn = (math.isqrt(8 * n + 1) - 1) // 2, n * n
    chunk, rows = sim._CLASS_CELLS // k, np.arange(k)[:, None]
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        cols, t, q = np.arange(m), out[start:start + m], np.full(m, n, dtype=np.int64)
        size, mass = np.zeros((2, k, m), dtype=np.int64)
        size[0], mass[0] = 1, n
        w = 1
        for _ in range(n - 1):
            t += rng.standard_exponential(m) * (nn / (nn - q))
            u = rng.random((2, m))
            s, c = size[:w + 1], mass[:w + 1]
            ra = (np.cumsum(c * (n - s), axis=0) <= np.floor(u[0] * (nn - q))).sum(0)
            sa = size[ra, cols]
            mass[ra, cols] -= sa
            rb = (np.cumsum(c, axis=0) <= np.floor(u[1] * (n - sa))).sum(0)
            sb = size[rb, cols]
            mass[rb, cols] -= sb
            q += 2 * sa * sb
            miss = s != sa + sb
            slot = ((miss.astype(np.int64) + (miss & (c > 0))) * k + rows[:w + 1]).min(0) % k
            size[slot, cols] = sa + sb
            mass[slot, cols] += sa + sb
            w = max(w, int(slot.max()) + 1)
    return out


@pytest.mark.parametrize("n,trials", [
    (2, 300), (3, 300), (50, 300), (255, 40), (256, 40), (300, 40), (3740, 4), (3741, 4),
    (10 ** 4, 3),
])
def test_connectivity_times_equal_the_int64_reference(n, trials):
    # 255 | 256: weights switch from uint16 to uint32 and sizes from uint8 to
    # uint16; 300: running sums past 2^16; 3740 | 3741: the slot key from
    # uint8 to uint16; 10^4: the cap
    got = sim._connectivity_times(n, trials, np.random.default_rng(n))
    want = _reference_connectivity_times(n, trials, np.random.default_rng(n))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_pick_takes_the_first_running_sum_above_u(dtype):
    top = int(np.iinfo(dtype).max)
    # running sums C = 3, 3, 8, top - 1, top; u at C_r - 1 picks row r, u at
    # C_r the next row of nonzero weight (the zero row 1 is never picked)
    weights = np.array([3, 0, 5, top - 9, 1], dtype=dtype)
    sums = np.array([3, 3, 8, top - 1, top], dtype=dtype)
    u = [0, 2, 3, 7, 8, top - 2, top - 1]
    want = [0, 0, 2, 2, 3, 3, 4]
    cols = np.repeat(weights[:, None], len(u), axis=1)
    got = sim._pick(cols, np.array(u, dtype=dtype))
    assert got.dtype == np.intp and got.tolist() == want
    assert np.array_equal(cols, np.repeat(sums[:, None], len(u), axis=1))


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


def _reference_walk_indices(cfg):
    """The walk re-stated on its own, kept as the bit-for-bit reference: each
    trial a (coords, pinv) pair, pinv its inverse permutation.  Before steps
    2j + 1 and 2j + 2, one draw per trial uniform on the D^2 pairs of the
    D = n^2 |G|^b draws of a step, split by divmod into the first step's
    draw and the second's; each of those split by divmod into p, q, a, b
    (b = a^-1 for paired), then one apply_steps, restricted in continuized
    mode to the trials whose Poisson count exceeds the step.  A run to an
    odd k draws its last pair whole and takes its first step only.  The
    states are encoded at the end."""
    rng = np.random.default_rng(cfg.seed)
    T, n, g = cfg.trials, cfg.n, cfg.g
    coords = np.zeros((T, n), dtype=np.int64)
    pinv = np.tile(np.arange(n, dtype=np.int64), (T, 1))
    steps = rng.poisson(cfg.t, size=T) if cfg.mode == "continuized" else None
    kmax = cfg.k if steps is None else int(steps.max())
    paired = cfg.kind == "paired"
    draws = n * n * (g.order if paired else g.order ** 2)
    for step in range(kmax):
        if step % 2 == 0:
            pair = divmod(rng.integers(0, draws * draws, size=T), draws)
        rest = pair[step % 2]
        if not paired:
            rest, b = divmod(rest, g.order)
        rest, a = divmod(rest, g.order)
        p, q = divmod(rest, n)
        if paired:
            b = g.inv[a]
        rows = np.arange(T)
        if steps is not None:
            on = steps > step
            rows, p, q, a, b = rows[on], p[on], q[on], a[on], b[on]
        apply_steps(coords, pinv, rows, p, q, a, b, g.mult)
    return encode_states(coords, np.argsort(pinv, axis=1), g.order)


REFERENCE_WALKS = [("paired", "Z:3", 3), ("independent", "Z:2", 4), ("paired", "S:3", 3),
                   ("sym", None, 5)]


def _spy_step_rows(monkeypatch):
    """Record the step_rows builds of the simulator."""
    built, real = [], sim.step_rows
    monkeypatch.setattr(sim, "step_rows", lambda *a: built.append(a) or real(*a))
    return built


def _route(monkeypatch, route):
    """Send the simulator's walks down one route, recording the maps built:
    "pairs", S and S2 (_step_map built as for 10^7 trials, S2 up to 2^22
    cells); "map", S alone; "coords", no map."""
    maps, real = [], sim._step_map
    big = lambda cfg, *a: real(dataclasses.replace(cfg, trials=10 ** 7), *a)
    monkeypatch.setattr(sim, "PAIR_MAP_CELLS", 1 << 22)
    pick = {"pairs": big,
            "map": lambda *a: (big(*a)[0], None),
            "coords": lambda *a: None}[route]
    monkeypatch.setattr(sim, "_step_map", lambda *a: maps.append(pick(*a)) or maps[-1])
    return maps


@pytest.mark.parametrize("route", ["pairs", "map", "coords"])
@pytest.mark.parametrize("mode", ["discrete", "continuized"])
@pytest.mark.parametrize("kind,gspec,n", REFERENCE_WALKS)
def test_walk_equals_the_reference_walk(kind, gspec, n, mode, route, monkeypatch):
    # through S2 with S where a pair is split, through S alone, and as
    # (coords, pinv): an even and an odd kmax in each mode (t = 9.0 draws a
    # largest Poisson count of 24 at seed 3 and 25 at seed 4), and
    # continuized trials that stop mid-pair
    g = build_group(gspec) if gspec else None
    maps = _route(monkeypatch, route)
    for seed, k in ((3, 24), (4, 25)):
        cfg = SimConfig(kind=kind, n=n, g=g, k=k, t=9.0, trials=25000, seed=seed, mode=mode)
        got = run_walk_indices(cfg)
        assert got.dtype == np.int64 and len(np.unique(got)) > 1
        assert np.array_equal(got, _reference_walk_indices(cfg))
    assert [m is None or m[1] is None for m in maps] == [route != "pairs"] * 2
    steps = np.random.default_rng(4).poisson(9.0, size=25000)
    assert steps.max() == 25 and (steps % 2 == 1).any()


@pytest.mark.parametrize("kind,gspec,n", REFERENCE_WALKS)
def test_two_step_map_is_the_step_map_twice(kind, gspec, n, monkeypatch):
    # S2[(d1 D + d2) order + x] is the index of s_d2 s_d1 x, S applied twice;
    # past PAIR_MAP_CELLS there is none (S:3 paired, 3.8 M cells), so the cap
    # is raised to check that instance too
    g = build_group(gspec) if gspec else None
    cfg = SimConfig(kind=kind, n=n, g=g, k=n, trials=10 ** 7)
    draws, order = draw_count(kind, n, g), cfg.g.order ** n * math.factorial(n)
    assert (sim._step_map(cfg, n)[1] is None) == (draws * draws * order > sim.PAIR_MAP_CELLS)
    monkeypatch.setattr(sim, "PAIR_MAP_CELLS", 1 << 22)
    succ, pairs = sim._step_map(cfg, n)
    s = succ.reshape(draws, order)
    assert pairs.shape == (draws * draws * order,) and pairs.dtype == succ.dtype
    assert np.array_equal(pairs.reshape(draws, draws, order),
                          np.stack([s[d2][s[d1]] for d1 in range(draws)
                                    for d2 in range(draws)]).reshape(draws, draws, order))


def test_odd_snapshots_split_their_pair(monkeypatch):
    # ks 3 and 7 split pairs (2, 3) and (6, 7) into two gathers through S,
    # the odd kmax 11 splits the last pair and takes its high digit only,
    # and pairs (0, 1), (4, 5), (8, 9) are one gather each through S2
    taken, real_map = [], sim._step_map

    def counted(name):
        class Counted(np.ndarray):
            def take(self, d):
                taken.append(name)
                return np.asarray(self).take(d)
        return Counted

    monkeypatch.setattr(sim, "_step_map", lambda *a: tuple(
        m if m is None else m.view(counted(name)) for name, m in zip(("S", "S2"), real_map(*a))))
    g, ks = build_group("Z:3"), [3, 0, 10, 7, 11]
    cfg = SimConfig(kind="paired", n=3, g=g, k=11, trials=40000, seed=6)
    got = tv_curve(cfg, ks)
    assert taken == ["S2", "S", "S", "S2", "S", "S", "S2", "S"]
    for k, tv_se in zip(ks, got):
        ref = _reference_walk_indices(SimConfig(kind="paired", n=3, g=g, k=k, trials=40000, seed=6))
        assert tv_se == empirical_tv(ref, None, 162)
    # every odd k wanted splits every pair: no S2 is built, and the rows are the same
    taken.clear()
    every = tv_curve(cfg, range(12))
    assert taken == ["S"] * 11 and [every[k] for k in ks] == got


@pytest.mark.parametrize("route", ["map", "coords"])
def test_a_continuized_walk_steps_every_trial_once_per_step(route, monkeypatch):
    # a trial past its Poisson count takes draw 0, the identity step, so
    # each pair of the largest count's steps is one gather through S2 (map;
    # 40000 trials' three coordinates hold its 27^2 x 162 cells), and each
    # step one apply_steps (coords), over every trial; the largest count
    # is odd, so its last pair is one gather through S; the law is the
    # reference's
    calls, real_apply, real_map = [], sim.apply_steps, sim._step_map

    class CountedMap(np.ndarray):
        def take(self, d):
            calls.append(len(d))
            return np.asarray(self).take(d)

    monkeypatch.setattr(sim, "apply_steps", lambda *a: calls.append(len(a[2])) or real_apply(*a))
    monkeypatch.setattr(sim, "_step_map", lambda *a: (
        tuple(m.view(CountedMap) for m in real_map(*a)) if route == "map" else None))
    T = 40000
    cfg = SimConfig(kind="paired", n=3, g=build_group("Z:3"), t=9.0, trials=T, seed=4,
                    mode="continuized")
    got = run_walk_indices(cfg)
    steps = np.random.default_rng(4).poisson(9.0, size=T)
    top = int(steps.max())
    assert top % 2 == 1 and (steps < top).any() and (steps % 2 == 1).any()
    assert calls == [T] * (top if route == "coords" else (top + 1) // 2)
    assert np.array_equal(got, _reference_walk_indices(cfg))


@pytest.mark.parametrize("kind,gspec,n", REFERENCE_WALKS)
def test_tv_curve_rows_equal_reference_runs_of_k_steps(kind, gspec, n):
    g = build_group(gspec) if gspec else None
    ks = [0, 1, 9, 4, 25]
    cfg = SimConfig(kind=kind, n=n, g=g, k=max(ks), trials=3000, seed=5)
    order = cfg.g.order ** n * math.factorial(n)
    for k, tv_se in zip(ks, tv_curve(cfg, ks)):
        ref = _reference_walk_indices(SimConfig(kind=kind, n=n, g=g, k=k, trials=3000, seed=5))
        assert tv_se == empirical_tv(ref, None, order)


def test_walk_builds_no_map_larger_than_its_steps(monkeypatch):
    # sym n = 10: the map would have up to 100 x 10! cells; 200 trials of
    # 30 steps carry (coords, pinv) instead, as do orders past int64.  Z:2
    # at n = 2 has up to 16 x 8 cells: fewer than 20 trials' 30 steps, but
    # more than their 2 coordinates each
    built = _spy_step_rows(monkeypatch)
    for cfg in (SimConfig(kind="sym", n=10, k=30, trials=200, seed=1),
                SimConfig(kind="independent", n=2, g=build_group("Z:2"), k=30, trials=20, seed=1)):
        idx = run_walk_indices(cfg)
        assert idx.dtype == np.int64 and np.array_equal(idx, _reference_walk_indices(cfg))
    coords, perms = run_walk(SimConfig(kind="sym", n=21, k=30, trials=200, seed=1))
    assert coords.shape == perms.shape == (200, 21) and not coords.any()
    assert built == []


def test_run_walk_decodes_the_indices():
    g = build_group("S:3")
    cfg = SimConfig(kind="independent", n=3, g=g, k=7, trials=500, seed=4)
    coords, perms = run_walk(cfg)
    assert coords.shape == perms.shape == (500, 3)
    assert np.array_equal(encode_states(coords, perms, g.order), run_walk_indices(cfg))


@pytest.mark.parametrize("kind,gspec,n,order", [
    ("independent", "Z:9", 12, 9 ** 12 * math.factorial(12)),   # about 1.35e20
    ("sym", None, 21, math.factorial(21)),                      # about 5.1e19
    ("paired", "Z:11", 11, 11 ** 11 * math.factorial(11)),      # 1.23 * 2^63
])
def test_orders_past_int64_are_refused(kind, gspec, n, order):
    # the indices would wrap (or overflow in encode_states): refused, with
    # the order named, before the walk starts
    g = build_group(gspec) if gspec else None
    cfg = SimConfig(kind=kind, n=n, g=g, k=60, trials=5, seed=1)
    with pytest.raises(ValueError, match=f"wreath order {order} exceeds 2\\^63 - 1"):
        run_walk_indices(cfg)
    with pytest.raises(ValueError, match=f"wreath order {order} exceeds"):
        tv_curve(cfg, [60])
    with pytest.raises(ValueError, match=f"wreath order {order} exceeds"):
        encode_states(np.zeros((1, n), dtype=np.int64), np.arange(n)[None], cfg.g.order)
    with pytest.raises(ValueError, match=f"wreath order {order} exceeds"):
        step_rows(kind, n, g)


def test_pairs_of_draws_past_int64_are_refused():
    # sym at n = 55109 decodes its states, so no order refuses it, but its
    # n^4 pairs of draws pass 2^63 - 1: refused before the walk
    coords, perms = run_walk(SimConfig(kind="sym", n=55108, k=2, trials=2, seed=1))
    assert perms.shape == (2, 55108) and not coords.any()
    with pytest.raises(ValueError, match=f"{55109 ** 2}\\^2 pairs of draws exceed 2\\^63 - 1"):
        run_walk(SimConfig(kind="sym", n=55109, k=2, trials=2, seed=1))


def _assert_rows_of_reference_walks(rows, kind, g, n, ks, trials, seed, mode):
    """The simulate CSV rows' (k, empirical_tv, stderr) are those of the
    reference walk with the same seed, one per k."""
    assert len(rows) == len(ks)
    for k, row in zip(ks, rows):
        cfg = (SimConfig(kind=kind, n=n, g=g, k=k, trials=trials, seed=seed)
               if mode == "discrete" else
               SimConfig(kind=kind, n=n, g=g, t=float(k), trials=trials, seed=seed,
                         mode="continuized"))
        order = cfg.g.order ** n * math.factorial(n)
        tv, se = empirical_tv(_reference_walk_indices(cfg), None, order)
        assert row.split(",")[:3] == [str(k), repr(tv), repr(se)]


@pytest.mark.parametrize("mode", ["discrete", "continuized"])
def test_simulate_walks_the_table_it_builds(capsys, monkeypatch, mode):
    # Z:300 at n = 1: a map with a row per draw would have 300^3 cells, more
    # than 2000 trials' one coordinate each, so the command's walk carries
    # (coords, pinv) and builds no map; its 300^2 table serves the exact column
    from wreathwalk import cli

    built = _spy_step_rows(monkeypatch)
    argv = ["simulate", "--group", "Z:300", "--n", "1", "--walk", "independent",
            "--mode", mode, "--k", "0..4:2", "--trials", "2000", "--seed", "3"]
    assert cli.main(argv) == 0
    assert built == []
    _assert_rows_of_reference_walks(capsys.readouterr().out.splitlines()[2:], "independent",
                                    build_group("Z:300"), 1, (0, 2, 4), 2000, 3, mode)


@pytest.mark.parametrize("mode,maps", [("discrete", 1), ("continuized", 3)])
def test_simulate_builds_one_map_per_walk(capsys, monkeypatch, mode, maps):
    # Z:3 paired at n = 3: 27 draws x 162 states fit in 2000 trials' three
    # coordinates each, so the command takes the step_rows map by the rule
    # library walks use: one map for the discrete run, one per continuized row
    from wreathwalk import cli

    built = _spy_step_rows(monkeypatch)
    argv = ["simulate", "--group", "Z:3", "--n", "3", "--walk", "paired",
            "--mode", mode, "--k", "2..6:2", "--trials", "2000", "--seed", "8"]
    assert cli.main(argv) == 0
    assert len(built) == maps
    _assert_rows_of_reference_walks(capsys.readouterr().out.splitlines()[2:], "paired",
                                    build_group("Z:3"), 3, (2, 4, 6), 2000, 8, mode)


def test_indices_reach_the_int64_edge():
    # Z:1 at n = 20, order 20! (about 2.4e18): the last element, the
    # reversed permutation, is index 20! - 1, and decodes back
    n, order = 20, math.factorial(20)
    last = np.arange(n)[::-1][None]
    assert encode_states(np.zeros((1, n), dtype=np.int64), last, 1)[0] == order - 1
    coords, perms = decode_states(np.array([order - 1]), 1, n)
    assert not coords.any() and np.array_equal(perms, last)
