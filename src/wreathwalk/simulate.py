"""Monte Carlo side: vectorized walk sampling (discrete and continuized),
empirical TV with jackknife errors, and the coupling experiment (the
pair-event graph connectivity time).

A step of every trial is one draw d, uniform on the walk's draws
d = 0..D - 1, D = draw_count (`wreath.decode_draws`), and steps are drawn
in pairs.  A trial is one element index x when the step map S costs no
more than the walk (S[d, x] the index of s_d x, the walk's
`wreath.step_rows` map gathered by draw): a pair of steps is one gather
through the two-step map S2[(d1 D + d2) order + x] = S[d2, S[d1, x]] where
S2 fits the same rule and PAIR_MAP_CELLS, else one gather through S per
step.  A snapshot is x itself.  Otherwise, as for orders too large to
index, a trial is a (coords, pinv) pair stepped by `wreath.apply_steps` on
each step's `wreath.decode_draws` digits, and encoded at each snapshot.  In
continuized mode a trial past its Poisson count takes draw 0,
(p, q, a, b) = (0, 0, e, e), the identity step, so each step or pair is
one statement over every trial on either route.

Randomness contract: everything goes through numpy's default_rng (PCG64),
and every report records the seed.  Before steps 2j + 1 and 2j + 2 the
sampler draws one integer per trial, rng.integers(0, D^2) with
D = n^2 |G|^b = draw_count (b = 2 independent, 1 paired; sym is the
independent walk on Z:1, so D = n^2); its high base-D digit is step
2j + 1's draw and its low digit step 2j + 2's.  A run to an odd k draws
its last pair and takes the high digit only, so a run to k is a prefix of
any longer run.  The stream is the same whatever the route, whether a pair
is split, and whether the trial has stopped.  A draw's mixed-radix digits
are p, q, a and b (b = a^-1 for paired), so the law of a step is that of
drawing them one by one.  The coupling experiment runs chunks of trials,
the chunk size fixed by n; per chunk, each merge step draws one standard
exponential per trial, then one (2, trials in the chunk) block of
uniforms: row 0 picks the first class, row 1 the second.  After all chunks
it draws one Exp(mean n) per trial for T*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupTable
from .wreath import (
    INDEX_MAX,
    _index_order,
    apply_steps,
    decode_draws,
    decode_states,
    draw_count,
    encode_states,
    step_rows,
    walk_base,
    wreath_order,
)

RNG_ALGORITHM = "PCG64"
JACKKNIFE_BLOCKS = 100             # delete-one-block jackknife groups in empirical_tv
JACKKNIFE_CELLS = 1 << 20          # (block, state) cells of one jackknife count
# the most cells of the two-step map S2 (_step_map): on a 2-vCPU Xeon (2 MiB
# L2 a core), 20 steps through S2, its build included, beat those split
# through S by 8-24 % at 1.5-1.6 M cells and by 8-16 % at 2.7-3.4 M, and
# lost by 8-36 % at 3.8-9.6 M, where its gathers leave the cache
PAIR_MAP_CELLS = 1 << 21


@dataclass
class SimConfig:
    kind: str                      # sym | independent | paired
    n: int
    g: GroupTable | None = None    # base group, resolved in __post_init__ (Z:1 for sym)
    k: int = 0                     # step count (discrete mode)
    t: float | None = None         # time horizon (continuized mode)
    trials: int = 1000
    seed: int = 0
    mode: str = "discrete"

    def __post_init__(self):
        if self.kind not in ("sym", "independent", "paired"):
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        self.g = walk_base(self.kind, self.g)
        if self.trials < 1:
            raise ValueError("trials >= 1")
        if self.mode not in ("discrete", "continuized"):
            raise ValueError("mode is discrete or continuized")
        if self.mode == "continuized" and self.t is None:
            raise ValueError("continuized mode needs a time horizon t")


def _walk(cfg: SimConfig, ks: list, keep, decoded: bool = False) -> list:
    """keep(state) after each step count in ks (discrete mode; one entry,
    ignored, in continuized mode), in ks order.  The state is the (trials,)
    element indices, or their (coords, perms) arrays when decoded.

    Steps are drawn in pairs: before steps 2j + 1 and 2j + 2 one integer
    per trial, uniform on [0, D^2), D = draw_count, whose high base-D digit
    is the first step's draw and whose low digit is the second's.  A trial
    is one element index stepped through the step maps (_step_map) when
    there are any, a pair by one gather through S2 or, where S2 is missing
    or a wanted odd k splits the pair, a digit by one gather through S;
    else a (coords, pinv) pair, pinv its inverse permutation, stepped per
    digit by apply_steps.  Both routes take the same draws.  A continuized
    trial past its Poisson count takes draw 0, the identity step."""
    rng = np.random.default_rng(cfg.seed)
    T, n, go = cfg.trials, cfg.n, cfg.g.order
    if cfg.mode == "continuized":
        steps = rng.poisson(cfg.t, size=T)
        kmax = int(steps.max()) if T else 0
        ks = [kmax]
    else:
        kmax = cfg.k
    if any(k < 0 or k > kmax for k in ks):
        raise ValueError(f"step counts must lie in 0..{kmax}")
    if not decoded:
        _index_order(go, n)                  # refuses indices past int64 before walking
    draws = draw_count(cfg.kind, n, cfg.g)
    if draws * draws > INDEX_MAX:
        raise ValueError(f"the {draws}^2 pairs of draws exceed 2^63 - 1, the int64 draws")
    wanted, kept = set(ks), {}
    maps = _step_map(cfg, kmax, any(s + 1 not in wanted for s in range(0, kmax - 1, 2)))
    if maps is None:
        coords, rows, pairs = np.zeros((T, n), dtype=np.int64), np.arange(T), None
        pinv = np.tile(np.arange(n, dtype=np.int64), (T, 1))
    else:
        (succ, pairs), order = maps, wreath_order(go, n)
        x = np.zeros(T, dtype=succ.dtype)

    def snap(step):
        if step in wanted:
            if maps is None:
                state = coords, np.argsort(pinv, axis=1)
                kept[step] = keep(state if decoded else encode_states(*state, go))
            else:
                kept[step] = keep(decode_states(x, go, n) if decoded else x)

    def gather(table, d):                    # x = table[d, x], d consumed
        nonlocal x
        d *= order
        d += x
        x = table.take(d)

    def one_step(d):
        if maps is None:
            apply_steps(coords, pinv, rows, *decode_draws(cfg.kind, n, cfg.g, d), cfg.g.mult)
        else:
            gather(succ, d)

    for step in range(0, kmax, 2):
        snap(step)
        d = rng.integers(0, draws * draws, size=T)
        if cfg.mode == "continuized":        # draw 0 for the steps past a trial's count
            d[steps <= step] = 0
            half = steps == step + 1
            d[half] -= d[half] % draws
        if pairs is not None and step + 2 <= kmax and step + 1 not in wanted:
            gather(pairs, d)
            continue
        hi = d // draws
        d -= hi * draws                      # the low digit
        one_step(hi)
        snap(step + 1)
        if step + 2 <= kmax:
            one_step(d)
    if kmax % 2 == 0:
        snap(kmax)
    return [kept[k] for k in ks]


def _step_map(cfg: SimConfig, kmax: int, whole_pairs: bool = True):
    """(S, S2), the flat one- and two-step maps, or None when the walk
    carries (coords, pinv).  S[d * order + x] is the index of s_d x (the
    wreath.step_rows map gathered by draw, R[row_of]), and
    S2[(d1 D + d2) order + x] = S[d2, S[d1, x]], D = draw_count, steps a
    pair of draws.  A map is built only when it has at most min(kmax, n)
    cells per trial: then its build costs no more than the walk's steps,
    and it holds no more than the n coordinates a trial would (step_rows'
    memory check covers the build of R).  S2 is None past that rule, past
    PAIR_MAP_CELLS, or when the walk splits every pair (whole_pairs False:
    a wanted odd k in each)."""
    draws = draw_count(cfg.kind, cfg.n, cfg.g)
    order, cells = wreath_order(cfg.g.order, cfg.n), cfg.trials * min(kmax, cfg.n)
    if draws * order > cells:
        return None
    rows, row_of = step_rows(cfg.kind, cfg.n, cfg.g)
    succ = rows[row_of]
    pairs = None
    if whole_pairs and draws * draws * order <= min(cells, PAIR_MAP_CELLS):
        pairs = np.take(succ, succ, axis=1).transpose(1, 0, 2).reshape(-1)
    return succ.reshape(-1), pairs


def run_walk(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all trials; returns (coords, perms) arrays of shape
    (trials, n)."""
    return _walk(cfg, [cfg.k], lambda state: state, decoded=True)[0]


def run_walk_indices(cfg: SimConfig) -> np.ndarray:
    """Element indices (int64) of all trials after the walk, shape (trials,)."""
    return _walk(cfg, [cfg.k], lambda x: x.astype(np.int64, copy=False))[0]


def tv_curve(cfg: SimConfig, ks: list) -> list[tuple[float, float]]:
    """empirical_tv against the uniform law after k steps, for each k in
    ks (discrete mode, each k in 0..cfg.k), from one run to cfg.k.  The
    draws of a step do not depend on the step count, so each entry is that
    of a run of k steps from the same seed.  Each state is reduced to its
    (tv, se) when it is reached, so the run holds one state per trial."""
    if cfg.mode != "discrete":
        raise ValueError("step-count snapshots need discrete mode")
    order = cfg.g.order ** cfg.n * math.factorial(cfg.n)
    return _walk(cfg, list(ks), lambda x: empirical_tv(x, None, order))


def empirical_tv(samples: np.ndarray, reference, order: int) -> tuple[float, float]:
    """Plug-in TV between the empirical law of `samples` (element indices)
    and a reference distribution, with a grouped delete-one-block jackknife
    standard error.  reference: dict index -> prob, or None for uniform."""
    m = len(samples)
    if m < 2:
        raise ValueError("need at least 2 samples")
    pi = np.full(order, 1.0 / order)
    if reference is not None:
        pi = np.zeros(order)
        for i, p in reference.items():
            pi[i] = float(p)
    counts = np.bincount(samples, minlength=order).astype(np.float64)
    tv = 0.5 * np.abs(counts / m - pi).sum()
    B = min(JACKKNIFE_BLOCKS, m)
    edges = np.linspace(0, m, B + 1).astype(int)
    sizes = np.diff(edges)
    reps = np.empty(B)
    per = max(1, JACKKNIFE_CELLS // order)  # blocks a count, sample x of block b at b * order + x
    for lo in range(0, B, per):
        hi = min(lo + per, B)
        keys = np.repeat(np.arange(0, (hi - lo) * order, order), sizes[lo:hi])
        keys += samples[edges[lo]:edges[hi]]
        cb = np.bincount(keys, minlength=(hi - lo) * order).reshape(hi - lo, order)
        reps[lo:hi] = 0.5 * np.abs((counts - cb) / (m - sizes[lo:hi, None]) - pi).sum(1)
    se = math.sqrt((B - 1) / B * ((reps - reps.mean()) ** 2).sum())
    return float(tv), se


# ---------------------------------------------------------------------------
# coupling experiment

@dataclass
class CouplingReport:
    n: int
    trials: int
    seed: int
    t_samples: np.ndarray = field(repr=False)
    tstar_samples: np.ndarray = field(repr=False)
    rows: list = field(default_factory=list)

    columns = ("c", "threshold", "empirical_tail", "limit", "stderr", "trials", "seed")


# (class, trial) cells per chunk of trials: the chunk size is fixed by n, so
# peak memory depends on neither n nor the trial count
_CLASS_CELLS = 1 << 18
# the chain costs O(n^1.5) per trial (n - 1 merges over at most sqrt(2n) rows),
# so n * isqrt(n) * trials is capped and a request is refused before it runs
# for minutes; on a 2-vCPU machine the largest that fit took about 9 s
# (n = 100, 10^6 trials: the most time per unit) and 4 s (n = 10^4, 10^3
# trials), and n = 2000 with 10^4 trials about 3.4 s
COUPLING_WORK_CAP = 10 ** 9


def _pick(sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first row whose running weight sum exceeds u (sums
    holds the weights and becomes their running sums, in its own dtype)."""
    for r in range(1, len(sums)):
        sums[r] += sums[r - 1]
    return (sums <= u).view(np.uint8).sum(0, dtype=np.uint8).astype(np.intp)


def _connectivity_times(n: int, trials: int, rng) -> np.ndarray:
    """Times for the pair-event graph to connect, one per trial, by the
    component-size chain.  With Q the sum of squared sizes, each of the
    n - 1 merges (none at n = 1) comes at rate (n^2 - Q)/n^2 and joins two
    components with odds s_i s_j: a first class of equal sizes drawn with
    weight count*s*(n-s) of n^2 - Q, a second with count*s of n - s_a.  Rows
    hold a class's size and mass (count * size); a merged size joins its
    row, live or emptied, else the first empty one, so the sizes held are
    distinct, at most K = floor((sqrt(8n+1) - 1)/2) < 256 of them.

    Both classes come from one block of uniforms u by inverse CDF,
    floor(u * N) of N = n^2 - Q, then n - s_a (N < 2^52, so the product is
    below N).  Sizes and masses are at most n, weights and their running
    sums below n^2, and the slot key below 3K, each held in the narrowest
    unsigned dtype that fits."""
    out = np.zeros(trials)
    k, nn = (math.isqrt(8 * n + 1) - 1) // 2, n * n
    sd, wd, kd = (np.min_scalar_type(v) for v in (n, nn, 3 * k))
    chunk, rows = _CLASS_CELLS // k, np.arange(k, dtype=kd)[:, None]
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        cols, t, free = np.arange(m), out[start:start + m], np.full(m, nn - n, dtype=wd)
        size, mass = np.zeros((2, k, m), dtype=sd)
        size[0], mass[0] = 1, n
        sf, mf = size.reshape(-1), mass.reshape(-1)     # flat views: row * m + col
        weights = np.empty((k, m), dtype=wd)
        w = 1                          # rows >= w are still unused
        for _ in range(n - 1):
            t += rng.standard_exponential(m) * (nn / free)
            u = rng.random((2, m))
            s, c, sums = size[:w + 1], mass[:w + 1], weights[:w + 1]
            np.subtract(n, s, out=sums)
            sums *= c
            ia = _pick(sums, (u[0] * free).astype(wd)) * m + cols
            sa = sf[ia]
            mf[ia] -= sa
            np.copyto(sums, c)
            ib = _pick(sums, (u[1] * (n - sa)).astype(wd)) * m + cols
            sb = sf[ib]
            mf[ib] -= sb
            free -= 2 * np.multiply(sa, sb, dtype=wd)
            sa += sb                   # the merged size
            miss = s != sa
            key = miss.astype(kd)
            key += miss & (c > 0)
            key *= k
            key += rows[:w + 1]
            slot = (key.min(0) % k).astype(np.intp)
            at = slot * m + cols
            sf[at] = sa
            mf[at] += sa
            w = max(w, int(slot.max()) + 1)
    return out


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def coupling_experiment(n: int, trials: int, c_values, seed: int) -> CouplingReport:
    """Graph-connectivity coupling times for the paired walk's continuized
    chain.  T = connectivity time of the pair-event graph; T* adds an
    independent Exp(mean n) wait for the next single-coordinate event
    (aggregate rate 1/n, memoryless past T).  Emits, per c, a T row with
    the limit 1 - exp(-e^{-2c}) and a T* row with the envelope 2e^{-c}
    (past the float range, 1.0 and inf); threshold = (1/2) n log n + c n
    in continuous time."""
    if n > 10 ** 4 or trials > 10 ** 6:
        raise ValueError("caps: n <= 1e4, trials <= 1e6")
    work = n * math.isqrt(n) * trials
    if work > COUPLING_WORK_CAP:
        raise ValueError(f"n * isqrt(n) * trials = {work} exceeds cap {COUPLING_WORK_CAP}")
    rng = np.random.default_rng(seed)
    ts = _connectivity_times(n, trials, rng)
    tstars = ts + rng.exponential(float(n), size=trials)
    rows = []
    for c in c_values:
        thr = 0.5 * n * math.log(n) + c * n
        for samples, limit in (
            (ts, 1.0 - math.exp(-_exp_or_inf(-2.0 * c))),
            (tstars, 2.0 * _exp_or_inf(-c)),
        ):
            tail = float(np.mean(samples > thr))
            se = math.sqrt(tail * (1.0 - tail) / trials)
            rows.append(
                {
                    "c": c,
                    "threshold": thr,
                    "empirical_tail": tail,
                    "limit": limit,
                    "stderr": se,
                    "trials": trials,
                    "seed": seed,
                }
            )
    return CouplingReport(
        n=n, trials=trials, seed=seed, t_samples=ts, tstar_samples=tstars, rows=rows
    )
