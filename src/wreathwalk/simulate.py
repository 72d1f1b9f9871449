"""Monte Carlo side: vectorized walk sampling (discrete and continuized),
empirical TV with jackknife errors, and the two coupling experiments (the
per-coordinate randomization tail and the pair-event graph connectivity
time).

Every walk step is one `wreath.apply_steps` call on row-aligned draws.

Randomness contract: everything goes through numpy's default_rng (PCG64),
and every report records the seed.  Per step the sampler draws, in order,
p, then q, then a, then b (for the paired walk b = a^-1, not a draw),
regardless of whether p == q, so the stream layout is fixed.  The sym walk
draws a and b on Z:1, and integers(0, 1) consumes no random bits, so its
stream is p and q alone.  The coupling experiment draws, per chunk of
trials, the uniform Prim keys (one (chunk, n-1) array, then one array per
tree step for the keys that step reads), with the chunk size fixed by n;
then one Exp(mean n) per trial for T*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import GroupTable
from .wreath import apply_steps, encode_states, walk_base

RNG_ALGORITHM = "PCG64"
JACKKNIFE_BLOCKS = 100             # delete-one-block jackknife groups in empirical_tv


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
        self.g = walk_base(self.kind, self.g)
        if self.trials < 1:
            raise ValueError("trials >= 1")
        if self.mode not in ("discrete", "continuized"):
            raise ValueError("mode is discrete or continuized")
        if self.mode == "continuized" and self.t is None:
            raise ValueError("continuized mode needs a time horizon t")


def run_walk(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all trials; returns (coords, perms) arrays of shape
    (trials, n).  Tracks the inverse permutation internally so a step is
    O(1) per trial."""
    rng = np.random.default_rng(cfg.seed)
    T, n, g = cfg.trials, cfg.n, cfg.g
    coords = np.zeros((T, n), dtype=np.int64)
    pinv = np.tile(np.arange(n, dtype=np.int64), (T, 1))
    if cfg.mode == "continuized":
        steps = rng.poisson(cfg.t, size=T)
        kmax = int(steps.max()) if T else 0
    else:
        kmax = cfg.k
    rows = np.arange(T)
    for step in range(kmax):
        p = rng.integers(0, n, size=T)
        q = rng.integers(0, n, size=T)
        a = rng.integers(0, g.order, size=T)
        b = g.inv[a] if cfg.kind == "paired" else rng.integers(0, g.order, size=T)
        r = rows
        if cfg.mode == "continuized":        # the trials whose Poisson count exceeds step
            on = steps > step
            r, p, q, a, b = rows[on], p[on], q[on], a[on], b[on]
        apply_steps(coords, pinv, r, p, q, a, b, g.mult)
    perms = np.empty_like(pinv)
    np.put_along_axis(perms, pinv, np.broadcast_to(np.arange(n), (T, n)), axis=1)
    return coords, perms


def run_walk_indices(cfg: SimConfig) -> np.ndarray:
    coords, perms = run_walk(cfg)
    return encode_states(coords, perms, cfg.g.order)


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
    reps = []
    for b in range(B):
        blk = samples[edges[b]:edges[b + 1]]
        cb = np.bincount(blk, minlength=order).astype(np.float64)
        mb = len(blk)
        reps.append(0.5 * np.abs((counts - cb) / (m - mb) - pi).sum())
    reps = np.asarray(reps)
    se = math.sqrt((B - 1) / B * ((reps - reps.mean()) ** 2).sum())
    return float(tv), se


def one_step_counts(kind: str, n: int, g: GroupTable | None, draws: int,
                    seed: int) -> np.ndarray:
    """Element-index histogram of single steps from the identity; for
    goodness-of-fit checks against the exact measure."""
    cfg = SimConfig(kind=kind, n=n, g=g, k=1, trials=draws, seed=seed)
    idx = run_walk_indices(cfg)
    return np.bincount(idx, minlength=cfg.g.order ** n * math.factorial(n))


# ---------------------------------------------------------------------------
# coupling experiments

def per_step_hit_probability(n: int) -> Fraction:
    """Chance a fixed coordinate is randomized in one independent-walk
    step: p=q=i plus the 2(n-1) ordered pairs touching i."""
    return Fraction(2 * n - 1, n * n)


def discrete_coupling_tail(n: int, k: int, trials: int, seed: int) -> float:
    """Empirical P{T > k} where T is the first step by which every
    coordinate has been randomized (both endpoints count on p != q steps,
    the single coordinate on p == q steps)."""
    rng = np.random.default_rng(seed)
    touched = np.zeros((trials, n), dtype=bool)
    rows = np.arange(trials)
    for _ in range(k):
        p = rng.integers(0, n, size=trials)
        q = rng.integers(0, n, size=trials)
        touched[rows, p] = True
        touched[rows, q] = True
    return float(np.mean(~touched.all(axis=1)))


def discrete_coupling_bound(n: int, k: int) -> float:
    """Union bound n (1 - 1/n)^{2k} on the tail above."""
    return n * (1.0 - 1.0 / n) ** (2 * k)


@dataclass
class CouplingReport:
    n: int
    trials: int
    seed: int
    t_samples: np.ndarray = field(repr=False)
    tstar_samples: np.ndarray = field(repr=False)
    rows: list = field(default_factory=list)

    columns = ("c", "threshold", "empirical_tail", "limit", "stderr", "trials", "seed")


# Prim keys held per chunk of trials; fixes the chunk size for each n, so
# peak memory depends on neither n nor the trial count
_PRIM_KEYS = 1 << 18
# Prim reads O(n^2) keys per trial, a few ns each: n^2 * trials is capped so
# a request is refused before it runs for minutes (n = 1000 with 10^4 trials
# is the largest that fits)
COUPLING_WORK_CAP = 10 ** 10


def _connectivity_times(n: int, trials: int, rng) -> np.ndarray:
    """Times for the pair-event graph to connect, one per trial.  Pair
    events form a Poisson stream at aggregate rate (n-1)/n, each joining a
    uniform unordered pair, so each pair first fires after an independent
    Exp(rate 2/n^2) wait and the graph connects at the bottleneck (largest)
    edge of the minimum spanning tree of those waits.

    Prim's algorithm, batched over a chunk of trials: one key per vertex
    outside the tree.  Prim reads each edge weight once, so a weight is
    drawn when first read; weights are uniforms, mapped to Exp(mean n^2/2)
    by an increasing map, which keeps the tree and its bottleneck, and only
    the bottleneck is mapped."""
    out = np.zeros(trials)
    if n == 1:
        return out                     # one vertex: connected at once
    chunk = max(1, _PRIM_KEYS // (n - 1))
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        rows = np.arange(m)
        keys = rng.random((m, n - 1))  # edges from vertex 0
        worst = np.zeros(m)
        for width in range(n - 1, 0, -1):
            j = keys[:, :width].argmin(axis=1)
            np.maximum(worst, keys[rows, j], out=worst)
            keys[rows, j] = keys[:, width - 1]
            rest = keys[:, :width - 1]
            np.minimum(rest, rng.random((m, width - 1)), out=rest)
        out[start:start + m] = worst
    return -(n * n / 2.0) * np.log1p(-out)


def coupling_experiment(n: int, trials: int, c_values, seed: int) -> CouplingReport:
    """Graph-connectivity coupling times for the paired walk's continuized
    chain.  T = connectivity time of the pair-event graph; T* adds an
    independent Exp(mean n) wait for the next single-coordinate event
    (aggregate rate 1/n, memoryless past T).  Emits, per c, a T row with
    the limit 1 - exp(-e^{-2c}) and a T* row with the envelope 2e^{-c};
    threshold = (1/2) n log n + c n in continuous time."""
    if n > 10 ** 4 or trials > 10 ** 6:
        raise ValueError("caps: n <= 1e4, trials <= 1e6")
    if n * n * trials > COUPLING_WORK_CAP:
        raise ValueError(f"n^2 * trials = {n * n * trials} exceeds cap {COUPLING_WORK_CAP}")
    rng = np.random.default_rng(seed)
    ts = _connectivity_times(n, trials, rng)
    tstars = ts + rng.exponential(float(n), size=trials)
    rows = []
    for c in c_values:
        thr = 0.5 * n * math.log(n) + c * n
        for samples, limit in (
            (ts, 1.0 - math.exp(-math.exp(-2.0 * c))),
            (tstars, 2.0 * math.exp(-c)),
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
