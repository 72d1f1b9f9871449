"""The benchmark's workloads: the operations each one issues, in order.

Every operation is either a CLI command, run through ``wreathwalk.cli.main``
with its output captured, or a call into the public library where the CLI
has no surface.  Sizes are fixed; the workload seed only feeds the seeds of
the randomized operations, so run time does not depend on it.

``smoke`` gives a reduced-size copy of each workload with the same
operation kinds and checks, for the benchmark's own tests.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

WORKLOADS = ("exact-spectrum", "cutoff-window", "brute-force")


@dataclass(frozen=True)
class Op:
    id: str
    check: str               # name of the checker in checks.py
    argv: tuple = ()         # CLI operation
    call: str = ""           # library operation: a function in CALLS
    args: tuple = ()
    order: int = 0           # group order, for the simulate check
    bracket_row: bool = False  # counts towards bracket_gap


def derive_seed(seed: int, tag: str) -> int:
    """Per-operation RNG seed from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cli(op_id: str, check: str, command: str, **kw) -> Op:
    return Op(id=op_id, check=check, argv=tuple(command.split()), **kw)


def k0(g_order: int, n: int) -> int:
    """Schoolfield's l2 cutoff for the independent walk."""
    extra = 0.25 * n * math.log(g_order - 1) if g_order > 1 else 0.0
    return math.ceil(0.5 * n * math.log(n) + extra)


def exact_spectrum(seed: int, smoke: bool) -> list[Op]:
    n_ind, n_sym, n_pair, n_spec = (8, 12, 5, 4) if smoke else (20, 30, 10, 8)
    return [
        cli(f"distance-Z2-independent-n{n_ind}", "floats",
            f"distance --group Z:2 --n {n_ind} --walk independent --k 0..40"),
        cli(f"distance-sym-n{n_sym}", "floats", f"distance --n {n_sym} --walk sym --k 0..60"),
        cli(f"distance-Z3-paired-n{n_pair}", "floats",
            f"distance --group Z:3 --n {n_pair} --walk paired --k 0..40"),
        cli(f"spectrum-S3-paired-n{n_spec}", "exact",
            f"spectrum --group S:3 --n {n_spec} --walk paired"),
        cli("refuse-label-cap", "refusal",
            "spectrum --group Z:2 --n 30 --walk independent --max-labels 100000"),
    ]


def cutoff_window(seed: int, smoke: bool) -> list[Op]:
    n, n_big = (30, 36) if smoke else (200, 1000)
    cs = (-1.0, 0.0, 1.0) if smoke else (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    ks_ind = f"{2 * n}..{4 * n}:{n // 4 if smoke else 50}"
    ks_pair = f"{5 * n}..{7 * n}:{n if smoke else 100}"
    # the smoke size would fit the label cap; keep it on the windowed path
    cap = " --max-labels 1000" if smoke else ""
    ops = [
        cli(f"distance-Z2-independent-n{n}", "floats",
            f"distance --group Z:2 --n {n} --walk independent --k {ks_ind}{cap}"),
        cli(f"distance-S3-paired-n{n}", "floats",
            f"distance --group S:3 --n {n} --walk paired --k {ks_pair}{cap}"),
    ]
    for a in (2, 720):
        for c in cs:
            k = k0(a, n) + math.ceil(c * n)
            ops.append(Op(id=f"bracket-a{a}-n{n}-c{c:+}", check="bracket",
                          call="bracket", args=(a, n, k), bracket_row=True))
    ops.append(Op(id=f"envelope-a720-n{n}", check="envelope", call="envelope",
                  args=(720, n, 1.0)))
    ops.append(Op(id=f"bracket-a2-n{n_big}", check="bracket", call="bracket",
                  args=(2, n_big, k0(2, n_big) - n_big // 2), bracket_row=True))
    ops.append(Op(id="overlap-a2-n12", check="overlap", call="overlap",
                  args=(2, 12, (1, 15, 30, 60))))
    return ops


def brute_force(seed: int, smoke: bool) -> list[Op]:
    sim_seed = derive_seed(seed, "simulate")
    cpl_seed = derive_seed(seed, "coupling")
    if smoke:
        return [
            cli("oracle-Z2-independent-n3", "exact",
                "oracle --group Z:2 --n 3 --walk independent --k 0..10"),
            cli("distance-Z2-independent-n3-check-oracle", "floats",
                "distance --group Z:2 --n 3 --walk independent --k 0..10 --check-oracle"),
            Op(id="dense-traces-Z2-paired-n2", check="traces", call="dense_traces",
               args=("Z:2", 2, "paired", 4)),
            cli("simulate-Z2-independent-n2", "simulate",
                f"simulate --group Z:2 --n 2 --walk independent --k 0..20:10 "
                f"--trials 20000 --seed {sim_seed}", order=8),
            cli("coupling-n100", "coupling",
                f"coupling --n 100 --c 0,1,2 --trials 2000 --seed {cpl_seed}"),
            cli("refuse-order-cap", "refusal", "oracle --group Z:2 --n 6 --walk independent"),
        ]
    return [
        cli("oracle-S3-paired-n3", "exact", "oracle --group S:3 --n 3 --walk paired --k 0..20"),
        cli("distance-Z2-independent-n4-check-oracle", "floats",
            "distance --group Z:2 --n 4 --walk independent --k 0..30 --check-oracle"),
        Op(id="dense-traces-Z3-paired-n3", check="traces", call="dense_traces",
           args=("Z:3", 3, "paired", 6)),
        cli("simulate-Z3-paired-n3", "simulate",
            f"simulate --group Z:3 --n 3 --walk paired --k 0..40:10 "
            f"--trials 100000 --seed {sim_seed}", order=162),
        cli("coupling-n200", "coupling",
            f"coupling --n 200 --c 0,1,2 --trials 10000 --seed {cpl_seed}"),
        cli("refuse-order-cap", "refusal", "oracle --group Z:2 --n 6 --walk independent"),
    ]


def operations(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    builders = {"exact-spectrum": exact_spectrum, "cutoff-window": cutoff_window,
                "brute-force": brute_force}
    return builders[workload](seed, smoke)


# ---------------------------------------------------------------------------
# library operations; `api` maps a wreathwalk function to the callable to use
# (its traced stand-in in a traced run)

def bracket(api, g_order, n, k):
    from wreathwalk import bounds
    return api(bounds.l2n_sq_collapsed_bounds)(g_order, n, k)


def envelope(api, g_order, n, c):
    from wreathwalk import bounds
    return api(bounds.envelope_decay_certificate)(g_order, n, c)


def overlap(api, g_order, n, ks):
    """(lo, hi, exact) per k: the windowed bracket against the exact sum."""
    from wreathwalk import bounds
    out = []
    for k in ks:
        lo, hi = api(bounds.l2n_sq_collapsed_bounds)(g_order, n, k)
        out.append((lo, hi, api(bounds.l2n_sq_collapsed)(g_order, n, k, exact=True)))
    return out


def dense_traces(api, group, n, walk, k_max):
    """tr(M^k), k <= k_max, of the walk's dense transition matrix on G wr S_n."""
    from wreathwalk import groups, oracle, walks, wreath
    g = api(groups.build_group)(group)
    table = api(wreath.build_wreath_table)(g, n).group
    measure = api(walks.build_measure)(walk, n, g)
    matrix = api(oracle.build_transition_matrix)(table, measure)
    return api(oracle.matrix_power_traces)(matrix, k_max)


CALLS = {"bracket": bracket, "envelope": envelope, "overlap": overlap,
         "dense_traces": dense_traces}
