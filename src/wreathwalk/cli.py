"""Command-line surface.

Subcommands
-----------
spectrum    exact deduplicated eigenvalue spectrum of a walk
distance    distance curve with every bound column; optional oracle check
threshold   mixing-time summary table rows for the chosen walk and group
oracle      brute-force convolution powers on the explicit group table
simulate    Monte Carlo walk runs with empirical TV against uniform
coupling    connectivity-time tails of the pair-event graph (component-size chain)
selftest    run the acceptance test suite; nonzero exit on any failure

--walk sym is the wreath walk on the trivial base (S_n is 1 wr S_n): it
ignores --group and runs the same code on Z:1, reporting the group as S_n.
The independent and paired walks need --group.

Exit codes: 0 success, 1 validation failure or cap exceeded (the message
names the cap), 2 usage error.

Output is CSV by default (LF line endings, rationals as "p/q", floats as
shortest round-trip repr, partitions dot-joined with "-" for the empty
partition) or JSON with --format json (rows mirror the CSV columns; the
meta object carries run parameters).  Identical command lines, including
--seed, produce byte-identical output.  Randomized subcommands prepend a
"# rng=PCG64" comment line to CSV and record the generator in JSON meta.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bounds import classify_base, distance_curve, mixing_threshold, threshold_rows
from .groups import build_group, cyclic_group
from .oracle import convolution_curve, exact_distances
from .reps import MAX_LABELS
from .simulate import (
    RNG_ALGORITHM,
    SimConfig,
    coupling_experiment,
    empirical_tv,
    run_walk_indices,
    tv_curve,
)
from .walks import build_measure, spectrum
from .wreath import MAX_WREATH_ORDER, build_wreath_table

SPECTRUM_COLUMNS = ("value_num", "value_den", "multiplicity", "n1", "lambda1")
DISTANCE_COLUMNS = ("k", "l2n_sq", "tv_upper_spectral", "tv_upper_coupling",
                    "l2_lower_dominant", "tv_lower_chebyshev")
THRESHOLD_COLUMNS = ("g_class", "metric", "direction", "formula", "asymptotic", "value")
ORACLE_COLUMNS = ("k", "return_prob", "l2n_sq", "tv")
SIMULATE_COLUMNS = ("k", "empirical_tv", "stderr", "exact_tv", "trials", "seed")
COUPLING_COLUMNS = ("c", "threshold", "empirical_tail", "limit", "stderr", "trials", "seed")


# ---------------------------------------------------------------------------
# serialization

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_cell(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def emit(columns, rows, meta: dict, fmt: str, out: str | None) -> None:
    """Single-writer output assembly; byte-stable for identical inputs."""
    if fmt == "json":
        doc = {
            "meta": {k: _json_cell(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [[_json_cell(c) for c in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        if "rng" in meta:
            buf.write(f"# rng={meta['rng']}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_cell(c) for c in row])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _fmt_partition(p) -> str:
    return ".".join(str(x) for x in p) if p else "-"


# ---------------------------------------------------------------------------
# flag parsing helpers

def parse_krange(text: str) -> list[int]:
    """a..b[:step], or a single integer."""
    step = 1
    body = text
    if ":" in body:
        body, stext = body.split(":", 1)
        step = int(stext)
    if ".." in body:
        a_text, b_text = body.split("..", 1)
        a, b = int(a_text), int(b_text)
    else:
        a = b = int(body)
    if a < 0 or b < a or step < 1:
        raise ValueError(f"bad k range {text!r}")
    return list(range(a, b + 1, step))


def parse_clist(text: str) -> list[float]:
    vals = [float(x) for x in text.split(",") if x.strip() != ""]
    if not vals or not all(map(math.isfinite, vals)):
        raise ValueError(f"bad c list {text!r}")
    return vals


def _check_common(args) -> None:
    if getattr(args, "n", None) is not None and args.n < 1:
        raise ValueError("n must be >= 1")
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")


def _group_for(args):
    """Base group of the walk: --group for the wreath walks, Z:1 for sym
    (S_n is 1 wr S_n)."""
    if args.walk == "sym":
        return cyclic_group(1)
    if not args.group:
        raise ValueError("wreath walks need --group (Z:m, S:m, or file:path)")
    return build_group(args.group)


def _group_name(args, g) -> str:
    return f"S_{args.n}" if args.walk == "sym" else g.name


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    _check_common(args)
    g = _group_for(args)
    spec = spectrum(args.walk, args.n, g, max_labels=args.max_labels)
    rows = [[line.value.numerator, line.value.denominator, line.multiplicity,
             line.witness.type[0], _fmt_partition(line.witness.lambdas[0])]
            for line in spec.lines]
    meta = {"subcommand": "spectrum", "walk": args.walk,
            "group": _group_name(args, g), "n": args.n,
            "order": spec.group_order, "distinct_values": len(spec.lines)}
    emit(SPECTRUM_COLUMNS, rows, meta, args.format, args.out)
    return 0


def cmd_distance(args) -> int:
    _check_common(args)
    g = _group_for(args)
    if args.check_oracle:                   # a table past its cap is refused before the curve
        gt = build_wreath_table(g, args.n, max_order=args.max_order).group
    curve = distance_curve(args.walk, args.n, g, ks=args.k, max_labels=args.max_labels)
    rows = []
    for r in curve.rows:
        rows.append([r["k"]] + [None if r[c] is None else float(r[c])
                                for c in DISTANCE_COLUMNS[1:]])
    meta = {"subcommand": "distance", "walk": args.walk,
            "group": _group_name(args, g), "n": args.n, "mode": curve.mode}
    rc = 0
    if args.check_oracle:
        measure = build_measure(args.walk, args.n, g)
        want = {r["k"]: r["l2n_sq"] for r in curve.rows}
        bound = curve.mode != "full-spectrum"     # an upper bound: only a shortfall fails
        worst = Fraction(0)
        for k, num, scale in convolution_curve(gt, measure, sorted(want)):
            truth = exact_distances(num, scale, gt.order)["l2n_sq"]
            val = want[k]
            if not isinstance(val, Fraction):
                val, truth = float(val), float(truth)
            worst = max(worst, truth - val if bound else abs(val - truth))
        ok = worst <= Fraction(1, 10 ** 9)
        what = (f"one-sided, mode {curve.mode} is an upper bound: max l2n_sq shortfall"
                if bound else "max |l2n_sq delta|")
        print(f"oracle-check: walk={args.walk} group={_group_name(args, g)} "
              f"n={args.n} {what} = {float(worst)!r} "
              f"({'ok' if ok else 'MISMATCH'})", file=sys.stderr)
        if not ok:
            rc = 1
    emit(DISTANCE_COLUMNS, rows, meta, args.format, args.out)
    return rc


def cmd_threshold(args) -> int:
    _check_common(args)
    g = _group_for(args)
    gclass = "Sm" if args.walk == "sym" else classify_base(g)
    rows = []
    for r in threshold_rows(args.walk):
        if r.g_class != gclass:
            continue
        if args.metric and r.metric != args.metric:
            continue
        value = (mixing_threshold(g, args.n, args.walk, r.metric)
                 if r.direction == "sufficient" else None)
        rows.append([r.g_class, r.metric, r.direction, r.formula, r.asymptotic, value])
    meta = {"subcommand": "threshold", "walk": args.walk,
            "group": _group_name(args, g), "n": args.n, "g_class": gclass}
    emit(THRESHOLD_COLUMNS, rows, meta, args.format, args.out)
    return 0


def cmd_oracle(args) -> int:
    _check_common(args)
    g = _group_for(args)
    gt = build_wreath_table(g, args.n, max_order=args.max_order).group
    measure = build_measure(args.walk, args.n, g)
    rows = []
    for k, num, scale in convolution_curve(gt, measure, sorted(set(args.k))):
        d = exact_distances(num, scale, gt.order)
        rows.append([k, Fraction(int(num[0]), scale), d["l2n_sq"], d["tv"]])
    meta = {"subcommand": "oracle", "walk": args.walk,
            "group": _group_name(args, g), "n": args.n, "order": gt.order}
    emit(ORACLE_COLUMNS, rows, meta, args.format, args.out)
    return 0


def _poisson_weight(t: float, k: int) -> float:
    """e^-t t^k / k!; past k = 170, where k! overflows a float, in log space."""
    if t == 0:
        return 1.0 if k == 0 else 0.0
    lw = -t + k * math.log(t)
    return math.exp(lw) / math.factorial(k) if k <= 170 else math.exp(lw - math.lgamma(k + 1))


def _float_law(num: np.ndarray, scale: int) -> np.ndarray:
    """num / scale as float64 by Python-int true division, which rounds
    each entry once: float(Fraction(x, scale)), at any size of scale."""
    return np.array([x / scale for x in num.tolist()])


def _poisson_reference_tvs(gt, measure, ts: list, order: int) -> list:
    """TV against uniform of the continuized law P_t for each t in ts, via
    a Poisson mixture of exact convolution powers truncated below 1e-12
    tail mass, from one pass to the largest truncation point; None where
    that point exceeds 400."""
    kcaps = [int(t + 12.0 * math.sqrt(t) + 30.0) for t in ts]
    rows = [r for r, kcap in enumerate(kcaps) if kcap <= 400]
    mix = np.zeros((len(rows), order))
    kmax = max((kcaps[r] for r in rows), default=-1)
    for k, num, scale in convolution_curve(gt, measure, list(range(kmax + 1))):
        w = [_poisson_weight(ts[r], k) if k <= kcaps[r] else 0.0 for r in rows]
        mix += np.array(w)[:, None] * _float_law(num, scale)
    out, u = [None] * len(ts), 1.0 / order
    for r, m in zip(rows, mix):
        out[r] = 0.5 * math.fsum(np.abs(m - u)) + 0.5 * (1.0 - math.fsum(m))
    return out


def cmd_simulate(args) -> int:
    _check_common(args)
    if args.trials < 2:
        raise ValueError("simulate needs --trials >= 2 for its stderr column")
    g = _group_for(args)
    gt = build_wreath_table(g, args.n, max_order=args.max_order).group  # order cap; exact column
    measure = build_measure(args.walk, args.n, g)
    order = gt.order
    rows = []
    if args.mode == "discrete":
        # one run to the largest k, each row read off it (see tv_curve)
        exact = {k: float(exact_distances(num, scale, order)["tv"])
                 for k, num, scale in convolution_curve(gt, measure, sorted(set(args.k)))}
        cfg = SimConfig(kind=args.walk, n=args.n, g=g, k=max(args.k),
                        trials=args.trials, seed=args.seed)
        for k, (tv, se) in zip(args.k, tv_curve(cfg, args.k)):
            rows.append([k, tv, se, exact[k], args.trials, args.seed])
    else:
        refs = _poisson_reference_tvs(gt, measure, [float(k) for k in args.k], order)
        for k, ref in zip(args.k, refs):
            cfg = SimConfig(kind=args.walk, n=args.n, g=g, t=float(k), trials=args.trials,
                            seed=args.seed, mode="continuized")
            tv, se = empirical_tv(run_walk_indices(cfg), None, order)
            rows.append([k, tv, se, ref, args.trials, args.seed])
    meta = {"subcommand": "simulate", "walk": args.walk,
            "group": _group_name(args, g), "n": args.n, "mode": args.mode,
            "trials": args.trials, "seed": args.seed, "rng": RNG_ALGORITHM}
    emit(SIMULATE_COLUMNS, rows, meta, args.format, args.out)
    return 0


def cmd_coupling(args) -> int:
    _check_common(args)
    rep = coupling_experiment(args.n, args.trials, args.c, args.seed)
    rows = [[r[c] for c in COUPLING_COLUMNS] for r in rep.rows]
    meta = {"subcommand": "coupling", "n": args.n, "trials": args.trials,
            "seed": args.seed, "rng": RNG_ALGORITHM}
    emit(COUPLING_COLUMNS, rows, meta, args.format, args.out)
    return 0


def cmd_selftest(args) -> int:
    root = Path(__file__).resolve().parents[2]
    acceptance = root / "tests" / "test_acceptance.py"
    if not acceptance.exists():
        print(f"error: acceptance suite not found at {acceptance}", file=sys.stderr)
        return 1
    return subprocess.call([sys.executable, "-m", "pytest", "-v", str(acceptance)])


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wreathwalk", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_io(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    def add_walk(sp):
        sp.add_argument("--group", default=None,
                        help="base group: Z:m, S:m (m <= 6), or file:path")
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--walk", choices=("sym", "independent", "paired"), required=True)

    sp = sub.add_parser("spectrum", help="exact eigenvalue spectrum")
    add_walk(sp)
    sp.add_argument("--max-labels", type=int, default=MAX_LABELS)
    add_io(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("distance", help="distance curve with bound columns")
    add_walk(sp)
    sp.add_argument("--k", type=parse_krange, default=None, help="a..b[:step]")
    sp.add_argument("--check-oracle", action="store_true",
                    help="verify l2n_sq against brute-force convolution (caps apply)")
    sp.add_argument("--max-labels", type=int, default=MAX_LABELS)
    sp.add_argument("--max-order", type=int, default=MAX_WREATH_ORDER)
    add_io(sp)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("threshold", help="mixing-time table rows")
    add_walk(sp)
    sp.add_argument("--metric", choices=("l2", "tv"), default=None)
    add_io(sp)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("oracle", help="exact convolution-power distances")
    add_walk(sp)
    sp.add_argument("--k", type=parse_krange, default=list(range(11)), help="a..b[:step]")
    sp.add_argument("--max-order", type=int, default=MAX_WREATH_ORDER)
    add_io(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("simulate", help="Monte Carlo runs with empirical TV")
    add_walk(sp)
    sp.add_argument("--k", type=parse_krange, default=list(range(11)),
                    help="step counts; time horizons t in continuized mode")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0, help="unsigned 64-bit; each k row reruns from this seed")
    sp.add_argument("--mode", choices=("discrete", "continuized"), default="discrete")
    sp.add_argument("--max-order", type=int, default=MAX_WREATH_ORDER)
    add_io(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("coupling", help="connectivity-time tail experiment")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=parse_clist, default=[0.0, 1.0, 2.0],
                    help="comma list of threshold offsets")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    add_io(sp)
    sp.set_defaults(func=cmd_coupling)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
