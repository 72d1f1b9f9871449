"""wreathwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload process is a fresh,
single-threaded Python process (closed loop, one client) that imports
wreathwalk from ``src/`` and issues the workload's operations in order, so
every run pays the cold caches a CLI user pays.  The run starts workload
processes one after another until the next one would end after --seconds
(at least one), plus a few import-only processes for the set-up time, and
checks every output against the references in ``reference/``.

--trace 0 reports the end-to-end metrics (medians over the processes):
  wall_s        time for all of the workload's operations after set-up,
                rescaled to the reference machine speed (see child.py;
                the raw wall times are in the run record)
  setup_s       interpreter start plus ``import wreathwalk``
  peak_rss_mib  peak resident memory of a workload process
--trace 1 adds one traced process and reports the per-layer metrics from
it, trace.overhead_s (traced wall_s minus untraced wall_s), fail_frac
(failed over attempted operations) and bracket_gap (mean log10(hi/lo) of
the workload's bracket rows; 0 where it has none).

The last stdout line is the JSON result; the lines before it are the run
record and a readable summary.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SETUP_PROBES = 7          # import-only processes per run, for setup_s
PROCESS_TIMEOUT = 150.0   # seconds; a workload process is killed after this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "partitions.self_s": "s", "partitions.dim_calls": "count",
    "partitions.dim_distinct_ratio": "ratio",
    "reps.self_s": "s", "reps.labels": "count",
    "walks.self_s": "s", "walks.lines": "count", "walks.lines_per_label": "ratio",
    "walks.l2_evals": "count",
    "classes.self_s": "s",
    "bounds.self_s": "s", "bounds.brackets": "count", "bounds.s_per_bracket": "s",
    "groups.self_s": "s",
    "wreath.self_s": "s", "wreath.table_entries_per_s": "1/s",
    "oracle.self_s": "s", "oracle.conv_steps": "count", "oracle.updates_per_s": "1/s",
    "oracle.dense_madds_per_s": "1/s",
    "simulate.self_s": "s", "simulate.trial_steps_per_s": "1/s",
    "simulate.coupling_trials_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
    "bracket_gap": "log10",
}


def spawn(args: list[str]) -> tuple[dict, float]:
    """Run one child process to completion; returns its JSON document and
    the perf_counter value just before it was started."""
    cmd = [sys.executable, "-s", str(HERE / "child.py"), *args]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"          # same dict and set layout in every process
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}: {err.strip()}")
    return json.loads(out.splitlines()[-1]), t_spawn


def load_reference(workload: str, scale: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())[scale]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    ops = operations(workload, seed, smoke=scale == "smoke")
    reference = load_reference(workload, scale)
    record = {
        "workload": workload, "seed": seed, "scale": scale, "trace": int(trace),
        "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "commit": git_commit(),
    }

    setup = []
    for _ in range(SETUP_PROBES):
        doc, t_spawn = spawn(["--setup-only"])
        setup.append(doc["ready"] - t_spawn)
    record["python"], record["numpy"] = doc["python"], doc["numpy"]

    args = [workload, str(seed), scale]
    plain, traced = [], None
    t_start = time.perf_counter()
    while True:
        doc, t_spawn = spawn([*args, "0"])
        setup.append(doc["ready"] - t_spawn)
        plain.append(doc)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(plain) > seconds:
            break
    if trace:
        traced, _ = spawn([*args, "1"])

    attempted = failed = 0
    problems = []
    for doc in plain + ([traced] if traced else []):
        for op, rec in zip(ops, doc["ops"], strict=True):
            attempted += 1
            found = check(op, rec, reference.get(op.id, {}))
            if found:
                failed += 1
                problems.append(f"{op.id}: {'; '.join(found)}")

    raw_walls = [sum(r["dt"] for r in doc["ops"]) for doc in plain]
    walls = [w * doc["speed"] for w, doc in zip(raw_walls, plain)]
    record["processes"] = len(plain)
    record["setup_samples"] = len(setup)
    record["raw_wall_s"] = raw_walls
    record["speed"] = [doc["speed"] for doc in plain]
    record["op_seconds"] = {op.id: statistics.median(doc["ops"][i]["dt"] * doc["speed"]
                                                     for doc in plain)
                            for i, op in enumerate(ops)}
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(doc["peak_rss_mib"] for doc in plain),
        }
        units = END_TO_END_UNITS
    else:
        metrics = dict(traced["layers"])
        traced_wall = sum(r["dt"] for r in traced["ops"]) * traced["speed"]
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["fail_frac"] = failed / attempted
        gaps = [math.log10(r["value"][1] / r["value"][0])
                for op, r in zip(ops, plain[0]["ops"])
                if op.bracket_row and r["value"] and r["value"][0] > 0]
        metrics["bracket_gap"] = statistics.fmean(gaps) if gaps else 0.0
        units = LAYER_UNITS
    return {
        "record": record,
        "problems": problems,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "wreathwalk" / "__init__.py").is_file():
        print(f"error: no wreathwalk source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("record: " + json.dumps(out["record"], sort_keys=True))
    for line in out["problems"]:
        print("FAILED " + line)
    for name, m in out["result"]["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
