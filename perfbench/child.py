"""One fresh workload process.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py WORKLOAD SEED full|smoke 0|1

The process imports wreathwalk from the checkout's ``src/`` and stamps the
moment it could run its first operation; the parent subtracts its own
spawn time from that stamp to get the set-up time.  It then issues the
workload's operations in order, one at a time, and prints one JSON line
with each operation's duration and raw output, its peak memory, the
machine-speed factor measured while the operations ran and, when traced,
the per-layer metrics.  Output checks happen in the parent.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import wreathwalk  # noqa: E402
import wreathwalk.cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy  # noqa: E402

# On a machine whose cores are shared with other tenants, the speed of one
# core drifts by tens of percent over minutes.  While the operations run, a
# timer interrupts them every PROBE_INTERVAL_S and times a fixed piece of
# exact rational arithmetic, the kind of work most operations do; the mean
# of REF_PROBE_S / probe time is the speed factor that turns their wall
# time into seconds at the reference speed.
PROBE_INTERVAL_S = 0.02
REF_PROBE_S = 1.0e-4
PROBES: list = []


def probe(signum, frame) -> None:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(1, i)
    PROBES.append(time.perf_counter() - t0)


def plain(value):
    """JSON-ready copy of a library result; Fractions become "p/q"."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def run_op(op, calls, api) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rec = {"id": op.id, "rc": None, "value": None, "traceback": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv:
                try:
                    rec["rc"] = api(wreathwalk.cli.main)(list(op.argv))
                except SystemExit as e:
                    rec["rc"] = e.code
            else:
                rec["value"] = plain(calls[op.call](api, *op.args))
    except Exception:
        rec["traceback"] = traceback.format_exc()
    rec["dt"] = time.perf_counter() - t0
    rec["stdout"] = out.getvalue()
    rec["stderr"] = err.getvalue()
    return rec


def main(argv) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.abspath(wreathwalk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"wreathwalk imported from {wreathwalk.__file__}, not {SRC}")
    doc = {"ready": READY, "python": sys.version.split()[0], "numpy": numpy.__version__}
    if argv == ["--setup-only"]:
        return doc
    workload, seed, scale, traced = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    sys.path.insert(0, here)
    import workloads

    tracer = None
    api = lambda f: f  # noqa: E731
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        api = tracer.resolve
    ops = workloads.operations(workload, seed, scale == "smoke")
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        doc["ops"] = [run_op(op, workloads.CALLS, api) for op in ops]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    doc["probes"] = len(PROBES)
    doc["speed"] = sum(REF_PROBE_S / p for p in PROBES) / len(PROBES) if PROBES else 1.0
    doc["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.layer_metrics(doc["speed"])
        out_dir = os.path.join(os.path.dirname(here), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{workload}-{scale}.npz"))
    return doc


if __name__ == "__main__":
    sys.__stdout__.write(json.dumps(main(sys.argv[1:])) + "\n")
