"""The benchmark's own tests.

    python3 -m pytest perfbench

A reduced-size pass of every workload through the real harness (fresh
processes, checks, traced run), and checks that the output checker catches
corrupted outputs.
"""
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, operations  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload(workload):
    out = run.run(workload, seed=7, seconds=0, trace=True, scale="smoke")
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(operations(workload, 7, smoke=True))
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert out["record"]["processes"] == 1
    plain = run.run(workload, seed=7, seconds=0, trace=False, scale="smoke")["result"]
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    json.dumps(result)


def test_layer_attribution_smoke():
    metrics = run.run("brute-force", seed=7, seconds=0, trace=True, scale="smoke")["result"]["metrics"]
    assert metrics["simulate.self_s"]["value"] > 0
    assert metrics["oracle.conv_steps"]["value"] > 0
    assert metrics["wreath.table_entries_per_s"]["value"] > 0
    assert metrics["bounds.brackets"]["value"] == 0


def test_self_time_merges_same_layer_spans():
    t = tracer.Tracer()
    t.names = ["bounds.a", "partitions.b", "bounds.c"]
    # (function, start, end, parent): bounds.a holds partitions.b and
    # bounds.c, which holds another partitions.b
    for fn, start, end, parent in ((0, 0, 10, -1), (1, 1, 4, 0), (2, 5, 9, 0), (1, 6, 8, 2)):
        t.fn.append(fn)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    st = t.self_times()
    assert st["bounds"] == 5 and st["partitions"] == 5
    assert sum(st.values()) == 10


def test_install_rebinds_importers_and_restores():
    from wreathwalk import bounds, build_group, partitions, reps, walks

    original = partitions.dim_partition
    t = tracer.Tracer()
    t.install()
    try:
        assert walks.dim_partition is reps.dim_partition is t.resolve(original)
        assert walks.dim_partition is not original
        assert bounds.partitions_of is not partitions.partitions_of  # recursive: kept inside
        walks.spectrum("independent", 3, build_group("Z:2"))
    finally:
        t.uninstall()
    assert walks.dim_partition is original
    metrics = t.layer_metrics()
    assert metrics["reps.labels"] == 10 and metrics["walks.lines"] > 0
    assert metrics["partitions.dim_calls"] > 0 and metrics["partitions.self_s"] > 0


@pytest.fixture(scope="module")
def smoke_records():
    """One untraced smoke process per workload: (ops, records, reference)."""
    out = {}
    for workload in WORKLOADS:
        doc, _ = run.spawn([workload, "3", "smoke", "0"])
        out[workload] = (operations(workload, 3, smoke=True), doc["ops"],
                         run.load_reference(workload, "smoke"))
    return out


def _find(smoke_records, check_name):
    for ops, recs, ref in smoke_records.values():
        for op, rec in zip(ops, recs):
            if op.check == check_name:
                assert checks.check(op, rec, ref[op.id]) == []
                return op, copy.deepcopy(rec), ref[op.id]
    raise LookupError(check_name)


def test_checker_flags_altered_fraction(smoke_records):
    op, rec, ref = _find(smoke_records, "exact")
    lines = rec["stdout"].splitlines()
    cells = lines[2].split(",")
    cells[1] = cells[1] + "1"                    # one p/q cell, one digit more
    rec["stdout"] = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert checks.check(op, rec, ref)


def test_checker_float_tolerance(smoke_records):
    op, rec, ref = _find(smoke_records, "floats")
    rows = rec["stdout"].splitlines()
    cells = rows[3].split(",")
    value = float(cells[1])
    for scale, flagged in ((1 + 1e-12, False), (1 + 1e-6, True)):
        cells[1] = repr(value * scale)
        rec["stdout"] = "\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n"
        assert bool(checks.check(op, rec, ref)) is flagged


def test_checker_flags_inverted_bracket(smoke_records):
    op, rec, ref = _find(smoke_records, "bracket")
    lo, hi = rec["value"]
    rec["value"] = [hi * 2, hi]
    assert any("lo" in p for p in checks.check(op, rec, ref))
    rec["value"] = [lo / 10, hi]                 # looser than the reference
    assert any("looser" in p for p in checks.check(op, rec, ref))


def test_checker_flags_overlap_miss(smoke_records):
    op, rec, ref = _find(smoke_records, "overlap")
    lo, hi, exact = rec["value"][1]
    rec["value"][1] = [hi * 2, hi * 3, exact]
    assert checks.check(op, rec, ref)


def test_checker_flags_biased_simulation(smoke_records):
    op, rec, ref = _find(smoke_records, "simulate")
    lines = rec["stdout"].splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 0.2)       # empirical tv far from exact
    rec["stdout"] = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    assert checks.check(op, rec, ref)


def test_checker_flags_coupling_tail(smoke_records):
    op, rec, ref = _find(smoke_records, "coupling")
    lines = rec["stdout"].splitlines()
    cells = lines[2].split(",")                  # the T row at c = 0
    cells[2] = repr(float(cells[3]) + 0.06)
    rec["stdout"] = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert checks.check(op, rec, ref)


def test_checker_flags_traceback_refusal(smoke_records):
    op, rec, ref = _find(smoke_records, "refusal")
    rec["rc"] = None
    rec["traceback"] = "Traceback (most recent call last):\nZeroDivisionError: float division by zero\n"
    assert checks.check(op, rec, ref)


@pytest.mark.xfail(strict=True, reason="coupling --n 1 dies with a ZeroDivisionError traceback")
def test_coupling_n1_refuses_cleanly():
    proc = subprocess.run([sys.executable, "-m", "wreathwalk", "coupling", "--n", "1",
                           "--trials", "10"], cwd=run.ROOT, capture_output=True, text=True,
                          env={"PYTHONPATH": str(run.ROOT / "src")}, timeout=60)
    rec = {"id": "coupling-n1", "rc": proc.returncode, "traceback": None,
           "stdout": proc.stdout, "stderr": proc.stderr, "dt": 0.0}
    assert checks.check(Op(id="coupling-n1", check="refusal"), rec, {}) == []


def test_missing_source_tree_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "brute-force",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
