"""CLI contract: pinned headers, exit codes, byte-stable output, worked
examples."""
import json
import math
import subprocess
import sys

import pytest

from wreathwalk import cli
from wreathwalk.cli import main, parse_clist, parse_krange
from wreathwalk.groups import build_group
from wreathwalk.oracle import convolution_power, exact_distances, measure_on_table
from wreathwalk.walks import build_measure


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_spectrum_worked_example(capsys):
    rc, out, _ = run_cli(capsys, ["spectrum", "--group", "Z:2", "--n", "2",
                                  "--walk", "independent"])
    assert rc == 0
    assert out == (
        "value_num,value_den,multiplicity,n1,lambda1\n"
        "1,1,1,2,2\n"
        "1,4,4,1,1\n"
        "0,1,3,2,1.1\n"
    )


def test_spectrum_sym(capsys):
    rc, out, _ = run_cli(capsys, ["spectrum", "--n", "3", "--walk", "sym"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value_num,value_den,multiplicity,n1,lambda1"
    # S_3: eigenvalues 1, 1/3 (mult 4), -1/3 (mult 1)
    assert lines[1] == "1,1,1,3,3"
    assert lines[2] == "1,3,4,3,2.1"
    assert lines[3] == "-1,3,1,3,1.1.1"


def test_threshold_worked_example(capsys):
    rc, out, _ = run_cli(capsys, ["threshold", "--group", "Z:2", "--n", "100",
                                  "--walk", "independent", "--metric", "l2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g_class,metric,direction,formula,asymptotic,value"
    want = repr(0.5 * 100 * math.log(100))
    assert lines[1] == f"Z2,l2,sufficient,(1/2) n log n,false,{want}"
    assert lines[2] == "Z2,l2,necessary,(1/2) n log n,false,"


def test_distance_check_oracle(capsys):
    rc, out, err = run_cli(capsys, ["distance", "--group", "Z:2", "--n", "3",
                                    "--walk", "independent", "--k", "0..10",
                                    "--check-oracle"])
    assert rc == 0
    assert "max |l2n_sq delta| = 0.0 (ok)" in err
    lines = out.strip().split("\n")
    assert lines[0] == ("k,l2n_sq,tv_upper_spectral,tv_upper_coupling,"
                        "l2_lower_dominant,tv_lower_chebyshev")
    assert len(lines) == 12
    assert lines[1].startswith("0,47.0,1.0,1.0,")


FULL_Z2 = ["--group", "Z:2", "--n", "3", "--walk", "independent", "--k", "0..3"]
RELAXED_S3 = ["--group", "S:3", "--n", "3", "--walk", "paired", "--k", "0..3",
              "--max-labels", "10"]


@pytest.mark.parametrize("argv,shift,ok", [
    (FULL_Z2, lambda v: v + 1, False),        # full spectrum: two-sided
    (FULL_Z2, lambda v: v - 1, False),
    (RELAXED_S3, lambda v: v, True),          # a bound: only a shortfall fails
    (RELAXED_S3, lambda v: v + 1, True),
    (RELAXED_S3, lambda v: v - 1e4, False),
], ids=["full-above", "full-below", "bound", "bound-above", "bound-below"])
def test_check_oracle_sides(capsys, monkeypatch, argv, shift, ok):
    real = cli.distance_curve

    def shifted(*args, **kw):
        curve = real(*args, **kw)
        for row in curve.rows:
            row["l2n_sq"] = shift(row["l2n_sq"])
        return curve

    monkeypatch.setattr(cli, "distance_curve", shifted)
    rc, _, err = run_cli(capsys, ["distance", "--check-oracle"] + argv)
    assert (rc, err.endswith("(ok)\n")) == ((0, True) if ok else (1, False))
    assert ok or "MISMATCH" in err
    one_sided = "one-sided, mode relaxed is an upper bound: max l2n_sq shortfall" in err
    assert one_sided == (argv is RELAXED_S3)


def test_oracle_rows_are_exact(capsys):
    rc, out, _ = run_cli(capsys, ["oracle", "--group", "Z:2", "--n", "2",
                                  "--walk", "paired", "--k", "0..3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,return_prob,l2n_sq,tv"
    g = build_group("Z:2")
    from wreathwalk.wreath import build_wreath_table
    gt = build_wreath_table(g, 2).group
    meas = build_measure("paired", 2, g)
    for row, k in zip(lines[1:], range(4)):
        dist = convolution_power(gt, meas, k)
        d = exact_distances(dist, 8)
        assert row == f"{k},{dist[0]},{d['l2n_sq']},{d['tv']}"


def test_simulate_byte_identical(capsys):
    argv = ["simulate", "--group", "Z:2", "--n", "2", "--walk", "independent",
            "--k", "0..5", "--trials", "3000", "--seed", "17"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.split("\n")
    assert lines[0] == "# rng=PCG64"
    assert lines[1] == "k,empirical_tv,stderr,exact_tv,trials,seed"
    assert lines[2] == "0,0.875,0.0,0.875,3000,17"


def test_coupling_csv_shape(capsys):
    argv = ["coupling", "--n", "60", "--c", "0,1", "--trials", "400",
            "--seed", "5"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# rng=PCG64"
    assert lines[1] == "c,threshold,empirical_tail,limit,stderr,trials,seed"
    assert len(lines) == 6          # T and T* row per c
    rc2, out2, _ = run_cli(capsys, argv)
    assert out2 == out


def test_json_format(capsys):
    rc, out, _ = run_cli(capsys, ["spectrum", "--group", "Z:2", "--n", "2",
                                  "--walk", "independent", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["columns"] == list(cli.SPECTRUM_COLUMNS)
    assert doc["rows"][0] == [1, 1, 1, 2, "2"]
    assert doc["meta"]["order"] == 8
    # compact, key-sorted encoding is byte-stable
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_out_file_lf(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    rc, out, _ = run_cli(capsys, ["spectrum", "--group", "Z:2", "--n", "2",
                                  "--walk", "independent", "--out", str(path)])
    assert rc == 0
    assert out == ""
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().startswith("value_num,value_den")


def test_exit_codes():
    # usage errors come from the arg parser itself
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--group", "Z:2", "--n", "2", "--walk", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_validation_and_caps_exit_1(capsys):
    rc, _, err = run_cli(capsys, ["spectrum", "--group", "Q:5", "--n", "2",
                                  "--walk", "independent"])
    assert rc == 1 and "group" in err
    rc, _, err = run_cli(capsys, ["oracle", "--group", "Z:3", "--n", "5",
                                  "--walk", "paired"])
    assert rc == 1 and "exceeds cap 5000" in err
    rc, _, err = run_cli(capsys, ["spectrum", "--group", "S:3", "--n", "40",
                                  "--walk", "paired", "--max-labels", "1000"])
    assert rc == 1 and "exceeds cap 1000" in err
    rc, _, err = run_cli(capsys, ["simulate", "--group", "Z:2", "--n", "2",
                                  "--walk", "independent", "--seed", "-1"])
    assert rc == 1 and "64-bit" in err
    rc, _, err = run_cli(capsys, ["distance", "--group", "Z:2", "--n", "0",
                                  "--walk", "independent"])
    assert rc == 1
    rc, _, err = run_cli(capsys, ["distance", "--n", "3", "--walk", "independent"])
    assert rc == 1 and "--group" in err


def test_krange_and_clist_parsers():
    assert parse_krange("0..10") == list(range(11))
    assert parse_krange("0..40:5") == [0, 5, 10, 15, 20, 25, 30, 35, 40]
    assert parse_krange("7") == [7]
    for bad in ("10..2", "-1..4", "0..9:0", "a..b"):
        with pytest.raises(ValueError):
            parse_krange(bad)
    assert parse_clist("0,1,2.5") == [0.0, 1.0, 2.5]
    with pytest.raises(ValueError):
        parse_clist(",")


def test_selftest_wiring(monkeypatch, tmp_path):
    calls = {}

    def fake_call(cmd):
        calls["cmd"] = cmd
        return 0

    monkeypatch.setattr(cli.subprocess, "call", fake_call)
    rc = main(["selftest"])
    if rc == 1:
        # acceptance suite not written yet in this checkout
        assert "cmd" not in calls
    else:
        assert rc == 0
        assert calls["cmd"][:3] == [sys.executable, "-m", "pytest"]
        assert calls["cmd"][-1].endswith("test_acceptance.py")


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "wreathwalk", "threshold", "--n", "8",
         "--walk", "sym", "--metric", "tv"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[1].startswith("Sm,tv,sufficient,(1/2) n log n,false,")


def test_coupling_n1_answers():
    # one vertex is connected at T = 0: the command answers, it does not crash
    out = subprocess.run(
        [sys.executable, "-m", "wreathwalk", "coupling", "--n", "1", "--c", "0,1,2",
         "--trials", "50", "--seed", "3"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    lines = out.stdout.strip().split("\n")
    assert lines[1] == "c,threshold,empirical_tail,limit,stderr,trials,seed"
    assert len(lines) == 2 + 6


@pytest.mark.parametrize("text", [
    '{"order": 2, "mult": [[0, 1], [1, 0]], "labels": 5}',
    '{"order": 2, "mult": [[0, 1], [1, 0]], "char_table": 7}',
    '5',
    '{"order": 2.5, "mult": [[0, 1], [1, 0]]}',
    '{"order": 1e999, "mult": [[0]]}',
    '{"order": 2, "mult": [[0, 1], [1, 1.5]]}',
    '{"order": 2, "mult": [[0, 1], [1, 100000000000000000000]]}',
    '{"order": 2, "mult": [[0, 1], [1, 0]], "char_table": [[[1, 0], [1, 0]], [[1, 0], [1e999, 0]]]}',
], ids=["labels-not-a-list", "char-table-not-a-list", "not-an-object", "float-order",
        "huge-order", "float-mult-entry", "huge-mult-entry", "huge-character"])
def test_malformed_group_file_refused(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "-m", "wreathwalk", "spectrum", "--group", f"file:{path}",
         "--n", "2", "--walk", "independent"],
        capture_output=True, text=True)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
