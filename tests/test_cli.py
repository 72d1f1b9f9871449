"""CLI contract: pinned headers, exit codes, byte-stable output, worked
examples."""
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from wreathwalk import cli
from wreathwalk.cli import main, parse_clist, parse_krange
from wreathwalk.groups import build_group
from wreathwalk.oracle import (
    build_transition_matrix,
    convolution_curve,
    exact_distances,
    matrix_power_traces,
    measure_on_table,
)
from wreathwalk.walks import build_measure
from wreathwalk.wreath import build_wreath_table


def _spread(g, v):
    """The per-element numerators of the class masses v: each element of
    class C carries v[C] // |C|."""
    return (v // np.array(g.class_sizes(), dtype=np.int64))[g.class_of]


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
    gt = build_wreath_table(g, 2).group
    meas = build_measure("paired", 2, g)
    for row, (k, v, scale) in zip(lines[1:], convolution_curve(gt, meas, list(range(4))),
                                  strict=True):
        d = exact_distances(gt, v, scale)
        assert row == f"{k},{Fraction(int(v[0]), scale)},{d['l2n_sq']},{d['tv']}"


@pytest.mark.parametrize("gspec,n,kind", [("Z:2", 2, "independent"), ("Z:3", 2, "paired"),
                                          ("S:3", 2, "paired")])
def test_oracle_return_prob_is_the_dense_trace(capsys, gspec, n, kind):
    # P^{*k}(e) = tr(M^k) / |G wr S_n|: the return_prob cell against the
    # dense matrix route
    rc, out, _ = run_cli(capsys, ["oracle", "--group", gspec, "--n", str(n),
                                  "--walk", kind, "--k", "0..12"])
    assert rc == 0
    g = build_group(gspec)
    gt = build_wreath_table(g, n).group
    traces = matrix_power_traces(build_transition_matrix(gt, build_measure(kind, n, g)), 12)
    cells = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
    assert cells == [str(traces[k] / gt.order) for k in range(13)]


def test_continuized_floats_are_correctly_rounded_past_2_53():
    # Z:3 wr S_2 paired, den = 12: at k = 16, 2^53 < scale = 12^16 < 2^63 and
    # the masses are still int64, so casting them to float64 before dividing
    # would round twice; some classes show it
    g = build_group("Z:3")
    gt = build_wreath_table(g, 2).group
    (_, v, scale), = convolution_curve(gt, build_measure("paired", 2, g), [16])
    assert 2 ** 53 < scale < 2 ** 63 and v.dtype == np.int64
    sizes = gt.class_sizes()
    want = [float(Fraction(int(x) // c, scale)) for x, c in zip(v, sizes)]
    assert cli._float_law(v, sizes, scale).tolist() == want
    assert ((v // sizes).astype(np.float64) / float(scale)).tolist() != want


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


def _per_row_poisson_reference_tv(gt, measure, t, order):
    """The continuized exact column row by row, each row its own
    convolution pass from k = 0: the reference for the one pass."""
    kcap = int(t + 12.0 * math.sqrt(t) + 30.0)
    if kcap > 400:
        return None
    mix = [0.0] * order
    lw = -t
    for k, v, scale in convolution_curve(gt, measure, list(range(kcap + 1))):
        w = math.exp(lw + k * math.log(t)) / math.factorial(k) if t > 0 else (1.0 if k == 0 else 0.0)
        if w > 0:
            for i, x in enumerate(_spread(gt, v).tolist()):
                if x:
                    mix[i] += w * float(Fraction(x, scale))
    u = 1.0 / order
    return 0.5 * math.fsum(abs(m - u) for m in mix) + 0.5 * (1.0 - math.fsum(mix))


@pytest.mark.parametrize("kind,gspec,n", [("independent", "Z:2", 2), ("paired", "Z:3", 2),
                                          ("sym", "Z:1", 3)])
def test_one_pass_poisson_column_equals_per_row_mixtures(kind, gspec, n):
    # every float the same; t = 260 (truncation past 400) has no exact cell
    g = build_group(gspec)
    gt = build_wreath_table(g, n).group
    meas = build_measure(kind, n, g)
    ts = [0.0, 53.0, 0.5, 3.0, 260.0, 10.0, 25.0]
    got = cli._poisson_reference_tvs(gt, meas, ts, gt.order)
    assert got == [_per_row_poisson_reference_tv(gt, meas, t, gt.order) for t in ts]
    assert got[4] is None


def test_poisson_weights_past_the_float_factorial():
    # k! overflows a float past k = 170; the log-space weights agree with
    # the direct ones where both exist, and at t = 200 (truncation at 399)
    # the terms past 170 carry most of the mass
    for t in (60.0, 150.0, 200.0):
        direct = math.exp(-t + 170 * math.log(t)) / math.factorial(170)
        logged = math.exp(-t + 170 * math.log(t) - math.lgamma(171))
        assert cli._poisson_weight(t, 170) == direct == pytest.approx(logged, rel=1e-12)
    assert cli._poisson_weight(200.0, 200) == pytest.approx(0.0282, abs=1e-4)
    w = [cli._poisson_weight(200.0, k) for k in range(400)]
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-12) and math.fsum(w[171:]) > 0.9


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

    monkeypatch.setattr(subprocess, "call", fake_call)
    rc = main(["selftest"])
    if rc == 1:
        # acceptance suite not written yet in this checkout
        assert "cmd" not in calls
    else:
        assert rc == 0
        assert calls["cmd"][:3] == [sys.executable, "-m", "pytest"]
        assert calls["cmd"][-1].endswith("test_acceptance.py")


def test_importing_the_cli_loads_no_subprocess():
    # only selftest starts a process, so the import that every command pays
    # leaves subprocess out
    code = ("import sys; before = set(sys.modules); import wreathwalk.cli; "
            "print('subprocess' in set(sys.modules) - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_main_parses_with_one_parser_and_fresh_defaults():
    assert cli._parser() is cli._parser()
    argv = ["oracle", "--n", "2", "--walk", "sym"]
    first, second = cli._parser().parse_args(argv), cli._parser().parse_args(argv)
    assert first.k == list(range(11)) and first.k is not second.k
    simulate = cli._parser().parse_args(["simulate", "--n", "2", "--walk", "sym"])
    assert simulate.k == list(range(11))
    coupling = cli._parser().parse_args(["coupling", "--n", "5"])
    assert coupling.c == [0.0, 1.0, 2.0]


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
