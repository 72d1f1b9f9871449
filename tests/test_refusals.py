"""Bad input is refused before any work, with an error naming the problem."""
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from wreathwalk import cli
from wreathwalk.bounds import classify_base, distance_curve
from wreathwalk.cli import main
from wreathwalk.groups import build_group
from wreathwalk.reps import enumerate_labels
from wreathwalk.walks import l2n_sq_spectral, return_probability, spectrum


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_distance_curve_needs_base_group():
    with pytest.raises(ValueError, match="base group"):
        distance_curve("independent", 400, None, ks=[1])
    with pytest.raises(ValueError, match="base group"):
        distance_curve("paired", 3, None, ks=[1])


def test_sym_spectrum_honours_max_labels(capsys):
    rc, out, err = run_cli(capsys, ["spectrum", "--walk", "sym", "--n", "3", "--max-labels", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "cap 1" in err
    rc, out, _ = run_cli(capsys, ["spectrum", "--walk", "sym", "--n", "3", "--max-labels", "3"])
    assert rc == 0 and len(out.strip().split("\n")) == 4
    # the sym distance curve reads the collapsed rows, not labels: no cap
    argv = ["distance", "--walk", "sym", "--n", "3", "--k", "1"]
    rc, out, _ = run_cli(capsys, argv + ["--max-labels", "1"])
    assert rc == 0 and out == run_cli(capsys, argv)[1]


def test_sym_spectrum_refuses_large_n_at_once(capsys):
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["spectrum", "--walk", "sym", "--n", "100"])
    assert rc == 1 and out == ""
    assert "partition count 190569292 exceeds cap 2000000" in err
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(ValueError):
        spectrum("sym", 12, max_labels=76)


def test_labels_past_the_partition_table_cap_refused_at_once():
    # p(62) = 1 300 156 labels fit the label cap, but no partition of 62
    # fits a 64-bit boundary word: refused before any label is built
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "wreathwalk", "spectrum", "--walk", "sym",
                          "--n", "62"], capture_output=True, text=True)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == ("error: n = 62 exceeds cap 61 of the partition table "
                          "(64-bit boundary words)\n")
    assert time.monotonic() - t0 < 5.0
    with pytest.raises(ValueError, match="exceeds cap 61"):
        enumerate_labels(build_group("Z:2"), 62, max_labels=10 ** 20)


def test_auto_distance_past_the_table_cap_answers():
    # a raised label cap does not send auto mode to a spectrum past the cap
    curve = distance_curve("independent", 62, build_group("Z:2"), ks=[200],
                           max_labels=10 ** 20)
    assert curve.mode == "collapsed" and curve.rows[0]["l2n_sq"] > 0


def test_trivial_base_group_refused(capsys):
    with pytest.raises(ValueError, match="trivial"):
        classify_base(build_group("Z:1"))
    rc, out, err = run_cli(capsys, ["threshold", "--group", "Z:1", "--n", "5",
                                    "--walk", "independent"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "order >= 2" in err


def test_coupling_refuses_hours_of_work_at_once(capsys):
    # inside the n and trial caps, but n^2 * trials is past the work cap
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["coupling", "--n", "5000", "--trials", "1000000"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "exceeds cap 10000000000" in err
    assert time.monotonic() - t0 < 1.0


def test_simulate_refuses_one_trial_before_the_table(capsys):
    # one trial has no stderr; the refusal comes before k = 0..1500 is run
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["simulate", "--group", "Z:2", "--n", "4", "--walk",
                                    "independent", "--k", "0..1500", "--trials", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "--trials >= 2" in err
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("c", ["nan", "0,inf", "-inf"])
def test_coupling_refuses_non_finite_c(capsys, c):
    # a usage error (exit 2) from the parser, not an exception from the sampler
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as stop:
        main(["coupling", "--n", "10", f"--c={c}", "--trials", "10"])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert "invalid parse_clist value" in captured.err
    assert time.monotonic() - t0 < 1.0


def test_sym_oracle_past_s6(capsys):
    # S_7 is 1 wr S_7: refused only by the order cap, which it names
    rc, out, err = run_cli(capsys, ["oracle", "--walk", "sym", "--n", "7"])
    assert rc == 1 and out == "" and "order 5040 exceeds cap 5000" in err
    rc, out, err = run_cli(capsys, ["oracle", "--walk", "sym", "--n", "7", "--max-order", "6000"])
    assert rc == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "k,return_prob,l2n_sq,tv" and len(lines) == 12
    spec = spectrum("sym", 7)
    for line in lines[1:]:
        k, ret, l2n_sq, _ = line.split(",")
        assert Fraction(ret) == return_probability(spec, int(k))
        assert Fraction(l2n_sq) == l2n_sq_spectral(spec, int(k))


def test_table_past_physical_memory_refused(capsys):
    # S_9: 362880^2 int64 entries are about 981 GiB; refused before any
    # allocation, with both sizes named, instead of a numpy MemoryError
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["oracle", "--walk", "sym", "--n", "9",
                                    "--max-order", "1000000"])
    assert rc == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: wreath order 362880 needs a 981.1 GiB table")
    assert "GiB of physical memory" in err
    assert time.monotonic() - t0 < 1.0


def test_memory_error_is_an_error_line(capsys, monkeypatch):
    def exhausted(*args, **kw):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, "build_wreath_table", exhausted)
    rc, out, err = run_cli(capsys, ["oracle", "--walk", "sym", "--n", "3"])
    assert rc == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 1.00 TiB\n"


def test_memory_check_counts_the_build_peak(monkeypatch):
    # S_6: a 720^2 int64 table of 3.96 MiB; building it also holds the S_6
    # table itself, about 2.1 x in all.  Memory between the two is refused.
    from wreathwalk import wreath

    table = 8 * 720 ** 2
    for have, refused in ((table + 1, True), (2 * table, True), (3 * table, False)):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
        monkeypatch.setattr(wreath.os, "sysconf", pages.__getitem__)
        if refused:
            with pytest.raises(ValueError, match="to build it, more than the"):
                wreath.build_wreath_table(build_group("Z:1"), 6)
        else:
            assert wreath.build_wreath_table(build_group("Z:1"), 6).group.order == 720
