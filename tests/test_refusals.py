"""Bad input is refused before any work, with an error naming the problem."""
import contextlib
import io
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathwalk import bounds, cli, wreath
from wreathwalk.bounds import classify_base, distance_curve
from wreathwalk.cli import main
from wreathwalk.groups import build_group
from wreathwalk.reps import enumerate_labels
from wreathwalk.simulate import SimConfig, run_walk_indices
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
    # p(62) = 1 300 156 labels fit the label cap, but the partition table
    # stops at m = 61: refused before any label is built
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "wreathwalk", "spectrum", "--walk", "sym",
                          "--n", "62"], capture_output=True, text=True)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == ("error: n = 62 exceeds cap 61 of the partition table "
                          "(p(61) = 1121505 partitions a level)\n")
    assert time.monotonic() - t0 < 5.0
    with pytest.raises(ValueError, match="exceeds cap 61"):
        enumerate_labels(build_group("Z:2"), 62, max_labels=10 ** 20)


def test_sym_spectrum_far_past_the_partition_table_cap_refused_before_counting(capsys):
    # p(0..5000) on big ints would take seconds; n past the partition
    # table's cap is refused before the labels are counted
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["spectrum", "--walk", "sym", "--n", "5000"])
    assert rc == 1 and out == ""
    assert err == ("error: n = 5000 exceeds cap 61 of the partition table "
                   "(p(61) = 1121505 partitions a level)\n")
    assert time.monotonic() - t0 < 1.0


def _cold_window():
    for cached in (bounds._slot_atoms, bounds._window_shape, bounds._table_logs):
        cached.cache_clear()


@pytest.mark.parametrize("n", [1000, 2000])
def test_window_bytes_bound_the_bracket_peak(n):
    # the closed-form estimate against the traced peak of a windowed
    # bracket from cold atom caches (the partition table rows stay warm)
    bounds.content_rows(bounds.FULL_ENUM_MAX)
    _cold_window()
    tracemalloc.start()
    try:
        bounds.l2n_sq_collapsed_bounds(2, n, 5 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _cold_window()
    need = bounds._window_bytes(2, n, bounds.J_WINDOW, bounds.FULL_ENUM_MAX)[0]
    assert peak <= need <= 2 * peak


def test_windowed_brackets_past_physical_memory_refused(monkeypatch, capsys):
    # Z:2 at n = 100: 2 * 60 * 272 - 1 window atoms and, for the slot sizes
    # 41..100, sum of m - 13 majorants, refused before any is built
    need, atoms, tails = bounds._window_bytes(2, 100, 12, 40)
    assert (atoms, tails) == (32639, 3450) and need == bounds.ATOM_BYTES * (atoms + tails)
    for have in (need - 1, need):
        _cold_window()
        monkeypatch.setattr(wreath, "_physical_memory", lambda: have)
        argv = ["distance", "--group", "Z:2", "--n", "100", "--walk", "independent", "--k", "400"]
        rc, out, err = run_cli(capsys, argv)
        if have < need:
            assert rc == 1 and out == ""
            assert err == (f"error: the windowed brackets at n = 100 need about {need} bytes "
                           f"for 32639 window atoms and 3450 tail majorants, more than the "
                           f"{have} bytes of physical memory\n")
        else:
            assert rc == 0 and out
    _cold_window()


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
    # inside the n and trial caps, but n * isqrt(n) * trials is past the work cap
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, ["coupling", "--n", "5000", "--trials", "1000000"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "exceeds cap 1000000000\n" in err
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


@pytest.mark.parametrize("argv", [
    ["oracle", "--walk", "sym", "--n", "1600"],
    ["oracle", "--group", "Z:2", "--n", "2000", "--walk", "independent"],
    ["simulate", "--group", "Z:2", "--n", "2000", "--walk", "independent"],
    ["distance", "--group", "Z:2", "--n", "3000", "--walk", "independent", "--k", "14000",
     "--check-oracle"],
])
def test_orders_past_the_int_digit_limit_name_the_cap(capsys, argv):
    # str() of an int past 4300 digits raises; the refusal names such an
    # order as about 10^d, and the distance check refuses before its curve
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and out == ""
    assert re.fullmatch(r"error: wreath order about 10\^\d+ exceeds cap 5000\n", err), err
    assert "digits" not in err
    assert time.monotonic() - t0 < 1.0


def test_index_refusal_past_the_int_digit_limit_names_the_cap():
    with pytest.raises(ValueError, match=r"^wreath order about 10\^5736 exceeds 2\^63 - 1"):
        run_walk_indices(SimConfig("sym", 2000, k=1, trials=2))
    with pytest.raises(ValueError, match=r"^wreath order about 10\^4434 exceeds cap 5000$"):
        wreath.build_wreath_table(build_group("Z:1"), 1600)


def test_refused_orders_print_in_full_through_30_digits():
    with pytest.raises(ValueError, match=f"^wreath order {10 ** 30 - 1} exceeds 2\\^63 - 1"):
        wreath._index_order(10 ** 30 - 1, 1)
    with pytest.raises(ValueError, match=r"^wreath order about 10\^30 exceeds 2\^63 - 1"):
        wreath._index_order(10 ** 30, 1)


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


def test_step_row_map_past_physical_memory_refused(monkeypatch):
    # Z:3 paired n = 3: 16 distinct step elements x 162 states of int32,
    # 10368 bytes; the map is refused before it is allocated when its build
    # would not fit
    from wreathwalk import wreath

    g = build_group("Z:3")
    # 16 rows with 4 permutations (the identity and the 3 transpositions),
    # the int32 map held next to them, after a search of 27 draws
    size = 16 * 162 * 4
    need = wreath.build_bytes(3, 3, 16, 4, size, 27)
    for have in (size, need - 1, need):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
        monkeypatch.setattr(wreath.os, "sysconf", pages.__getitem__)
        if have < need:
            with pytest.raises(ValueError) as e:
                wreath.step_rows("paired", 3, g)
            assert str(e.value) == (
                f"wreath order 162 needs a 10368-byte step-row map (16 step elements x 162 "
                f"states) for the paired walk and {need} bytes to build it, more than the "
                f"{have} bytes of physical memory")
        else:
            assert wreath.step_rows("paired", 3, g)[0].shape == (16, 162)


def test_table_refuses_n_below_one():
    from wreathwalk import wreath

    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            wreath.build_wreath_table(build_group("Z:2"), n)


def test_step_rows_refuses_n_below_one():
    from wreathwalk import wreath

    for kind, g in (("paired", build_group("Z:2")), ("sym", None)):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            wreath.step_rows(kind, 0, g)


def test_sim_config_refuses_n_below_one():
    from wreathwalk.simulate import SimConfig

    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        SimConfig("independent", 0, build_group("Z:2"), k=3)


def test_simulate_needs_no_memory_past_its_table(capsys, monkeypatch):
    # Z:70 at n = 1: the 70^2 table fits in 10^6 bytes, and a step-row map
    # (70^3 cells) would cost more than the walk, so none is built or
    # checked against physical memory
    from wreathwalk import wreath

    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 10 ** 6}
    monkeypatch.setattr(wreath.os, "sysconf", pages.__getitem__)
    rc, out, err = run_cli(capsys, ["simulate", "--group", "Z:70", "--n", "1",
                                    "--walk", "independent", "--k", "0..2"])
    assert rc == 0 and err == "" and len(out.splitlines()) == 2 + 3


def _answers_without_traceback(argv):
    """Run the CLI in this process: an exception escaping main() is the
    traceback the command would print."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 and "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=300))
@example(60)
@example(200)
def test_continuized_horizons_answer(t):
    # k! overflowed a float in the exact column's Poisson weights from t = 55
    _answers_without_traceback(["simulate", "--group", "Z:2", "--n", "2", "--walk",
                                "independent", "--mode", "continuized", "--k", str(t),
                                "--trials", "100"])


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1000.0, max_value=1000.0))
@example(-400.0)
@example(-1000.0)
def test_coupling_offsets_answer(c):
    # exp(-2c) in the T limit overflowed below c = -354.9
    _answers_without_traceback(["coupling", "--n", "10", f"--c={c!r}", "--trials", "100"])
