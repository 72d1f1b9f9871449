"""Output checks.  Each checker takes an operation, the child's record of it
and the stored reference for it, and returns a list of problems (empty when
the output is correct).

- exact:    stdout byte for byte equal to the reference (spectrum rows,
            oracle p/q cells).
- floats:   same CSV shape and text cells; float cells within 1e-9
            relative of the reference (last-ulp drift is allowed).
- refusal:  exit 1, an "error:" line, no traceback, under one second.
- bracket:  lo <= hi, and no looser than the reference bracket.
- envelope: the certificate inequality, values as stored.
- overlap:  the bracket contains the exact sum.
- traces:   exact trace moments as stored.
- simulate: empirical TV consistent with the exact_tv column (statistics,
            never pinned bytes, since the RNG stream may change).
- coupling: connectivity-time tails within the criterion-9 tolerances.
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _completed(rec, rc=0) -> list[str]:
    if rec["traceback"]:
        return ["raised: " + rec["traceback"].strip().splitlines()[-1]]
    if "Traceback" in rec["stderr"]:
        return ["printed a traceback"]
    if rec["rc"] != rc:
        return [f"exit code {rec['rc']}, expected {rc}"]
    return []


def check_exact(op, rec, ref) -> list[str]:
    problems = _completed(rec)
    if not problems and rec["stdout"] != ref["stdout"]:
        problems.append("stdout differs from the reference")
    return problems


def compare_csv(got: str, want: str) -> list[str]:
    a, b = _rows(got), _rows(want)
    if len(a) != len(b):
        return [f"{len(a)} csv rows, reference has {len(b)}"]
    for i, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            return [f"row {i}: {len(ra)} cells, reference has {len(rb)}"]
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None or not close(fx, fy):
                return [f"row {i} cell {j}: {x!r} != reference {y!r}"]
    return []


def check_floats(op, rec, ref) -> list[str]:
    problems = _completed(rec) or compare_csv(rec["stdout"], ref["stdout"])
    if not problems and "--check-oracle" in op.argv and "(ok)" not in rec["stderr"]:
        problems.append("oracle check did not report ok")
    return problems


def check_refusal(op, rec, ref) -> list[str]:
    problems = _completed(rec, rc=1)
    if not any(line.startswith("error:") for line in rec["stderr"].splitlines()):
        problems.append("no 'error:' line")
    if rec["dt"] >= 1.0:
        problems.append(f"refusal took {rec['dt']:.2f} s")
    return problems


def check_bracket(op, rec, ref) -> list[str]:
    problems = _completed(rec, rc=None)
    if problems:
        return problems
    lo, hi = rec["value"]
    ref_lo, ref_hi = ref["value"]
    if not lo <= hi:
        problems.append(f"lo {lo!r} > hi {hi!r}")
    if lo < ref_lo * (1 - REL) or hi > ref_hi * (1 + REL):
        problems.append(f"bracket [{lo!r}, {hi!r}] looser than reference [{ref_lo!r}, {ref_hi!r}]")
    return problems


def check_envelope(op, rec, ref) -> list[str]:
    problems = _completed(rec, rc=None)
    if problems:
        return problems
    hi_later, decayed_lo = rec["value"]
    if hi_later > decayed_lo * (1 + 1e-6):
        problems.append(f"envelope violated: {hi_later!r} > {decayed_lo!r}")
    if not all(close(x, y) for x, y in zip(rec["value"], ref["value"])):
        problems.append(f"envelope values {rec['value']} != reference {ref['value']}")
    return problems


def check_overlap(op, rec, ref) -> list[str]:
    problems = _completed(rec, rc=None)
    if problems:
        return problems
    for (lo, hi, exact), (_, _, ref_exact) in zip(rec["value"], ref["value"]):
        if exact != ref_exact:
            problems.append(f"exact sum {exact} != reference {ref_exact}")
        x = float(Fraction(exact))
        if not (lo <= hi and lo <= x * (1 + REL) and hi >= x * (1 - REL)):
            problems.append(f"[{lo!r}, {hi!r}] does not bracket {x!r}")
    return problems


def check_traces(op, rec, ref) -> list[str]:
    problems = _completed(rec, rc=None)
    if not problems and rec["value"] != ref["value"]:
        problems.append("trace moments differ from the reference")
    return problems


def check_simulate(op, rec, ref) -> list[str]:
    """Empirical TV within 4 jackknife stderr of exact_tv, widened on the
    upper side by the plug-in estimator's bias bound: E[TV_hat] - TV <=
    (1/2) sum_i sqrt(p_i (1 - p_i) / N) <= (1/2) sqrt((order - 1) / N),
    which the jackknife stderr does not cover."""
    problems = _completed(rec)
    if problems:
        return problems
    lines = rec["stdout"].splitlines()
    if not lines or lines[0] != "# rng=PCG64":
        return ["missing '# rng=PCG64' header"]
    rows = _rows("\n".join(lines[1:]))
    argv = list(op.argv)
    trials, seed = argv[argv.index("--trials") + 1], argv[argv.index("--seed") + 1]
    if [r[0] for r in rows[1:]] != list(ref["exact_tv"]):
        return ["k column differs from the reference"]
    for k, tv, se, exact, n_trials, n_seed in rows[1:]:
        tv, se, exact = float(tv), float(se), float(exact)
        bias = 0.5 * math.sqrt((op.order - 1) / int(trials))
        if not close(exact, ref["exact_tv"][k]):
            problems.append(f"k={k}: exact_tv {exact!r} != reference {ref['exact_tv'][k]!r}")
        if (n_trials, n_seed) != (trials, seed):
            problems.append(f"k={k}: trials/seed columns {n_trials}/{n_seed}")
        if not (exact - 4 * se - REL <= tv <= exact + 4 * se + bias + REL):
            problems.append(f"k={k}: empirical tv {tv!r} vs exact {exact!r} (stderr {se!r})")
    return problems


def check_coupling(op, rec, ref) -> list[str]:
    """T tails within 0.05 of 1 - exp(-e^{-2c}) at c = 0, 1; T* tails at
    most 2 e^{-c} + 0.03 at c = 1, 2."""
    problems = _completed(rec)
    if problems:
        return problems
    lines = rec["stdout"].splitlines()
    if not lines or lines[0] != "# rng=PCG64":
        return ["missing '# rng=PCG64' header"]
    rows = _rows("\n".join(lines[1:]))[1:]
    argv = list(op.argv)
    n = int(argv[argv.index("--n") + 1])
    for i, (c, thr, tail, limit, _, _, _) in enumerate(rows):
        c, thr, tail, limit = float(c), float(thr), float(tail), float(limit)
        if not close(thr, 0.5 * n * math.log(n) + c * n):
            problems.append(f"c={c}: threshold {thr!r}")
        if i % 2 == 0:
            if not close(limit, 1.0 - math.exp(-math.exp(-2.0 * c))):
                problems.append(f"c={c}: T limit {limit!r}")
            if c in (0.0, 1.0) and abs(tail - limit) > 0.05:
                problems.append(f"c={c}: T tail {tail!r} vs limit {limit!r}")
        elif c in (1.0, 2.0) and tail > 2.0 * math.exp(-c) + 0.03:
            problems.append(f"c={c}: T* tail {tail!r} above 2e^-c + 0.03")
    if len(rows) != 6:
        problems.append(f"{len(rows)} coupling rows, expected 6")
    return problems


CHECKS = {
    "exact": check_exact,
    "floats": check_floats,
    "refusal": check_refusal,
    "bracket": check_bracket,
    "envelope": check_envelope,
    "overlap": check_overlap,
    "traces": check_traces,
    "simulate": check_simulate,
    "coupling": check_coupling,
}


def check(op, rec, ref) -> list[str]:
    if rec["id"] != op.id:
        return [f"record {rec['id']!r} for operation {op.id!r}"]
    return CHECKS[op.check](op, rec, ref)


def reference_of(op, rec) -> dict:
    """What a correct run stores for this operation (see make_reference.py)."""
    if op.check in ("exact", "floats"):
        return {"stdout": rec["stdout"]}
    if op.check in ("bracket", "envelope", "overlap", "traces"):
        return {"value": rec["value"]}
    if op.check == "simulate":
        rows = _rows("\n".join(rec["stdout"].splitlines()[1:]))[1:]
        return {"exact_tv": {r[0]: float(r[3]) for r in rows}}
    return {}
