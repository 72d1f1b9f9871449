"""Regenerate the stored reference outputs.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at full and smoke size and stores, per operation,
what its checker compares against (see checks.reference_of).  Run it only
on a commit whose outputs are known to be right, and review the diff.
"""
import json
import sys

from checks import reference_of
from run import HERE, spawn
from workloads import WORKLOADS, operations


def main(names) -> None:
    for workload in names or WORKLOADS:
        doc = {}
        for scale in ("full", "smoke"):
            ops = operations(workload, 0, smoke=scale == "smoke")
            child, _ = spawn([workload, "0", scale, "0"])
            doc[scale] = {op.id: reference_of(op, rec)
                          for op, rec in zip(ops, child["ops"], strict=True)}
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
