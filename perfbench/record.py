"""Record the expected output of every op any seed can pick, into expected.json.

Usage (from the repository root): python3 perfbench/record.py

Run this only on a commit whose outputs are known to be right: the benchmark
counts every later difference from the recording as a failed op.  Each seed
choice's op list runs in a fresh child, as in a benchmark repetition; an op
shared by several choices is recorded once.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

RECORDED_FIELDS = run.CHECKED_FIELDS + ("bytes",)


def main() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        for ops in workloads.choices(workload):
            todo = [op for op in ops if op["id"] not in expected]
            if not todo:
                continue
            report = run.run_child(todo, trace=False)
            if "error" in report:
                print(f"record: {report['error']}", file=sys.stderr)
                return 1
            for record in report["ops"]:
                if "error" in record or record["rc"] != 0:
                    print(f"record: {record['id']} failed: {record}", file=sys.stderr)
                    return 1
                expected[record["id"]] = {f: record[f] for f in RECORDED_FIELDS if f in record}
                print(f"{record['id']}: {record['wall_s']:.2f} s", file=sys.stderr)
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
