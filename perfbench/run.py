"""d4census benchmark: one workload, fresh child processes, checked outputs.

Usage (from the repository root):
  python3 perfbench/run.py --workload {census,big-sieve,checks} --seed N
                           --seconds S --trace {0,1}

Each repetition runs the workload's op list in a fresh child interpreter
(child.py), so every lru_cache and memo starts empty, as for a command-line
user.  Repetitions continue while the next group of them would end within
S seconds (at least two run); the op order alternates between repetitions.
Every op's output is checked against expected.json.

The end-to-end times are scaled to a reference host speed.  The shared
host's speed drifts by up to 60% over seconds to minutes, CPU time included,
and a median over a run cannot remove a drift that outlasts it.  So an
untraced child times a fixed pure-Python probe loop every 20 ms while its
ops run (child.py), and the benchmark multiplies each op's wall and CPU time
by REFERENCE_S / (mean probe time during that op).  The result reads as
seconds on a host where the probe loop takes REFERENCE_S.  The probe does
not touch d4census, so a change to the program moves only the op times.
The unscaled median and the range of the scale are printed on a line of
their own.  Per-layer times come from traced children, which do not probe,
and are not scaled.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 2 means the benchmark could not run at all (no result printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
TMP_PARENT = ROOT / ".perfbench_tmp"

SETUP_CHILDREN = 5  # import-only children per run, besides each repetition's own
MIN_REPS = 2  # untraced repetitions per run, even when --seconds is shorter
MIN_TRACED_REPS = 2  # traced repetitions, so that counts can be compared
CHILD_TIMEOUT_S = 170
REFERENCE_S = 0.00025  # near the probe loop's time on a quiet 2-vCPU Xeon VM
CHECKED_FIELDS = ("rc", "sha256", "exact", "triples", "fraction_sha256", "terms")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(ops: list, trace: bool) -> dict:
    """One fresh interpreter over `ops`; its report, or {"error": ...}."""
    TMP_PARENT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_PARENT)
    spec = json.dumps({"ops": ops, "tmpdir": tmpdir})
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(spawned)] + ["--trace"] * trace,
            input=spec, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()  # only when no other repetition's directory is left
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": f"unreadable child report: {proc.stdout[-500:]!r}"}


def op_failures(ops: list, report: dict, expected: dict) -> list[str]:
    """One message per op of the repetition that failed its check."""
    if "error" in report:
        return [f"{op['id']}: {report['error']}" for op in ops]
    records = {r["id"]: r for r in report["ops"]}
    failures = []
    for op in ops:
        record = records.get(op["id"], {"error": "no record"})
        want = expected.get(op["id"])
        if "error" in record:
            failures.append(f"{op['id']}: {record['error']}")
        elif want is None:
            failures.append(f"{op['id']}: no recorded output")
        else:
            bad = [f for f in CHECKED_FIELDS if f in want and record.get(f) != want[f]]
            if bad:
                failures.append(f"{op['id']}: {', '.join(bad)} differ from the recording")
    return failures


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


class Run:
    """Repetitions of one workload and the checks on their outputs."""

    def __init__(self, ops: list, expected: dict, ordered: bool):
        self.ops = ops
        self.expected = expected
        self.ordered = ordered
        self.attempted = 0
        self.failures: list[str] = []  # one per failed op
        self.problems: list[str] = []  # failures that are not an op's
        self.setup_s: list[float] = []
        self.reports = {False: [], True: []}

    def repetition(self, index: int, trace: bool) -> None:
        ops = self.ops if self.ordered or index % 2 == 0 else self.ops[::-1]
        report = run_child(ops, trace)
        self.attempted += len(ops)
        failures = op_failures(ops, report, self.expected)
        self.failures += failures
        if "error" not in report:
            if not trace:
                self.setup_s.append(scaled_setup(report))
            if not failures:
                self.reports[trace].append(report)

    def setup_only(self) -> None:
        report = run_child([], False)
        if "error" in report:
            self.problems.append(f"set-up child: {report['error']}")
        else:
            self.setup_s.append(scaled_setup(report))


def op_scale(record: dict, report: dict) -> float:
    """The factor that turns an op's times into reference-speed seconds.

    An op too short to be probed takes the mean probe time of its child."""
    return REFERENCE_S / (record["probe_s"] or report["probe_s"])


def scaled_setup(report: dict) -> float:
    return report["setup_s"] * REFERENCE_S / report["probe_s"]


def op_wall(report: dict) -> float:
    """The op list's wall time in the child, unscaled."""
    return sum(r["wall_s"] for r in report["ops"])


def scaled(report: dict, field: str) -> float:
    """The op list's wall or CPU time in the child, at the reference speed."""
    return sum(r[field] * op_scale(r, report) for r in report["ops"])


def end_to_end_metrics(run: Run) -> dict:
    reports = run.reports[False]
    return {
        "wall_s": median([scaled(r, "wall_s") for r in reports]),
        "cpu_s": median([scaled(r, "cpu_s") for r in reports]),
        "setup_s": median(run.setup_s),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }


def unscaled_summary(run: Run) -> str:
    reports = run.reports[False]
    scales = [scaled(r, "wall_s") / op_wall(r) for r in reports]
    return (f"unscaled op-list wall_s median {median([op_wall(r) for r in reports]):.6g} s; "
            f"host scale from {min(scales, default=float('nan')):.4g} "
            f"to {max(scales, default=float('nan')):.4g}")


def per_layer_metrics(run: Run) -> dict:
    traced, plain = run.reports[True], run.reports[False]
    metrics = {}
    for name in tracer.COUNT_METRICS:
        values = {r["trace"]["counts"][name] for r in traced}
        if len(values) > 1:
            run.problems.append(f"{name} differs between traced repetitions: {sorted(values)}")
        metrics[name] = min(values) if values else float("nan")
    for name in tracer.TIME_METRICS:
        metrics[name] = median([r["trace"]["times"][name] for r in traced])
    metrics["census.triples_per_s"] = median([
        r["trace"]["counts"]["census.triples_yielded"] / r["trace"]["times"]["census.enumerate_s"]
        if r["trace"]["times"]["census.enumerate_s"] else 0.0 for r in traced
    ])
    metrics["trace_overhead_s"] = (median([op_wall(r) for r in traced])
                                   - median([op_wall(r) for r in plain]))
    metrics["trace_uncovered_s"] = median([
        op_wall(r) - sum(r["trace"]["times"][f"{layer}.self_s"] for layer in tracer.LAYERS)
        for r in traced
    ])
    return metrics


def per_layer_units() -> dict:
    units = {name: "count" for name in tracer.COUNT_METRICS}
    units.update({name: "s" for name in tracer.TIME_METRICS})
    units.update({"arith.table_bytes": "bytes", "cli.output_bytes": "bytes",
                  "census.triples_per_s": "1/s", "trace_overhead_s": "s",
                  "trace_uncovered_s": "s"})
    return units


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    run = Run(workloads.ops_for(workload, seed), expected, workload in workloads.ORDERED)
    for _ in range(SETUP_CHILDREN):
        run.setup_only()
    start = time.monotonic()
    durations = []
    # Repetitions run in groups that reverse the op order as often as they
    # keep it (peak RSS depends on the order), and a traced run's groups pair
    # untraced with traced repetitions.
    group = 4 if trace else 1 if run.ordered else 2

    def more(minimum: int) -> bool:
        # one more group only if it would end before the deadline
        elapsed = time.monotonic() - start
        return (len(durations) < minimum or len(durations) % group != 0
                or elapsed + median(durations) * group <= seconds)

    while more(2 * MIN_TRACED_REPS if trace else MIN_REPS):
        index = len(durations)
        begun = time.monotonic()
        if trace:
            # untraced and traced in pairs; which goes first alternates
            run.repetition(index // 2, index % 4 in (1, 2))
        else:
            run.repetition(index, False)
        durations.append(time.monotonic() - begun)
    return run, per_layer_metrics(run) if trace else end_to_end_metrics(run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "d4census" / "cli.py").is_file():
        print(f"perfbench: no d4census sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    any_report = next((r for rs in run.reports.values() for r in rs), {})
    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": any_report.get("python", "unknown"),
        "numpy": any_report.get("numpy", "unknown"),
        "git_commit": git_commit(),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": {"untraced": len(run.reports[False]), "traced": len(run.reports[True])},
    }
    failed = len(run.failures)
    for message in run.failures + run.problems:
        print(f"FAILED {message}")
    print("env " + json.dumps(stamp))
    print(unscaled_summary(run))
    print(f"error_rate {failed / max(run.attempted, 1):.6g} ({failed} of {run.attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": None if math.isnan(value) else value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
