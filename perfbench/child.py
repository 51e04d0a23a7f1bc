"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py <monotonic time at spawn> [--trace], with a JSON spec
on stdin: {"ops": [...], "tmpdir": path}
Prints one JSON object: set-up time, one record per op (exit code, output
digest, parsed counts, wall and CPU seconds, host speed probes), peak RSS,
and with --trace the per-layer aggregates.

The package is imported before the spec is read, so set-up time covers only
interpreter start and `import d4census.cli`, as a command-line user pays it.
It is measured against the parent's `time.monotonic()` at spawn; on Linux
that clock is CLOCK_MONOTONIC, which all processes share.

The speed of the shared host drifts while an op runs, so an untraced child
also probes it: every PROBE_INTERVAL_S of wall time a SIGALRM handler times
a fixed pure-Python loop that does not touch d4census.  The parent scales
each op's time by the probes taken during that op (see run.py).  The
handler's own wall and CPU time is taken out of the op's times.  A traced
child does not probe, so that no probe time lands in a layer's spans.
"""

import os
import signal
import sys
import time

_SPAWNED = float(sys.argv[1])

PROBE_INTERVAL_S = 0.02


def _probe_loop() -> int:
    """Fixed integer and dict work: about 0.25 ms on a quiet 2-vCPU VM."""
    total = 0
    table = {}
    for i in range(2000):
        total += i * i % 7
        table[i & 255] = total
    return total


class HostProbe:
    """Times _probe_loop on a wall-clock timer, between bytecodes of the op."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0  # total time spent in the handler
        self.cpu_s = 0.0

    def _handler(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        _probe_loop()
        wall = time.perf_counter() - t0
        self.samples.append(wall)
        self.wall_s += wall
        self.cpu_s += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple:
        return len(self.samples), self.wall_s, self.cpu_s


_TRACE = "--trace" in sys.argv
_probe = None if _TRACE else HostProbe()
if _probe is not None:
    _probe.start()
_import_mark = _probe.mark() if _probe is not None else None

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import d4census.cli  # noqa: E402

SETUP_S = time.monotonic() - _SPAWNED
if _probe is not None:
    SETUP_S -= _probe.wall_s - _import_mark[1]

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402


def _parse_count(text: str, csv: bool) -> dict:
    """The exact count and the number of triples visited, from count output."""
    if csv:
        rows = text.splitlines()[1:]
        cumulative = int(rows[-1].rsplit(",", 1)[1]) if rows else 0
        return {"exact": 4 * cumulative, "triples": len(rows)}
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {"exact": int(fields["exact     "]), "triples": int(fields["triples   "])}


def run_cli(op: dict, tmpdir: str) -> dict:
    argv = [a.replace("{cache}", os.path.join(tmpdir, "sieve.d4cs")) for a in op["argv"]]
    out = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = d4census.cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.getvalue()
    record = {"rc": rc, "wall_s": wall, "cpu_s": cpu, "bytes": len(text.encode()),
              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if argv[0] == "count" and rc == 0:
        record.update(_parse_count(text, "csv" in argv))
    return record


def run_charsum(op: dict) -> dict:
    from d4census import arith, charsum

    c0 = time.process_time()
    t0 = time.perf_counter()
    spec = (charsum.CharacterSpec.principal(1) if op["disc"] == 1
            else charsum.CharacterSpec.quadratic(op["disc"]))
    report = charsum.character_sum_f(op["x"], spec, arith.build_sieve(op["x"]))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    value = f"{report.value.numerator:x}/{report.value.denominator:x}"
    return {"rc": 0, "wall_s": wall, "cpu_s": cpu, "terms": report.terms,
            "fraction_sha256": hashlib.sha256(value.encode()).hexdigest()}


def run_op(op: dict, tmpdir: str) -> dict:
    """The op's record; with probing, its times exclude the probe handler's."""
    before = _probe.mark() if _probe is not None else None
    record = run_cli(op, tmpdir) if op["kind"] == "cli" else run_charsum(op)
    if _probe is not None:
        count, wall, cpu = before
        record["wall_s"] -= _probe.wall_s - wall
        record["cpu_s"] -= _probe.cpu_s - cpu
        samples = _probe.samples[count:]
        record["probes"] = len(samples)
        record["probe_s"] = statistics.mean(samples) if samples else None
    return record


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if _TRACE:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    output_bytes = 0
    for op in spec["ops"]:
        try:
            record = run_op(op, spec["tmpdir"])
        except Exception:  # one op failing must not hide the others' results
            record = {"error": traceback.format_exc()}
        record["id"] = op["id"]
        output_bytes += record.get("bytes", 0)
        records.append(record)
        if tracer is not None:
            tracer.close_op()
    if _probe is not None:
        _probe.stop()
    result = {
        "setup_s": SETUP_S,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ops": records,
        "probe_s": statistics.mean(_probe.samples) if _probe and _probe.samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.snapshot(output_bytes) if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
