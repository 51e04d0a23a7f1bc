"""Tests of the benchmark itself: output checks and trace accounting.

Run from the repository root: python3 -m pytest perfbench
"""

import json

import pytest

import run
import tracer
import workloads


def test_every_seed_choice_is_recorded():
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    for workload in workloads.WORKLOADS:
        for ops in workloads.choices(workload):
            for op in ops:
                assert expected[op["id"]]["rc"] == 0, op["id"]


def test_seed_picks_inputs_deterministically():
    for workload in workloads.WORKLOADS:
        assert workloads.ops_for(workload, 7) == workloads.ops_for(workload, 7)
    picked = {tuple(op["id"] for op in workloads.ops_for("census", s)) for s in range(40)}
    assert len(picked) == len(workloads.CENSUS_PERMUTATIONS)


@pytest.mark.parametrize("field", run.CHECKED_FIELDS)
def test_each_checked_field_is_compared(field):
    op = {"id": "op"}
    record = {"id": "op", "rc": 0, "sha256": "ab", "exact": 16, "triples": 3,
              "fraction_sha256": "cd", "terms": 5}
    want = {k: v for k, v in record.items() if k != "id"}
    assert run.op_failures([op], {"ops": [record]}, {"op": want}) == []
    corrupted = dict(want, **{field: "corrupted"})
    assert run.op_failures([op], {"ops": [record]}, {"op": corrupted})


def test_one_corrupted_recording_fails_the_run(tmp_path, monkeypatch, capsys):
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    cold, _ = workloads.ops_for("big-sieve", 0)
    expected[cold["id"]]["exact"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", path)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 1)
    monkeypatch.setattr(run, "MIN_REPS", 1)

    assert run.main(["--workload", "big-sieve", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2
    assert result["failed"] == 1


def test_op_times_scale_by_their_own_probes():
    report = {"probe_s": run.REFERENCE_S * 4, "ops": [
        {"wall_s": 3.0, "cpu_s": 2.0, "probe_s": run.REFERENCE_S * 2},  # half speed
        {"wall_s": 1.0, "cpu_s": 1.0, "probe_s": None},  # too short to probe
    ]}
    assert run.scaled(report, "wall_s") == 1.5 + 0.25
    assert run.scaled(report, "cpu_s") == 1.0 + 0.25


def test_untraced_child_probes_every_op():
    ops = [workloads.cli_op("count --x 40 40 40 40"), workloads.cli_op("verify --suite hasse")]
    report = run.run_child(ops, trace=False)
    assert "error" not in report
    for record in report["ops"]:
        assert record["rc"] == 0 and record["probes"] >= 1
        assert 0 < record["cpu_s"] and 0 < record["wall_s"]
    assert report["probe_s"] > 0 and run.scaled_setup(report) > 0


def test_traced_child_nests_spans_and_repeats_counts():
    ops = [workloads.cli_op("count --x 20 20 20 20"),
           workloads.cli_op("verify --suite hasse --bound 8"),
           workloads.charsum_op(-43) | {"x": 2000}]
    reports = [run.run_child(ops, trace=True) for _ in range(2)]
    for report in reports:
        assert "error" not in report
        assert all("error" not in r for r in report["ops"])
        assert report["probe_s"] is None and "probes" not in report["ops"][0]
        times = report["trace"]["times"]
        self_total = sum(times[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert all(times[f"{layer}.self_s"] >= -1e-6 for layer in tracer.LAYERS)
        assert self_total <= run.op_wall(report) + 1e-6
        assert times["census.exact_census_s"] >= times["census.enumerate_s"]
        assert times["census.exact_census_s"] >= times["arith.twist_count_s"]
        assert times["cli.main_s"] >= times["census.exact_census_s"]
        counts = report["trace"]["counts"]
        assert counts["census.triples_yielded"] == counts["arith.twist_count_calls"] > 0
        assert counts["arith.kronecker_calls"] > 0
        assert counts["charsum.character_sum_terms"] > 0
    assert reports[0]["trace"]["counts"] == reports[1]["trace"]["counts"]

