import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d4census import arith, asymptotic, census, charsum, cli, localsolve
from d4census.cli import (
    BREAKDOWN_CSV_HEADER,
    CLASS_CSV_HEADER,
    SWEEP_CSV_HEADER,
    VERIFY_SUITES,
    breakdown_csv,
    canonical_json,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "1", "1", "1", "1")
    assert code == 0
    assert "exact     = 16" in out


def test_count_zero_twist_bound(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "1", "1", "1", "0")
    assert code == 0
    assert "exact     = 0" in out


def test_count_json_payload(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "1", "1", "1", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["exact"] == 16
    assert payload["tool"] == "d4census"
    assert payload["result"]["ratio"] == pytest.approx(
        16 / payload["result"]["predicted"]
    )


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--x", "2", "3", "4", "5", "--format", "json"
    )
    assert code == 0
    text = out.strip()
    assert canonical_json(json.loads(text)) == text


def test_count_csv_breakdown(capsys):
    code, out, _ = run_cli(capsys, "count", "--x", "1", "1", "1", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == BREAKDOWN_CSV_HEADER
    assert len(lines) == 5  # four admissible triples
    assert lines[-1].endswith(",4")  # cumulative twist total


def reference_breakdown(m1, m2, m3, twists) -> str:
    """The breakdown as str.format writes it, the cumulative summed in Python ints."""
    twists = twists.tolist()
    lines = map("{},{},{},{},{}".format, m1.tolist(), m2.tolist(), m3.tolist(),
                twists, itertools.accumulate(twists))
    return "\n".join((BREAKDOWN_CSV_HEADER, *lines)) + "\n"


_BLOCK = cli._CSV_BLOCK
_INT64_MAX = 2**63 - 1
_EDGE_VALUES = np.array([0, 1, -1, 9, -10, 999, 1000, 10**9 - 1, 10**9, -10**9,
                         _INT64_MAX, -_INT64_MAX], dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(rows=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]) | st.integers(0, 2 * _BLOCK),
       digits=st.lists(st.integers(1, 19), min_size=4, max_size=4),
       near_2_62=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_breakdown_csv_matches_format_and_accumulate(rows, digits, near_2_62, seed):
    # int64 columns of up to the given number of digits, of either sign, with
    # 0, +-(2^63 - 1) and the limb and digit-group edges mixed in; twists
    # near 2^62 pass 2^63 in their running sum, so the limb carry runs
    rng = np.random.default_rng(seed)
    columns = []
    for width in digits:
        bound = min(10**width - 1, _INT64_MAX)
        column = rng.integers(-bound, bound, rows, dtype=np.int64, endpoint=True)
        edge = rng.random(rows) < 0.1
        column[edge] = rng.choice(_EDGE_VALUES, int(edge.sum()))
        columns.append(column)
    if near_2_62:
        columns[3] = rng.integers(2**62 - 2**40, 2**62 + 2**40, rows, dtype=np.int64)
    got, expected = "".join(breakdown_csv(*columns)), reference_breakdown(*columns)
    # the first line that differs, if any: pytest's diff of two texts this
    # long would take minutes
    lines = itertools.zip_longest(got.split("\n"), expected.split("\n"))
    assert next(((row, a, b) for row, (a, b) in enumerate(lines) if a != b), None) is None


@pytest.mark.parametrize("twists", [
    [10**9, 5, 10**9 - 5],  # a low limb of 0 and of 5 under a high limb: zero-padded
    [-1, -10**9, 10**9 + 1, -(10**9)],  # negative sums borrow from the high limb
    [_INT64_MAX] * 3 + [-_INT64_MAX] * 5,  # past 2^63, back, and past -2^63
])
def test_breakdown_csv_cumulative_limb_edges(twists):
    twists = np.array(twists, dtype=np.int64)
    zeros = np.zeros(len(twists), dtype=np.int64)
    assert "".join(breakdown_csv(zeros, zeros, zeros, twists)) == reference_breakdown(
        zeros, zeros, zeros, twists)


def test_breakdown_csv_refuses_more_rows_than_its_limbs_hold(monkeypatch):
    # a row moves the high limb by at most 2^63 / 10^9 + 2, so it stays in int64
    assert cli._CSV_MAX_ROWS == 999_999_999
    assert cli._CSV_MAX_ROWS * (_INT64_MAX // 10**9 + 2) <= _INT64_MAX
    monkeypatch.setattr(cli, "_CSV_MAX_ROWS", 2)
    column = np.zeros(3, dtype=np.int64)
    with pytest.raises(arith.CapacityError, match="3 breakdown rows"):
        breakdown_csv(column, column, column, column)  # raised before any piece is read
    assert "".join(breakdown_csv(*(column[:2],) * 4)) == reference_breakdown(*(column[:2],) * 4)


@pytest.mark.parametrize("x, rows", [("0", 0), ("3", 14)])
def test_count_csv_of_empty_and_zero_twist_boxes(capsys, x, rows):
    # no row at all, and rows whose twists and cumulative are all 0
    code, out, _ = run_cli(capsys, *f"count --x {x} {x} {x} 0 --format csv".split())
    lines = out.splitlines()
    assert code == 0 and lines[0] == BREAKDOWN_CSV_HEADER and len(lines) == rows + 1
    assert all(line.endswith(",0,0") for line in lines[1:])
    box = census.BoundBox(*(float(x),) * 3, 0)
    columns = census.census_rows(box, arith.build_sieve(census.required_sieve_limit(box)))
    assert out == reference_breakdown(*columns)


def test_count_csv_to_a_file_peak_per_row(capsys, tmp_path):
    # the rows are formatted in blocks and streamed to the file, so the peak
    # is census_rows' own: 58.6 B/row here, and 180.2 B/row when the whole
    # file was first built as one string from per-row Python ints
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *"count --x 200 200 200 200 --format csv --out".split(),
                               str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = path.read_bytes().count(b"\n") - 1
    assert code == 0 and out == "" and rows == 357_016  # triples_visited at X = 200
    assert peak / rows < 70


def test_count_capacity_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "--x", "1e8", "1e8", "1e8", "1")
    assert code == 3
    assert "capacity" in err
    # the kernel's charge reads the sizes and prime-column widths of its value lists
    code, out, err = run_cli(capsys, *"count --x 20000 20000 1 1".split())
    assert code == 3 and out == ""
    assert err == ("capacity error: mask kernel of 1 x 8104 x 8104 odd parts needs "
                   "~5779497264 bytes, budget is 2147483648\n")


def test_twist_bound_needs_sieve_only_to_its_square_root(capsys):
    # 4e7 entries would exceed the budget; isqrt(4e7) = 6324 does not
    code, out, _ = run_cli(capsys, "count", "--x", "1", "1", "1", "4e7")
    assert code == 0
    assert "exact     = 259381648" in out
    code, out, err = run_cli(capsys, "count", "--x", "1", "1", "1", "1e16")
    assert code == 3 and out == "" and "Traceback" not in err
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("capacity error: sieve of size 100000000 ")


@pytest.mark.parametrize("classes", [False, True])
def test_sweep_large_fixed_x4_prints_every_box(capsys, classes):
    argv = ["sweep", "--min", "10", "--max", "40", "--fix-x4", "1e9"]
    code, out, err = run_cli(capsys, *argv, *(["--classes"] if classes else []))
    assert code == 0 and err == ""
    rows = out.strip().split("\n")[1:]
    x1s = sorted({row.split(",")[8 if classes else 0] for row in rows})
    assert x1s == ["10", "20", "40"]


def test_census_consistency_at_large_twist_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "census-consistency",
                           "--x", "30", "30", "30", "1e9")
    assert code == 0
    assert "expected 15269227515440, actual 15269227515440" in out


def test_census_consistency_oracle_reads_no_census_memo(capsys, monkeypatch):
    # X4 above the sieve: both sides twist-count by the memoised recursion, so
    # a memo the census leaves wrong must not reach the oracle's counts
    census_of = cli.exact_census

    def poisoned(box, tables):
        report = census_of(box, tables)
        for key in tables._coprime_cache:
            tables._coprime_cache[key] += 1
        return report

    monkeypatch.setattr(cli, "exact_census", poisoned)
    code, out, _ = run_cli(capsys, "verify", "--suite", "census-consistency",
                           "--x", "30", "30", "30", "1e6")
    assert code == 0 and "FAIL" not in out


def test_prime_table_over_budget_exits_three(capsys, monkeypatch):
    # the Euler products keep their values and prime tables, so clear them first
    for cached in vars(asymptotic).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 10**6)
    code, out, err = run_cli(capsys, "constants", "--pmax", "10000000")
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("capacity error: prime table")


def test_over_budget_pmax_exits_three_before_the_census(capsys, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before the prediction")

    monkeypatch.setattr(cli, "exact_census", no_census)
    code, out, err = run_cli(capsys, *"count --x 20 20 20 20 --pmax 2000000000".split())
    assert code == 3 and out == ""
    assert err.startswith("capacity error: prime table up to 2000000000 ")


def test_count_csv_makes_no_prediction(capsys, monkeypatch):
    def no_prediction(*args, **kwargs):
        raise AssertionError("count --format csv made a prediction")

    monkeypatch.setattr(cli, "predicted_count", no_prediction)
    argv = "count --x 9 17 13 11 --format csv".split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.count("\n") > 1 and err == ""
    # the rows carry no prediction, so --pmax is an option the CSV does not read
    code, out, err = run_cli(capsys, *argv, "--pmax", "2000000000")
    assert code == 2 and out == ""
    assert err.startswith("usage: d4census") and "does not read --pmax" in err


def test_count_csv_bytes_pinned(capsys):
    # recorded with the earlier per-pair row kernel, an independent implementation
    code, out, _ = run_cli(capsys, *"count --x 50 100 200 100 --format csv".split())
    assert code == 0 and out.count("\n") == 53630
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "905c12b1554f316b7c04398cfa7c5b4b203557982cb4a4188e7ef277d4b9f330")


_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
_PINNED = ("count --x 200 200 200 200",
           *(f"count --x {a} {b} {c} 100 --format csv"
             for a, b, c in itertools.permutations((50, 100, 200))),
           "sweep --min 10 --max 80 --classes",
           "verify --suite census-consistency",
           "constants --pmax 10000000")


@pytest.mark.parametrize("argv", _PINNED)
def test_benchmark_pinned_bytes(capsys, argv):
    # the exit code and stdout sha256 the benchmark's expected.json records
    expected = json.loads(_EXPECTED.read_text())[argv]
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == expected["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("argv", ["count --x 2 2 2 2", "count --x 2 2 2 2 --format json",
                                  "count --x 2 2 2 2 --format csv",
                                  # 53,629 rows: several blocks of the writer
                                  "count --x 50 100 200 100 --format csv",
                                  "verify --suite lemma432 --format json"])
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.endswith("\n")
    path = tmp_path / "out"
    assert run_cli(capsys, *argv.split(), "--out", str(path)) == (code, "", "")
    written = path.read_bytes()
    if "json" not in argv:
        assert written == out.encode()
        return
    # the envelope also records the run's time and its --out; nothing else differs
    assert written.endswith(b"}\n") and written.count(b"\n") == 1

    def run_fields_dropped(text):
        env = json.loads(text)
        del env["elapsed_seconds"]
        env["config"].pop("out", None)
        return env

    assert run_fields_dropped(written) == run_fields_dropped(out)


def test_mask_kernel_over_budget_exits_three_before_allocating(capsys, monkeypatch, tmp_path):
    # the sieve of 201 entries fits; the 81 x 81 mask plane, in blocks of two
    # m1', needs ~853 kB
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 200_000)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *"count --x 200 200 200 100 --format csv".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == ("capacity error: mask kernel of 81 x 81 x 81 odd parts needs ~852930 "
                   "bytes, budget is 200000\n")
    assert peak < 200_000
    # the --out file is opened only once the rows are counted
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, *"count --x 200 200 200 100 --format csv --out".split(),
                           str(path))
    assert code == 3 and out == "" and not path.exists()


def test_sweep_classes_skips_an_over_budget_pmax_before_the_class_sums(capsys, monkeypatch):
    def no_class_sums(*args, **kwargs):
        raise AssertionError("the class sums ran before --pmax was checked")

    monkeypatch.setattr(cli, "exact_class_sums", no_class_sums)
    code, out, err = run_cli(capsys, *"sweep --min 10 --max 20 --classes --pmax 2000000000".split())
    assert code == 0 and out == CLASS_CSV_HEADER + "\n"
    lines = err.strip().split("\n")
    assert len(lines) == 2 and all(
        line.startswith("sweep: skipping ") and "prime table up to 2000000000 " in line
        for line in lines)


def test_sweep_classes_reads_the_kernel_and_matches_class_sums(capsys, monkeypatch):
    argv = "sweep --min 10 --max 40 --classes --fix-x4 100000".split()

    def oracle_only(*args, **kwargs):
        raise AssertionError("sweep --classes walked the triples")

    with monkeypatch.context() as m:
        m.setattr(charsum, "class_sums", oracle_only)
        m.setattr(cli, "class_sums", oracle_only)
        m.setattr(charsum, "L_product_rows", oracle_only)
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    # the same rows built from the class-walk oracle, byte for byte; X4 = 1e5 is
    # above the sieve of isqrt(X4) = 316 entries
    monkeypatch.setattr(cli, "exact_class_sums", charsum.class_sums)
    assert run_cli(capsys, *argv) == (0, out, "")
    assert len(out.splitlines()) == 1 + 3 * 432


def test_sweep_classes_skips_a_twist_bound_past_the_sieve(capsys):
    code, out, err = run_cli(capsys, *"sweep --min 10 --max 10 --classes --fix-x4 1e17".split())
    assert code == 0 and out == CLASS_CSV_HEADER + "\n"
    assert err == ("sweep: skipping (10.0, 10.0, 10.0, 1e+17): sieve of size 316227766 "
                   "needs ~21503488088 bytes, budget is 2147483648\n")


@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_count_non_finite_bound_exit_two(capsys, bound):
    code, out, err = run_cli(capsys, "count", "--x", bound, "1", "1", "1")
    assert code == 2
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["--min", "0"], ["--min", "-1"], ["--factor", "1"], ["--factor", "0.5"],
    ["--max", "inf"], ["--min", "nan"], ["--factor", "inf"],
    # about 9.4e15 boxes: refused before the first one runs
    ["--min", "10", "--max", "80", "--factor", "1.0000000000000002"],
])
def test_sweep_rejects_grids_that_never_end(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == "" and "error" in err


def test_sweep_box_cap_admits_a_fine_grid(capsys, monkeypatch):
    # 187 boxes, far below the cap; the census is stubbed to keep the test cheap
    monkeypatch.setattr(cli, "build_sieve", lambda limit: None)
    monkeypatch.setattr(cli, "exact_census", lambda box, tables: census.CensusReport(0, 0))
    code, out, _ = run_cli(capsys, *"sweep --min 10 --max 400 --factor 1.02".split())
    assert code == 0 and len(out.splitlines()) == 1 + 187


@pytest.mark.parametrize("argv", [
    "predict --x 1 1 1 1 --workers 2",
    "predict --x 1 1 1 1 --sieve-cache sieve.bin",
    "predict --x 1 1 1 1 --format csv",
    "constants --workers 2",
    "constants --sieve-cache sieve.bin",
    "constants --format csv",
    "verify --suite lemma432 --sieve-cache sieve.bin",
    "verify --suite lemma432 --format csv",
    "classify --triple 1 2 7 --pmax 5",
    "classify --triple 1 2 7 --workers 2",
    "classify --triple 1 2 7 --sieve-cache sieve.bin",
    "classify --triple 1 2 7 --format csv",
    "sweep --format json",
    "sweep --max 10 --sieve-cache sieve.bin",
    "count --x 1 1 1 1 --format csv --pmax 5",
    "count --x 1 1 1 1 --workers 2",
    "sweep --max 10 --workers 2",
    "verify --suite census-consistency --workers 1",
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("usage: d4census") and "error:" in err


def assert_one_usage_error(code, out, err, flag):
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


@pytest.mark.parametrize("argv", [
    "count --x 1 1 1 1 --workers 0",
    "count --x 1 1 1 1 --workers -5",
    "verify --suite census-consistency --workers 0",
    "verify --suite census-consistency --x 1 1 1 1 --workers -2",
    "sweep --max 10 --workers 0",
    "sweep --max 10 --workers -1",
])
def test_non_positive_workers_are_usage_errors(capsys, argv):
    # count, verify and sweep have no --workers: any value is a usage error naming it
    assert_one_usage_error(*run_cli(capsys, *argv.split()), "--workers")


@pytest.mark.parametrize("argv", [
    "count --x 400 400 400 400 --pmax 2",
    "count --x 1 1 1 1 --format csv --pmax -1",
    "predict --x 1 1 1 1 --pmax 2",
    "constants --pmax 0",
    "verify --suite census-consistency --pmax 2",
    "sweep --pmax 0",
])
def test_pmax_below_three_is_a_usage_error_before_any_census(capsys, monkeypatch, argv):
    def no_census(*args, **kwargs):
        raise AssertionError("a census ran before --pmax was checked")

    monkeypatch.setattr(census, "exact_census", no_census)
    monkeypatch.setattr(cli, "exact_census", no_census)
    assert_one_usage_error(*run_cli(capsys, *argv.split()), "--pmax")


@pytest.mark.parametrize("argv, flag", [
    ("classify --triple x 1 1", "--triple"),
    ("verify --suite hasse --bound x", "--bound"),
    ("sweep --factor x", "--factor"),
    ("count --x 1 1 1 1 --pmax x", "--pmax"),
])
def test_usage_errors_name_the_number_type_for_the_user(capsys, argv, flag):
    # argparse names the type function in the message: no helper of the CLI's own
    code, out, err = run_cli(capsys, *argv.split())
    assert_one_usage_error(code, out, err, flag)
    assert re.search(r"invalid (integer|number) value: 'x'", err)
    assert "parse" not in err and not re.search(r"invalid _\w* value", err)


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("suite", ["constants", "tamagawa"])
def test_verify_tol_must_be_finite_and_positive(capsys, suite, tol):
    assert_one_usage_error(*run_cli(capsys, "verify", "--suite", suite, "--tol", tol), "--tol")


# the verify options each suite reads, and a cheap value for each option;
# --workers, which no suite reads, must be a usage error on all of them
SUITE_OPTIONS = {
    "lemma432": (),
    "hasse": ("--bound",),
    "lemma41": ("--bound",),
    "esets": (),
    "divisor-identity": ("--bound",),
    "census-consistency": ("--x",),
    "constants": ("--tol", "--pmax"),
    "tamagawa": ("--tol", "--pmax"),
}
VERIFY_OPTION_VALUES = {
    "--bound": ["3"],
    "--tol": ["1e-6"],
    "--x": ["1", "1", "1", "1"],
    "--workers": ["1"],
    "--pmax": ["1000"],
}


@pytest.mark.parametrize("option", VERIFY_OPTION_VALUES)
@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_accepts_only_the_options_its_suite_reads(capsys, suite, option):
    code, out, err = run_cli(capsys, "verify", "--suite", suite,
                             option, *VERIFY_OPTION_VALUES[option])
    if option in SUITE_OPTIONS[suite]:
        assert code == 0 and f"suite {suite}: PASS" in out
    else:
        assert_one_usage_error(code, out, err, option)


def test_sweep_classes_reads_no_workers(capsys):
    assert_one_usage_error(*run_cli(capsys, *"sweep --max 10 --classes --workers 2".split()),
                           "--workers")


def test_verify_names_every_unread_option(capsys):
    code, out, err = run_cli(capsys, *"verify --suite lemma432 --bound 5 --tol 3 "
                                       "--x 1 1 1 1 --pmax 7".split())
    assert_one_usage_error(code, out, err, "--bound, --pmax, --tol, --x")


@pytest.mark.parametrize("argv", [
    "count --x 1 1 1 1 --out {missing}/x",
    "count --x 200 200 200 100 --format csv --out {missing}/x",
    "sweep --max 10 --out {missing}/x",
    "count --x 1 1 1 1 --sieve-cache {missing}/x",
    "count --x 1 1 1 1 --sieve-cache {directory}",
])
def test_unusable_output_or_cache_path_is_an_error_not_a_traceback(capsys, tmp_path, argv):
    argv = argv.format(missing=tmp_path / "missing", directory=tmp_path)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_readme_options_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {m.group(1): set(re.findall(r"--[a-z][a-z0-9-]*", m.group(2)))
             for m in re.finditer(r"^\| `([a-z]+)` \| (.*) \|$", readme, re.MULTILINE)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
             for name, sub in subparsers.choices.items()}
    assert table == flags


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "count")[0] == 2                       # missing --x
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 2   # unknown suite
    assert run_cli(capsys, "count", "--x", "1", "1", "1", "-2")[0] == 2


def test_verify_lemma432(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma432", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = {c["name"]: c for c in payload["checks"]}
    assert names["class_sum_weight_at_one"]["actual"] == 432
    assert names["class_sum_weighted"]["actual"] == 432
    assert payload["result"]["all_pass"] is True


def test_verify_esets(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "esets")
    assert code == 0
    assert "FAIL" not in out


def test_verify_constants(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "constants",
                           "--pmax", "100000", "--tol", "1e-8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_pass"] is True


def test_leading_constant_mismatch_fails_the_suite(capsys, monkeypatch):
    # the suite is the only judge of the two routes: a mismatch is a FAIL line
    # and exit 1, and `constants` prints the product whatever it is
    exact = asymptotic.leading_constant

    def scaled(spec):
        lead = exact(spec)
        return asymptotic.EulerValue(1.01 * lead.value, lead.tail_bound)

    monkeypatch.setattr(asymptotic, "leading_constant", scaled)
    code, out, _ = run_cli(capsys, "verify", "--suite", "tamagawa")
    assert code == 1
    assert "FAIL product_matches_leading_below_1e-08" in out
    assert run_cli(capsys, "constants")[0] == 0


def test_verify_census_consistency_custom_box(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "census-consistency",
                           "--x", "6", "6", "6", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["all_pass"] is True


def test_verify_divisor_identity_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "divisor-identity",
                           "--bound", "315")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("block", [1, 7])
def test_verify_divisor_identity_does_not_depend_on_the_block_size(capsys, monkeypatch, block):
    argv = "verify --suite divisor-identity --bound 600 --format json".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(charsum, "_L_BLOCK_ROWS", block)
    code, blocked, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = [json.loads(text)["checks"] for text in (out, blocked)]
    assert checks[0] == checks[1]
    assert checks[0][0]["actual"] == {"cases": 12 * 1882, "failures": 0}


def test_verify_divisor_identity_peak_memory_is_bounded(capsys):
    # the default run traced 5.2 MB at its peak with 1024-row blocks and 28.1 MB
    # in one block: the bound fails if the forms stop walking their rows in blocks
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--suite", "divisor-identity")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "{'cases': 147216, 'failures': 0}" in out
    assert peak < 10 * 10**6


@pytest.mark.parametrize("suite", ["hasse", "lemma41", "divisor-identity"])
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_rejects_non_positive_bound(capsys, suite, bound):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--bound", bound)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--bound" in errors[0]


@pytest.mark.parametrize("suite, cap", [("hasse", 80), ("lemma41", 40),
                                        ("divisor-identity", 20_000)])
@pytest.mark.parametrize("over", [1, 100_000])
def test_verify_bound_is_capped(capsys, suite, cap, over):
    # the exhaustive suites grow like bound^3 (hasse, lemma41) or faster than
    # bound (divisor-identity): a bound above the cap is refused before any work
    got = run_cli(capsys, "verify", "--suite", suite, "--bound", str(cap + over))
    assert_one_usage_error(*got, f"--bound up to {cap}")


@pytest.mark.parametrize("x", ["151 1 1 1", "1 151 1 1", "1 1 151 1", "1 1 1 1.1e12"])
def test_verify_census_consistency_box_is_capped(capsys, x):
    # the class sums walk every coprime odd triple in Python, so their cost
    # grows like X^3: a box above the caps is refused before any work
    got = run_cli(capsys, "verify", "--suite", "census-consistency", "--x", *x.split())
    assert_one_usage_error(*got, "--x up to 150 150 150 1000000000000")


def test_verify_hasse_and_lemma41_small(capsys):
    assert run_cli(capsys, "verify", "--suite", "hasse", "--bound", "10")[0] == 0
    assert run_cli(capsys, "verify", "--suite", "lemma41", "--bound", "8")[0] == 0


@pytest.mark.parametrize("suite, cap, cases", [("hasse", 80, 240_712), ("lemma41", 40, 30_064)])
def test_verify_hasse_and_lemma41_at_their_caps(capsys, suite, cap, cases):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--bound", str(cap))
    assert code == 0
    assert out.count(f"actual {{'cases': {cases}, 'failures': 0}}") == (1 if suite == "hasse" else 2)


@pytest.mark.parametrize("suite", ["hasse", "lemma41"])
def test_one_flipped_hilbert_symbol_is_one_failure(capsys, monkeypatch, suite):
    symbols = cli.hilbert_symbol_rows
    calls = []

    def flipped(a, b, v):
        out = symbols(a, b, v)
        if not calls:
            out[0] = -out[0]
        calls.append(v)
        return out

    monkeypatch.setattr(cli, "hilbert_symbol_rows", flipped)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1 and calls
    # lemma41 compares the symbols with the local conditions and the oracle
    lines = out.splitlines()[:-1]
    assert len(lines) == (1 if suite == "hasse" else 2)
    assert all(line.startswith("FAIL") and line.endswith(
        "actual {'cases': 11908, 'failures': 1}") for line in lines)


def count_oracle_rows(monkeypatch, flip_first=False):
    """Wrap the oracle the lemma41 suite calls: count its (triple, place)
    rows, and optionally flip the first verdict at the first place."""
    seen = []
    oracle = cli.padic_oracle_rows

    def rows(a, b, v):
        out = oracle(a, b, v)
        if flip_first and not seen:
            out[0] = not out[0]
        seen.append(len(out))
        return out

    monkeypatch.setattr(cli, "padic_oracle_rows", rows)
    return seen


def test_lemma41_oracle_rows(capsys, monkeypatch):
    # the place-by-place pass evaluates exactly the (triple, place) pairs a
    # per-triple all() over its places would (real, 2, then each odd p | m1*m2*m3,
    # ascending), with no pair after the first refuted one
    seen = count_oracle_rows(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41")
    assert code == 0 and sum(seen) == 29_422
    assert "'cases': 11908, 'failures': 0" in out
    seen.clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41", "--bound", "1")
    assert code == 0 and out.count("'cases': 4, 'failures': 0") == 4
    assert seen == [4, 3]  # (1, -1, -1) fails at the real place


def test_lemma41_reports_one_flipped_oracle_verdict(capsys, monkeypatch):
    count_oracle_rows(monkeypatch, flip_first=True)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma41")
    assert code == 1
    assert "FAIL symbols_vs_oracle_bound_30" in out
    assert "actual {'cases': 11908, 'failures': 1}" in out
    assert "PASS local_conditions_vs_symbols_bound_30" in out

@pytest.mark.parametrize("factor, xs", [([], [4, 8, 16]), (["--factor", "4"], [4, 16])],
                         ids=["default", "factor-4"])
def test_sweep_csv_shape(capsys, factor, xs):
    code, out, _ = run_cli(capsys, "sweep", "--min", "4", "--max", "16", *factor)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert [int(line.split(",")[0]) for line in lines[1:]] == xs
    for line in lines[1:]:
        x1, x2, x3, x4, exact, predicted, ratio = line.split(",")
        assert float(ratio) > 0
        assert int(exact) % 4 == 0


def test_sweep_empty_grid(capsys):
    # no box at all, or every box skipped for capacity: the header alone
    for grid in (["--min", "10", "--max", "5"], ["--min", "1e8", "--max", "1e8"]):
        code, out, _ = run_cli(capsys, "sweep", *grid)
        assert code == 0 and out == SWEEP_CSV_HEADER + "\n"
        code, out, _ = run_cli(capsys, "sweep", *grid, "--classes")
        assert code == 0 and out == CLASS_CSV_HEADER + "\n"


def test_sweep_fixed_x4(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--min", "4", "--max", "8",
                           "--fix-x4", "1")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert fields[3] == "1"
        assert float(fields[6]) > 0


def test_sweep_to_file_lf_endings(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--min", "4", "--max", "8",
                         "--out", str(path))
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(SWEEP_CSV_HEADER.encode())


def test_sieve_cache_reuse(capsys, tmp_path):
    cache = tmp_path / "sieve.bin"
    _, out1, _ = run_cli(capsys, "count", "--x", "5", "5", "5", "5",
                         "--sieve-cache", str(cache))
    assert cache.exists()
    _, out2, _ = run_cli(capsys, "count", "--x", "5", "5", "5", "5",
                         "--sieve-cache", str(cache))
    assert out1 == out2


def _flip_payload_byte(raw):
    raw = bytearray(raw)
    raw[-1] ^= 0x01
    return bytes(raw)


def _version_one(raw):
    # the version-1 layout: magic, version, limit, then the payload unchecked
    return raw[:4] + (1).to_bytes(4, "little") + raw[8:16] + raw[20:]


@pytest.mark.parametrize("damage", [_flip_payload_byte, lambda raw: raw[:-3], _version_one])
def test_damaged_sieve_cache_exit_three(capsys, tmp_path, damage):
    cache = tmp_path / "sieve.bin"
    assert run_cli(capsys, "count", "--x", "5", "5", "5", "5",
                   "--sieve-cache", str(cache))[0] == 0
    cache.write_bytes(damage(cache.read_bytes()))
    code, out, err = run_cli(capsys, "count", "--x", "5", "5", "5", "5",
                             "--sieve-cache", str(cache))
    assert code == 3
    assert out == "" and "sieve cache" in err


def test_sieve_cache_over_budget_exits_three(capsys, tmp_path, monkeypatch):
    # a cache is charged as build_sieve charges its limit, before its payload is read
    cache = tmp_path / "sieve.bin"
    arith.save_sieve_cache(arith.build_sieve(20_000), cache)
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 10**6)
    with pytest.raises(arith.CapacityError) as built:
        arith.build_sieve(20_000)
    code, out, err = run_cli(capsys, "count", "--x", "5", "5", "5", "5",
                             "--sieve-cache", str(cache))
    assert code == 3 and out == ""
    assert err == f"capacity error: {built.value}\n"


# numpy.ma costs 14-34 ms to import, and a bare np.unique(a) imports it
_NO_MASKED_ARRAYS = """
import contextlib, io, sys
from d4census import cli
for argv in ({argvs}):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_census_never_imports_masked_arrays():
    argvs = ("count --x 200 200 200 200", "count --x 50 100 200 100 --format csv",
             "count --x 60 60 60 970000")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS.format(argvs=argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--triple", "1", "2", "7",
                           "--twist", "5", "--prime", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["invariants"] == [1, 7, 1, 5]
    assert payload["result"]["conic"]["witness"] == [3, 1, 1]
    assert payload["result"]["queried_prime"]["inertia_class"] == "rs"
    assert len(payload["result"]["queried_prime"]["splitting_rows"]) == 2


def test_classify_factors_its_triple_once(capsys, monkeypatch):
    calls = []
    decompose = arith.decompose_triple

    def counted(triple):
        calls.append(triple)
        return decompose(triple)

    for module in (arith, census, localsolve, cli):
        monkeypatch.setattr(module, "decompose_triple", counted)
    code, out, _ = run_cli(capsys, *"classify --triple 15 -2 7 --twist 11 --prime 3".split())
    assert code == 0 and len(calls) == 1
    assert out == ("triple      = (15, -2, 7), twist = 11\n"
                   "invariants  = (1, 7, 15, 11)\n"
                   "conic       = x^2 - (-30)y^2 - (105)z^2, soluble: False, witness: None\n"
                   "ramified    = {'3': 'r', '5': 'r', '7': 'rs', '11': 'r2'}\n"
                   "prime 3 inertia class: r\n")


def test_classify_invalid_triple_exit_two(capsys):
    for argv, message in (("4 1 1", "4 is not squarefree"),
                          ("1 2 7 --prime 0", "0 is not an odd prime")):
        code, out, err = run_cli(capsys, "classify", "--triple", *argv.split())
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


@pytest.mark.parametrize("argv, code", [
    ("--triple 99999989 2 99999971", 0),
    ("--triple 999999999989 2 999999999959", 0),
    ("--triple 2305843009213693951 1 1", 2),
    ("--triple 1 2 7 --twist 2305843009213693951", 2),
    ("--triple 1 2 7 --prime 2305843009213693951", 2),
    ("--triple 1 -1000000000001 1", 2),
])
def test_classify_large_inputs_end_quickly(capsys, argv, code):
    # each triple entry and the twist are factored once, and every input is bounded by 10^12
    start = time.perf_counter()
    got = run_cli(capsys, "classify", *argv.split())
    assert time.perf_counter() - start < 5
    if code:
        assert_one_usage_error(*got, "above 10^12")
    else:
        assert got[0] == 0 and "ramified    = {" in got[1]


@pytest.mark.parametrize("height, code", [
    ("2000", 0), ("2001", 2), ("50000", 2), ("0", 2), ("-5", 2)])
def test_classify_height_is_bounded(capsys, height, code):
    # the search tries (height + 1)^2 pairs when the conic has no small point;
    # it runs only on a soluble conic, so the bound is checked at parse time
    for triple, line in (("1 2 7", "soluble: True, witness: (3, 1, 1)"),
                         ("1 3 5", "soluble: False, witness: None")):
        got = run_cli(capsys, "classify", "--triple", *triple.split(), "--height", height)
        if code:
            assert_one_usage_error(*got, "--height")
        else:
            assert got[0] == 0 and line in got[1]


def test_constants_text(capsys):
    code, out, _ = run_cli(capsys, "constants", "--pmax", "10000")
    assert code == 0
    assert "leading const" in out and "tamagawa" in out


def test_predict_json(capsys):
    code, out, _ = run_cli(capsys, "predict", "--x", "1", "1", "1", "1",
                           "--format", "json", "--pmax", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["predicted"] == pytest.approx(
        payload["result"]["leading_constant"]
    )
