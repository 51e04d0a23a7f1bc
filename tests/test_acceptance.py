"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines and timings.
"""

import json
import time
from math import log, sqrt

from d4census.arith import _squarefree_factors, build_sieve, factor_small
from d4census.asymptotic import (
    EulerProductSpec,
    predicted_count,
    twist_main_term,
)
from d4census.census import BoundBox, exact_census
from d4census.charsum import CharacterSpec, character_sum_f
from d4census.cli import main


def report(capsys, number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{name}]: {status} ({detail}; {elapsed:.2f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def run_suite(capsys, *argv):
    """Exit code and the checks, by name, of one `d4census verify` suite."""
    code = main(["verify", "--suite", *argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, {c["name"]: c for c in payload["checks"]}


def test_criterion_1_class_sums(capsys):
    t0 = time.perf_counter()
    code, checks = run_suite(capsys, "lemma432")
    got = (checks["class_sum_weight_at_one"]["actual"], checks["class_sum_weighted"]["actual"])
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "class sums 432", code == 0 and got == (432, 432) and elapsed < 1.0,
           f"sums={got}", elapsed)


def test_criterion_2_hasse_and_local_equivalence(capsys):
    t0 = time.perf_counter()
    hasse_code, hasse = run_suite(capsys, "hasse")
    local_code, local = run_suite(capsys, "lemma41")
    results = [hasse["hasse_product_bound_30"]["actual"],
               local["local_conditions_vs_symbols_bound_30"]["actual"],
               local["symbols_vs_oracle_bound_30"]["actual"]]
    elapsed = time.perf_counter() - t0
    ok = (hasse_code == local_code == 0 and len(hasse) == 1 and len(local) == 2
          and all(r == {"cases": 11908, "failures": 0} for r in results) and elapsed < 60)
    report(capsys, 2, "Hasse product and local equivalences", ok,
           f"{[r['cases'] for r in results]} triples, "
           f"mismatches {[r['failures'] for r in results]}", elapsed)


def test_criterion_3_weight_symbol_coherence(capsys):
    t0 = time.perf_counter()
    code, checks = run_suite(capsys, "esets")
    names = {"u_equals_dyadic_symbol_768_cases", "u_positive_on_admissible_classes",
             "literal_residue_lists_match"}
    elapsed = time.perf_counter() - t0
    ok = code == 0 and set(checks) == names and all(c["actual"] == 0 for c in checks.values())
    report(capsys, 3, "u vs dyadic symbol", ok,
           f"checks {sorted(checks)}, mismatches {[c['actual'] for c in checks.values()]}",
           elapsed)


def test_criterion_4_local_product_identity(capsys):
    t0 = time.perf_counter()
    code, checks = run_suite(capsys, "divisor-identity")
    got = checks["product_equals_divisor_sum_upto_3000"]["actual"]
    elapsed = time.perf_counter() - t0
    ok = code == 0 and len(checks) == 1 and got == {"cases": 147216, "failures": 0}
    report(capsys, 4, "local product = divisor sum", ok and elapsed < 60,
           f"{got['cases']} cases, {got['failures']} mismatches", elapsed)


def test_criterion_5_census_consistency(capsys):
    t0 = time.perf_counter()
    code, checks = run_suite(capsys, "census-consistency")
    boxes = [(1, 1, 1, 1), (10, 10, 10, 10), (50, 50, 50, 50)]
    names = {f"census_vs_class_sums_{raw}" for raw in boxes} | {"unit_box_exact"}
    unit_exact = checks["unit_box_exact"]["actual"]
    elapsed = time.perf_counter() - t0
    ok = (code == 0 and set(checks) == names and all(c["pass"] for c in checks.values())
          and unit_exact == 16 and elapsed < 120)
    report(capsys, 5, "census = 4 * class sums", ok,
           f"boxes {boxes}, unit box {unit_exact}", elapsed)


def test_criterion_6_constant_identities(capsys):
    t0 = time.perf_counter()
    const_code, const = run_suite(capsys, "constants", "--pmax", "1000000")
    tam_code, tam = run_suite(capsys, "tamagawa", "--pmax", "1000000")
    residual = const["identity_residual_below_1e-08"]["actual"]["residual"]
    difference = tam["product_matches_leading_below_1e-08"]["actual"]["difference"]
    elapsed = time.perf_counter() - t0
    ok = (const_code == tam_code == 0
          and all(c["pass"] for c in (*const.values(), *tam.values()))
          and residual < 1e-8 and difference < 1e-8
          and tam["rational_head_27_over_8"]["actual"] == "27/8"
          and tam["dyadic_hom_count"]["actual"] == "36")
    report(capsys, 6, "constant identities", ok and elapsed < 30,
           f"residual {residual:.2e}, tamagawa diff {difference:.2e}", elapsed)


def test_criterion_7_twist_main_term(capsys):
    t0 = time.perf_counter()
    tables = build_sieve(10_000)
    worst = 0.0
    bad = 0
    for m in tables.odd_squarefree_upto(105):
        p = factor_small(m)
        for bound in (100, 1000, 10_000):
            # the octics over m's biquadratic, (1 << len(p)) * count, per divisor of m
            got = tables.count_odd_squarefree_coprime(bound, p)
            dev = abs(got - twist_main_term(m, bound)) / sqrt(bound)
            worst = max(worst, dev)
            if dev > 10:
                bad += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 7, "twist count main term", bad == 0 and elapsed < 60,
           f"worst deviation {worst:.3f} of 10", elapsed)


def test_criterion_8_asymptotic_convergence(capsys):
    t0 = time.perf_counter()
    tables = build_sieve(160)
    spec = EulerProductSpec(pmax=100_000)
    ratios = []
    for x in (10, 20, 40, 80):
        box = BoundBox(x, x, x, x)
        ratios.append(exact_census(box, tables).exact / predicted_count(box, spec))
    elapsed = time.perf_counter() - t0
    hard_ok = all(0.2 <= r <= 5.0 for r in ratios)
    deviations = [abs(r - 1) for r in ratios]
    soft_ok = deviations[-1] <= deviations[-2]
    detail = (f"ratios {['%.3f' % r for r in ratios]}, "
              f"soft last-doubling non-increasing: {soft_ok}")
    report(capsys, 8, "sweep ratios in hard band", hard_ok and elapsed < 600, detail, elapsed)


def _fundamental_discriminants(bound):
    out = []
    for d in range(-bound, bound + 1):
        if d in (0, 1):
            continue
        if d % 4 == 1 and _squarefree_factors(d) is not None:
            out.append(d)
        elif d % 4 == 0:
            m = d // 4
            if m % 4 in (2, 3) and _squarefree_factors(m) is not None:
                out.append(d)
    return out


def test_criterion_9_character_sum_main_terms(capsys):
    t0 = time.perf_counter()
    tables = build_sieve(100_000)
    xs = (1000, 10_000, 100_000)
    bad = []
    cache = {}
    for r in range(1, 51):
        rad = 1
        for p in factor_small(r):
            rad *= p
        for x in xs:
            if (rad, x) not in cache:
                cache[(rad, x)] = character_sum_f(x, CharacterSpec.principal(rad), tables)
            rep = cache[(rad, x)]
            if abs(float(rep.value) - rep.main_term) > 100 * sqrt(x) * log(x):
                bad.append(("principal", r, x))
    for disc in _fundamental_discriminants(50):
        q = abs(disc)
        for x in xs:
            rep = character_sum_f(x, CharacterSpec.quadratic(disc), tables)
            if abs(float(rep.value)) > 100 * sqrt(q * x) * log(q) * log(x):
                bad.append(("kronecker", disc, x))
    elapsed = time.perf_counter() - t0
    report(capsys, 9, "character sum main terms", not bad and elapsed < 120,
           f"{len(bad)} violations", elapsed)


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    paths = [tmp_path / f"sweep{i}.csv" for i in (1, 2)]
    for path in paths:
        code = main(["sweep", "--min", "5", "--max", "40", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    report(capsys, 10, "determinism", identical,
           f"sweep bytes identical: {identical}", elapsed)
