"""The benchmark's workloads: fixed op lists, with a few inputs picked by seed.

An op is a dict:
  id     key into expected.json (the seed choice is part of it)
  kind   "cli" runs d4census.cli.main(argv); "charsum" runs character_sum_f
  argv   for "cli"; the placeholder {cache} names a sieve cache file in the
         repetition's own temporary directory
  x, disc  for "charsum": the sum's length, and 1 for the principal
         character or else a fundamental discriminant
Every input any seed can pick has its outputs recorded in expected.json.
"""

from __future__ import annotations

import itertools
import random

CENSUS_PERMUTATIONS = tuple(itertools.permutations((50, 100, 200)))
SIEVE_TWIST_BOUNDS = (950_000, 960_000, 970_000)
CHARSUM_DISCRIMINANTS = (-43, -67, -163, 41, 53)
CHARSUM_X = 200_000

WORKLOADS = ("census", "big-sieve", "checks")

# Ops whose order within a repetition matters; other workloads alternate
# their order from one repetition to the next.
ORDERED = {"big-sieve"}


def cli_op(argv: str, label: str = "") -> dict:
    return {"id": f"{label}{argv}", "kind": "cli", "argv": argv.split()}


def charsum_op(disc: int) -> dict:
    return {"id": f"character_sum_f x={CHARSUM_X} disc={disc}", "kind": "charsum",
            "x": CHARSUM_X, "disc": disc}


def census_ops(perm) -> list[dict]:
    a, b, c = perm
    return [
        cli_op("count --x 200 200 200 200"),
        cli_op(f"count --x {a} {b} {c} 100 --format csv"),
    ]


def big_sieve_ops(y: int) -> list[dict]:
    argv = f"count --x 60 60 60 {y} --sieve-cache {{cache}}"
    return [cli_op(argv, "cold: "), cli_op(argv, "warm: ")]


def checks_ops(disc: int) -> list[dict]:
    return [
        cli_op("verify --suite divisor-identity"),
        cli_op("verify --suite lemma41"),
        cli_op("verify --suite hasse"),
        cli_op("verify --suite census-consistency"),
        cli_op("sweep --min 10 --max 80 --classes"),
        cli_op("constants --pmax 10000000"),
        charsum_op(1),
        charsum_op(disc),
    ]


def choices(workload: str) -> list[list[dict]]:
    """The op lists a seed can give the workload, one per choice."""
    if workload == "census":
        return [census_ops(p) for p in CENSUS_PERMUTATIONS]
    if workload == "big-sieve":
        return [big_sieve_ops(y) for y in SIEVE_TWIST_BOUNDS]
    if workload == "checks":
        return [checks_ops(d) for d in CHARSUM_DISCRIMINANTS]
    raise ValueError(f"unknown workload {workload!r}")


def ops_for(workload: str, seed: int) -> list[dict]:
    return random.Random(seed).choice(choices(workload))
