"""Command-line surface: census runs, sweeps, constants, verification suites,
and classification queries.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 capacity error.

Box convention (everywhere a --x X1 X2 X3 X4 flag appears): X_i bounds the
i-th invariant.  Since inv1 = m2', inv2 = m3', inv3 = m1' and inv4 is the
twist, X1 bounds m2', X2 bounds m3', X3 bounds m1', X4 bounds the twist.
For symmetric boxes the distinction is invisible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from array import array
from fractions import Fraction
from itertools import product
from math import gcd, isfinite, log
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .arith import (
    CapacityError,
    SignedSquarefreeTriple,
    build_sieve,
    decompose_triple,
    load_sieve_cache,
    save_sieve_cache,
    _valid_triples,
)
from .asymptotic import (
    CONSTANTS,
    EulerProductSpec,
    c_base,
    c_tilde,
    constant_identity,
    leading_constant,
    lemma432_sums,
    per_prime_identity_fractions,
    predicted_count,
    primes_up_to,
    tamagawa_constant,
)
from .census import (
    INERTIA_CLASS_OF_INVARIANT,
    BoundBox,
    InertiaClass,
    census_rows,
    exact_census,
    exact_class_sums,
    inertia_class,
    invariants_of,
    required_sieve_limit,
    splitting_rows,
)
from .charsum import (
    L_divisor_sum_rows,
    L_product_rows,
    T_main_term,
    _blocks,
    class_sums,
)
from .localsolve import (
    ALL_DELTAS,
    ALL_NUS,
    CLASSES,
    REAL_PLACE,
    TWO_PLACE,
    UNIT_RESIDUES,
    Place,
    admissible_classes,
    e_set_literal_000,
    e_set_literal_010,
    find_conic_point,
    hilbert_symbol,
    hilbert_symbol_rows,
    in_E_set,
    local_conditions_rows,
    padic_oracle_rows,
    satisfies_local_conditions,
    u_weight,
)

SWEEP_CSV_HEADER = "x1,x2,x3,x4,exact,predicted,ratio"
CLASS_CSV_HEADER = "e1,e2,e3,d2,d3,mu,alpha,beta,x1,x2,x3,x4,value,main,ratio"
BREAKDOWN_CSV_HEADER = "m1,m2,m3,twists,cumulative"
# the breakdown is formatted and written this many rows at a time
_CSV_BLOCK = 1 << 14
# its cumulative is carried as hi * _LIMB + lo, 0 <= lo < _LIMB, in int64s;
# a row moves hi by at most 2^63 / _LIMB + 2, so hi fits int64 up to this many rows
_LIMB = 10**9
_CSV_MAX_ROWS = (2**63 - 1) // ((2**63 - 1) // _LIMB + 2)
# the three ASCII digits of each of 0..999: column v holds v, one row per place
_DIGITS = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
# a sweep of more boxes is refused before it starts: it would not end in practice
SWEEP_MAX_BOXES = 10_000
# classify factors each input by trial division: at most 5 * 10^5 odd divisors
CLASSIFY_BOUND = 10**12
# the conic search tries (height + 1)^2 pairs: 1.5 s at 2000 on a 2-vCPU VM
CLASSIFY_HEIGHT_BOUND = 2000


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "null"
    return format(v, ".17g")


def _ratio(value, main: float) -> float:
    """value / main, or nan where the main term is 0."""
    return value / main if main else float("nan")


def class_csv_rows(box: BoundBox, tables, euler: EulerProductSpec) -> list[str]:
    """The CLASS_CSV_HEADER rows of one box, one per admissible class: the
    key, the box, the exact class sum, its main term and their ratio."""
    x1, x2, x3, x4 = box.as_tuple()
    sums, main = exact_class_sums(box, tables), T_main_term(box, euler)
    rows = []
    for index, ((e1, e2, e3), (d2, d3), (mu, alpha, beta)) in admissible_classes():
        value = sums[index]
        # .17g, not _fmt_float: a zero main term gives a ratio of nan, not null
        rows.append(f"{e1},{e2},{e3},{d2},{d3},{mu},{alpha},{beta},"
                    f"{x1:g},{x2:g},{x3:g},{x4:g},{value},{main:.17g},"
                    f"{_ratio(value, main):.17g}")
    return rows


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Re-serializing a parsed report reproduces it byte for byte.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _digits(magnitudes: np.ndarray, places: int | None = None) -> np.ndarray:
    """The decimal digits of nonnegative integers as ASCII bytes, one row per
    place, most significant first: zero-padded to places (a multiple of 3), by
    default the fewest that hold the largest."""
    if places is None:
        places = -(-len(str(int(magnitudes.max()))) // 3) * 3
    out = np.empty((places // 3, 3, len(magnitudes)), dtype=np.uint8)
    for group in reversed(range(places // 3)):
        magnitudes, low = np.divmod(magnitudes, 1000)
        out[group] = _DIGITS.take(low, axis=1)
    return out.reshape(places, -1)


def _csv_text(fields) -> str:
    """The text of a block of CSV rows from each column's (negative, digits):
    a '-' where negative, the digits from the first nonzero one (or the last
    alone), then ',' or, after the last column, a newline.

    The block is laid out transposed, one row of bytes per character position
    of a row, and one boolean compress reads off the kept bytes row by row.
    """
    grid, keep = [], []
    for i, (negative, digits) in enumerate(fields):
        significant = digits != ord("0")
        for place in range(1, len(significant)):
            significant[place] |= significant[place - 1]
        significant[-1] = True
        end = "\n" if i == len(fields) - 1 else ","
        grid += [np.full((1, len(negative)), ord("-"), np.uint8), digits,
                 np.full((1, len(negative)), ord(end), np.uint8)]
        keep += [negative[None], significant, np.ones((1, len(negative)), bool)]
    grid, keep = np.concatenate(grid), np.concatenate(keep)
    return grid.T[keep.T].tobytes().decode("ascii")


def breakdown_csv(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray,
                  twists: np.ndarray) -> Iterator[str]:
    """The CSV breakdown of int64 columns as text pieces: BREAKDOWN_CSV_HEADER,
    then the rows m1,m2,m3,twists,cumulative in blocks of _CSV_BLOCK rows, the
    bytes "{},{},{},{},{}".format gives with the running sum of the twists.

    The cumulative may pass 2^63, so it is carried exactly from block to
    block as two int64 limbs in base 10^9.  They hold the sum of up to
    _CSV_MAX_ROWS = 999,999,999 rows of any int64 twists; more rows raise
    CapacityError here, before any piece is made.
    """
    if len(twists) > _CSV_MAX_ROWS:
        raise CapacityError(f"{len(twists)} breakdown rows: the cumulative column "
                            f"holds at most {_CSV_MAX_ROWS}")

    def pieces():
        yield BREAKDOWN_CSV_HEADER + "\n"
        carry_hi = carry_lo = 0
        for start in range(0, len(twists), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            hi, lo = np.divmod(twists[rows], _LIMB)
            lo = np.cumsum(lo)
            lo += carry_lo
            hi = np.cumsum(hi)
            hi += carry_hi
            hi += lo // _LIMB
            lo %= _LIMB
            carry_hi, carry_lo = int(hi[-1]), int(lo[-1])
            # the magnitude of a negative hi * 10^9 + lo borrows from hi when lo > 0
            negative = hi < 0
            borrow = negative & (lo > 0)
            hi, lo = np.where(negative, -hi - borrow, hi), np.where(borrow, _LIMB - lo, lo)
            cumulative = (np.concatenate((_digits(hi), _digits(lo, 9))) if hi.any()
                          else _digits(lo))
            # abs(-2^63) wraps to -2^63, whose uint64 view is 2^63
            yield _csv_text([*((column[rows] < 0, _digits(np.abs(column[rows]).view(np.uint64)))
                               for column in (m1, m2, m3, twists)),
                             (negative, cumulative)])
    return pieces()


def _emit(pieces: Iterable[str], out_path) -> None:
    """Write the pieces of text in order, the last ending in a newline, to the
    --out file or to stdout.  The file is opened here, once the result is
    computed, so a run that fails before leaves none."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_result(args, t0: float, result, text: str, checks=None) -> None:
    """Write the canonical JSON envelope under --format json, else the text,
    which ends in a newline."""
    if args.format == "json":
        env = {
            "tool": "d4census",
            "version": __version__,
            "command": args.command,
            "config": {k: list(v) if isinstance(v, (list, tuple)) else v
                       for k, v in vars(args).items()
                       if k not in ("func", "given") and v is not None},
            "result": result,
            "elapsed_seconds": time.perf_counter() - t0,
        }
        if checks is not None:
            env["checks"] = checks
        text = canonical_json(env) + "\n"
    _emit((text,), args.out)


def _load_tables(limit: int, cache_path):
    """Build the sieve, or reuse a cache file when it covers the limit."""
    if cache_path and os.path.exists(cache_path):
        try:
            tables = load_sieve_cache(cache_path)
        except ValueError as err:
            raise CapacityError(f"sieve cache {cache_path}: {err}") from err
        if tables.limit >= limit:
            return tables
    tables = build_sieve(limit)
    if cache_path:
        try:
            save_sieve_cache(tables, cache_path)
        except OSError as err:
            raise OSError(f"sieve cache {cache_path}: {err.strerror}") from err
    return tables


def cmd_count(args) -> int:
    t0 = time.perf_counter()
    box = BoundBox(*args.x)
    csv = args.format == "csv"
    # an over-budget --pmax exits 3 before the census
    predicted = None if csv else predicted_count(box, EulerProductSpec(pmax=args.pmax))
    tables = _load_tables(required_sieve_limit(box), args.sieve_cache)
    if csv:
        # the rows are streamed to stdout or --out, opened only once they are counted
        _emit(breakdown_csv(*census_rows(box, tables)), args.out)
        return 0
    report = exact_census(box, tables)
    result = {
        "box": list(box.as_tuple()),
        "exact": report.exact,
        "predicted": predicted,
        "ratio": _ratio(report.exact, predicted),
        "triples_visited": report.triples_visited,
    }
    _emit_result(
        args, t0, result,
        f"box       = {box.as_tuple()}\n"
        f"exact     = {report.exact}\n"
        f"predicted = {predicted:.6f}\n"
        f"ratio     = {result['ratio']:.6f}\n"
        f"triples   = {report.triples_visited}\n",
    )
    return 0


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    box = BoundBox(*args.x)
    spec = EulerProductSpec(pmax=args.pmax)
    lead = leading_constant(spec)
    result = {
        "box": list(box.as_tuple()),
        "leading_constant": lead.value,
        "tail_bound": lead.tail_bound,
        "predicted": predicted_count(box, spec),
    }
    _emit_result(
        args, t0, result,
        f"leading constant = {lead.value:.12f} (log-tail <= {lead.tail_bound:.2e})\n"
        f"predicted        = {result['predicted']:.6f}\n",
    )
    return 0


def cmd_constants(args) -> int:
    t0 = time.perf_counter()
    spec = EulerProductSpec(pmax=args.pmax)
    c1 = c_base(spec)
    ct = c_tilde(spec)
    lead = leading_constant(spec)
    residual = constant_identity(spec)
    tam = tamagawa_constant(spec)
    result = {
        "pmax": args.pmax,
        "c1": c1.value,
        "c1_tail": c1.tail_bound,
        "c_tilde": ct.value,
        "c_tilde_tail": ct.tail_bound,
        "leading_constant": lead.value,
        "identity_residual": residual,
        "tamagawa": {
            "alpha_star": tam.parts.alpha_star,
            "tau_infty": tam.parts.tau_infty,
            "tau_two": tam.parts.tau_two,
            "tau2_hom_count": tam.tau2_etale,
            "group_order": tam.parts.group_order,
            "rational_prefactor": tam.parts.rational_prefactor(),
            "product": tam.product,
        },
    }
    lines = [
        f"c(1)            = {c1.value:.12f}  (log-tail <= {c1.tail_bound:.2e})",
        f"c_tilde         = {ct.value:.12e}  (log-tail <= {ct.tail_bound:.2e})",
        f"leading const   = {lead.value:.12f}",
        f"identity resid  = {residual:.3e}",
        f"tamagawa parts  = |G|=8, alpha*=1/4, tau_inf=3/4, tau_2=9/4 "
        f"(hom count {tam.tau2_etale})",
        f"tamagawa value  = {tam.product:.12f}",
    ]
    _emit_result(args, t0, result, "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    # the grid has floor(log(max/min) / log(factor)) + 1 boxes when max >= min
    if args.max >= args.min and log(args.max / args.min) / log(args.factor) >= SWEEP_MAX_BOXES:
        raise ValueError(f"sweep from {args.min:g} to {args.max:g} by {args.factor} "
                         f"has more than {SWEEP_MAX_BOXES} boxes")
    lines = [CLASS_CSV_HEADER if args.classes else SWEEP_CSV_HEADER]
    euler = EulerProductSpec(pmax=args.pmax)
    x = args.min
    while x <= args.max:
        box = BoundBox(x, x, x, x if args.fix_x4 is None else args.fix_x4)
        x *= args.factor
        try:
            # an over-budget --pmax skips the box before the sieve is built
            if args.classes:
                c_tilde(euler)  # the class rows' main terms read it
            else:
                predicted = predicted_count(box, euler)
            tables = build_sieve(required_sieve_limit(box))
            if args.classes:
                rows = class_csv_rows(box, tables, euler)
            else:
                exact = exact_census(box, tables).exact
                rows = [",".join(_fmt_float(float(v)) for v in box.as_tuple())
                        + f",{exact},{_fmt_float(predicted)},"
                          f"{_fmt_float(_ratio(exact, predicted))}"]
        except CapacityError as err:
            print(f"sweep: skipping {box.as_tuple()}: {err}", file=sys.stderr)
            continue
        lines.extend(rows)
    _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def cmd_classify(args) -> int:
    t0 = time.perf_counter()
    triple = SignedSquarefreeTriple(*args.triple)
    dec = decompose_triple(triple)  # validates the triple, factoring each entry once
    vec = invariants_of(dec, args.twist)  # validates the twist
    a, b = triple.m1 * triple.m2, triple.m1 * triple.m3
    soluble = satisfies_local_conditions(dec)
    # a prime dividing the i-th invariant has its inertia class
    ramified = {str(p): INERTIA_CLASS_OF_INVARIANT[i].value for p, i in sorted(
        (p, i) for i, primes in enumerate(vec.primes, 1) for p in primes)}
    witness = find_conic_point(a, b, args.height) if soluble else None
    result = {
        "triple": list(triple.as_tuple()),
        "twist": args.twist,
        "invariants": list(vec.as_tuple()),
        "conic": {"a": a, "b": b, "locally_soluble": soluble,
                  "witness": list(witness) if witness else None},
        "ramified_primes": ramified,
    }
    if args.prime is not None:
        cls = inertia_class(args.prime, vec)
        result["queried_prime"] = {
            "p": args.prime,
            "inertia_class": cls.value,
            "splitting_rows": [list(r) for r in splitting_rows(cls)]
            if cls is not InertiaClass.UNRAMIFIED else [],
        }
    lines = [
        f"triple      = {triple.as_tuple()}, twist = {args.twist}",
        f"invariants  = {vec.as_tuple()}",
        f"conic       = x^2 - ({a})y^2 - ({b})z^2, soluble: {soluble}, "
        f"witness: {witness}",
        f"ramified    = {ramified}",
    ]
    if args.prime is not None:
        lines.append(f"prime {args.prime} inertia class: {result['queried_prime']['inertia_class']}")
    _emit_result(args, t0, result, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, expected, actual, ok=None) -> dict:
    passed = (expected == actual) if ok is None else bool(ok)
    return {"name": name, "expected": expected, "actual": actual, "pass": passed}


def _suite_lemma432(args) -> list[dict]:
    sums = lemma432_sums()
    checks = [
        _check("class_sum_weight_at_one", CONSTANTS["class_sum"], sums.weight_at_one),
        _check("class_sum_weighted", CONSTANTS["class_sum"], sums.weighted),
    ]
    for delta in ALL_DELTAS:
        tally = tuple(sums.tally[(delta, nu)] for nu in ALL_NUS)
        checks.append(_check(f"class_tally_delta_{delta}", list(CONSTANTS["class_tally"]),
                             list(tally)))
    return checks


def _places_rows(a: np.ndarray, b: np.ndarray, bound: int):
    """The places of the triples with |m1|, |m2|, |m3| <= bound in ascending
    order (real, 2, then each odd p <= bound), each with the rows of the
    columns a = m1*m2, b = m1*m3 where its symbol may differ from +1: every
    row at the real place and at 2, the rows with p | m1*m2*m3 at an odd p."""
    every = np.arange(len(a))
    yield REAL_PLACE, every
    yield TWO_PLACE, every
    for p in primes_up_to(bound)[1:].tolist():
        yield Place(p), np.flatnonzero((a % p == 0) | (b % p == 0))


def _suite_hasse(args) -> list[dict]:
    bound = 30 if args.bound is None else args.bound
    m1, m2, m3 = _valid_triples(bound)
    a, b = m1 * m2, m1 * m3
    product = np.ones(len(a), dtype=np.int8)
    for v, rows in _places_rows(a, b, bound):
        product[rows] *= hilbert_symbol_rows(a[rows], b[rows], v)
    total, bad = len(a), int(np.count_nonzero(product != 1))
    return [_check(f"hasse_product_bound_{bound}", {"cases": total, "failures": 0},
                   {"cases": total, "failures": bad})]


def _suite_lemma41(args) -> list[dict]:
    bound = 30 if args.bound is None else args.bound
    m1, m2, m3 = _valid_triples(bound)
    a, b = m1 * m2, m1 * m3
    total = len(a)
    plus = np.ones(total, dtype=bool)
    # the oracle runs one place at a time (real, then p ascending: each
    # triple's own order), over the triples no earlier place refuted
    alive = np.ones(total, dtype=bool)
    for v, rows in _places_rows(a, b, bound):
        plus[rows] &= hilbert_symbol_rows(a[rows], b[rows], v) == 1
        rows = rows[alive[rows]]
        alive[rows] = padic_oracle_rows(a[rows], b[rows], v)
    equiv_bad = int(np.count_nonzero(local_conditions_rows(m1, m2, m3, build_sieve(bound))
                                     != plus))
    oracle_bad = int(np.count_nonzero(alive != plus))
    return [
        _check(f"local_conditions_vs_symbols_bound_{bound}",
               {"cases": total, "failures": 0}, {"cases": total, "failures": equiv_bad}),
        _check(f"symbols_vs_oracle_bound_{bound}",
               {"cases": total, "failures": 0}, {"cases": total, "failures": oracle_bad}),
    ]


def _suite_esets(args) -> list[dict]:
    ident_bad = positive_bad = literal_bad = 0
    for eps, delta, nu in CLASSES:
        (a1, a2, a3), (d2, d3), (mu, al, be) = eps, delta, nu
        u = u_weight(*eps, delta, nu)
        sym = hilbert_symbol((1 << (mu + al)) * d2 * a1 * a2, (1 << (mu + be)) * d3 * a1 * a3,
                             TWO_PLACE)
        ident_bad += u != sym
        positive_bad += in_E_set(eps, nu, delta) and u != 1
    for eps in product(UNIT_RESIDUES, repeat=3):
        literal_bad += e_set_literal_000(eps) != in_E_set(eps, (0, 0, 0))
        literal_bad += e_set_literal_010(eps) != in_E_set(eps, (0, 1, 0))
    return [
        _check("u_equals_dyadic_symbol_768_cases", 0, ident_bad),
        _check("u_positive_on_admissible_classes", 0, positive_bad),
        _check("literal_residue_lists_match", 0, literal_bad),
    ]


def _suite_divisor_identity(args) -> list[dict]:
    bound = 3000 if args.bound is None else args.bound
    tables = build_sieve(bound)
    odd_sf = tables.odd_squarefree_upto(bound)
    # int64 columns: lists of Python ints would leave their objects on the heap
    flat = array("q")
    for m1 in odd_sf:
        for m2 in odd_sf:
            if m1 * m2 > bound:
                break
            if gcd(m1, m2) != 1:
                continue
            m12 = m1 * m2
            for m3 in odd_sf:
                if m12 * m3 > bound:
                    break
                if gcd(m12, m3) == 1:
                    flat.extend((m1, m2, m3))
    triples = np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    bad = total = 0
    for start, stop in _blocks(triples):  # one block's (rows, 12) results at a time
        block = triples[start:stop]
        lp, ls = L_product_rows(block, tables), L_divisor_sum_rows(block, tables)
        # m1 * m2 * m3 <= bound is squarefree: tau is 2 to its number of primes
        tau = 1 << np.count_nonzero(tables.prime_columns(block.prod(axis=1)), axis=1)[:, None]
        bad += int(np.count_nonzero((lp != ls) | ((lp != 0) & (lp != tau))))
        total += lp.size
    return [_check(f"product_equals_divisor_sum_upto_{bound}",
                   {"cases": total, "failures": 0}, {"cases": total, "failures": bad})]


def _suite_census_consistency(args) -> list[dict]:
    boxes = [(1, 1, 1, 1), (10, 10, 10, 10), (50, 50, 50, 50)]
    if args.x:
        boxes = [tuple(args.x)]
    checks = []
    for raw in boxes:
        box = BoundBox(*raw)
        exact = exact_census(box, build_sieve(required_sieve_limit(box))).exact
        # admissible classes only: the kernel's premise that the other 336 are 0 is checked too;
        # the oracle's own tables, so no twist count the census memoised reaches it
        sums = class_sums(box, build_sieve(required_sieve_limit(box)))
        via_classes = 4 * sum(sums[index] for index, _ in admissible_classes())
        checks.append(_check(f"census_vs_class_sums_{raw}", exact, via_classes))
        if raw == (1, 1, 1, 1):
            checks.append(_check("unit_box_exact", 16, exact))
    return checks


def _suite_constants(args) -> list[dict]:
    spec = EulerProductSpec(pmax=args.pmax)
    residual = constant_identity(spec)
    per_prime_bad = sum(lhs != rhs for lhs, rhs in
                        map(per_prime_identity_fractions, primes_up_to(100)[1:].tolist()))
    spec_small = EulerProductSpec(pmax=max(args.pmax // 2, 3))
    residual_small = constant_identity(spec_small)
    return [
        _check(f"identity_residual_below_{args.tol}",
               {"residual_max": args.tol}, {"residual": residual},
               ok=residual < args.tol),
        _check("per_prime_identity_exact_to_100", 0, per_prime_bad),
        _check("residual_shrinks_with_pmax", True, residual <= residual_small + args.tol),
    ]


def _suite_tamagawa(args) -> list[dict]:
    spec = EulerProductSpec(pmax=args.pmax)
    tam = tamagawa_constant(spec)
    head = tam.parts.rational_prefactor()
    return [
        _check("dyadic_hom_count", str(CONSTANTS["dyadic_hom_count"]), str(tam.tau2_etale)),
        _check("rational_head_27_over_8", str(CONSTANTS["leading_prefactor"]), str(head)),
        _check(f"product_matches_leading_below_{args.tol}",
               {"difference_max": args.tol}, {"difference": tam.difference},
               ok=tam.difference < args.tol),
    ]


# Each suite's runner, the verify options it reads and the caps on its --bound
# or --x values (at its caps each ran in 0.2-9 s per process on a 2-vCPU VM:
# census-consistency 5.9-8.9 s, hasse and lemma41 under 0.8 s); giving a suite
# any other of --tol, --bound, --x and --pmax, or a larger value, is a usage
# error.
_SUITES = {
    "lemma432": (_suite_lemma432, (), ()),
    "hasse": (_suite_hasse, ("bound",), (80,)),
    "lemma41": (_suite_lemma41, ("bound",), (40,)),
    "esets": (_suite_esets, (), ()),
    "divisor-identity": (_suite_divisor_identity, ("bound",), (20_000,)),
    "census-consistency": (_suite_census_consistency, ("x",), (150, 150, 150, 10**12)),
    "constants": (_suite_constants, ("tol", "pmax"), ()),
    "tamagawa": (_suite_tamagawa, ("tol", "pmax"), ()),
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    runner = _SUITES[args.suite][0]
    checks = runner(args)
    all_pass = all(c["pass"] for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{status:4s} {c['name']}: expected {c['expected']}, "
                     f"actual {c['actual']}")
    lines.append(f"suite {args.suite}: {'PASS' if all_pass else 'FAIL'}")
    _emit_result(args, t0, {"suite": args.suite, "all_pass": all_pass},
                 "\n".join(lines) + "\n", checks=checks)
    return 0 if all_pass else 1


class _NoteGiven(argparse.Action):
    """Store the value and add the dest to namespace.given, which tells an
    option given on the command line from one left at its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


# argparse names a type in its usage errors by __name__ ("invalid integer
# value: 'x'"), so each type below is named for the user


def _number(kind: type, above: int | None = None):
    """An argparse type: an int (kind int) or a finite float (kind float),
    and > above unless above is None."""
    def parse(text: str):
        value = kind(text)
        if kind is float and not isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        if above is not None and value <= above:
            raise argparse.ArgumentTypeError(f"{text!r} is not > {above}")
        return value
    parse.__name__ = "integer" if kind is int else "number"
    return parse


def _pmax(text: str) -> int:
    value = int(text)
    try:
        EulerProductSpec(pmax=value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    return value


_pmax.__name__ = "integer"


def _int_in(low: int, high: int, outside: str):
    """An argparse type: an int in [low, high]; errors say the text is outside."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is {outside}")
        return value
    parse.__name__ = "integer"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d4census",
        description="Exact census and asymptotic checks for dihedral octic "
                    "fields ordered by multi-invariants.",
    )
    parser.add_argument("--version", action="version", version=f"d4census {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, *flags, formats=("text", "json"), box_required=False, action="store"):
        """Give subparser p the shared options it reads, named by flag."""
        options = {
            "--x": dict(nargs=4, type=float, metavar=("X1", "X2", "X3", "X4"),
                        required=box_required,
                        help="invariant bounds; X1->m2', X2->m3', X3->m1', X4->twist"),
            "--pmax": dict(type=_pmax, default=100_000,
                           help="Euler product truncation (default 100000)"),
            "--format": dict(choices=formats, default="text"),
            "--out": dict(default=None, help="write output to this path"),
            "--sieve-cache": dict(default=None, help="sieve cache file path"),
        }
        for flag in flags:
            p.add_argument(flag, action=action, **options[flag])

    p_count = sub.add_parser("count", help="exact census of a box")
    add_shared(p_count, "--x", box_required=True)
    # CSV rows carry no prediction: main rejects --pmax with --format csv
    add_shared(p_count, "--pmax", action=_NoteGiven)
    add_shared(p_count, "--format", "--out", "--sieve-cache", formats=("text", "json", "csv"))
    p_count.set_defaults(func=cmd_count)

    p_predict = sub.add_parser("predict", help="main-term prediction for a box")
    add_shared(p_predict, "--x", "--pmax", "--format", "--out", box_required=True)
    p_predict.set_defaults(func=cmd_predict)

    p_const = sub.add_parser("constants", help="evaluate the closed-form constants")
    add_shared(p_const, "--pmax", "--format", "--out")
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    # each suite reads some of these four; main rejects the others (_SUITES)
    p_verify.add_argument("--tol", type=_number(float, 0), default=1e-8, action=_NoteGiven)
    p_verify.add_argument("--bound", type=_number(int, 0), default=None, action=_NoteGiven,
                          help="case bound for exhaustive suites")
    add_shared(p_verify, "--x", "--pmax", action=_NoteGiven)
    add_shared(p_verify, "--format", "--out")
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="invariants and inertia classes "
                                                 "of a labeled triple")
    classify_int = _int_in(-CLASSIFY_BOUND, CLASSIFY_BOUND, "above 10^12 in absolute value")
    p_classify.add_argument("--triple", nargs=3, type=classify_int, required=True,
                            metavar=("M1", "M2", "M3"))
    p_classify.add_argument("--twist", type=classify_int, default=1)
    p_classify.add_argument("--prime", type=classify_int, default=None)
    p_classify.add_argument("--height", type=_int_in(1, CLASSIFY_HEIGHT_BOUND, "not in 1..2000"),
                            default=500,
                            help="search bound for a conic witness point")
    add_shared(p_classify, "--format", "--out")
    p_classify.set_defaults(func=cmd_classify)

    p_sweep = sub.add_parser("sweep", help="census over a doubling grid of boxes, "
                                           "written as CSV")
    # the grid grows from --min by --factor until it passes --max, so these
    # must be finite, positive and growing for the sweep to end (and cmd_sweep
    # caps the number of boxes)
    p_sweep.add_argument("--min", type=_number(float, 0), default=10.0)
    p_sweep.add_argument("--max", type=_number(float), default=80.0)
    p_sweep.add_argument("--factor", type=_number(float, 1), default=2.0)
    p_sweep.add_argument("--fix-x4", type=_number(float), default=None,
                         help="hold X4 at this value instead of the symmetric bound")
    p_sweep.add_argument("--classes", action="store_true",
                         help="emit per-residue-class rows instead of the aggregate")
    add_shared(p_sweep, "--pmax", "--out")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            _, reads, caps = _SUITES[args.suite]
            unread = sorted(set(getattr(args, "given", ())) - set(reads))
            if unread:
                parser.error(f"verify --suite {args.suite} does not read "
                             + ", ".join(f"--{dest}" for dest in unread))
            if any(value > cap for value, cap in zip(args.x or [args.bound or 0], caps)):
                parser.error(f"verify --suite {args.suite} takes --{reads[0]} up to "
                             + " ".join(map(str, caps)))
        if args.command == "count" and args.format == "csv" and "pmax" in getattr(
                args, "given", ()):
            parser.error("count --format csv does not read --pmax")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        # a bad value, or an --out or --sieve-cache path that cannot be used
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
