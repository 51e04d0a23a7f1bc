import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, log, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d4census import census, charsum, localsolve
from d4census.arith import (
    CapacityError,
    SieveTables,
    SignedSquarefreeTriple,
    _squarefree_factors,
    _valid_triples,
    build_sieve,
    decompose_triple,
    factor_small,
    kronecker,
)
from d4census.census import (
    CHOICES, BoundBox, _is_degenerate, exact_census, exact_class_sums, required_sieve_limit)
from d4census.charsum import (
    CharacterSpec,
    L_divisor_sum_rows,
    L_product_rows,
    _kronecker_row,
    character_sum_f,
    class_sums,
    _fraction_sum,
    _jacobi,
    _large_primes,
)
from d4census.localsolve import CLASSES, UNIT_RESIDUES, admissible_classes, in_E_set, u_weight


# --- reference forms ------------------------------------------------------------
# Reference forms for the batch forms of L and class_sums: u on the full k and
# one (delta, nu) choice per divisor sum, and one walk per class key; and for
# the exact character sums, a pairwise sum of their terms.


def _splits(n):
    """All (k, l) with k * l = n for squarefree n."""
    return [(k, n // k) for k in range(1, n + 1) if n % k == 0]


def literal_divisor_sum(mp, delta, nu):
    m1, m2, m3 = mp
    total = 0
    for k1, l1 in _splits(m1):
        for k2, l2 in _splits(m2):
            for k3, l3 in _splits(m3):
                total += (u_weight(k1, k2, k3, delta, nu) * kronecker(l1, k2 * k3)
                          * kronecker(l2, k1 * k3) * kronecker(l3, k1 * k2))
    return total


def _odd_squarefree(bound, residue):
    return [m for m in range(1, int(bound) + 1, 2)
            if m % 8 == residue and _squarefree_factors(m) is not None]


def per_key_walk(key, box):
    """The census sum of one class by its own walk, with L from the literal
    divisor sum and the twists counted one by one."""
    d2, d3 = key.delta
    mu, alpha, beta = key.nu
    twists = [t for t in range(1, int(box.x4) + 1, 2) if _squarefree_factors(t) is not None]
    total = 0
    for m1p in _odd_squarefree(box.x3, key.eps[0]):
        for m2p in _odd_squarefree(box.x1, key.eps[1]):
            for m3p in _odd_squarefree(box.x2, key.eps[2]):
                mp = (m1p, m2p, m3p)
                if gcd(m1p, m2p) != 1 or gcd(m1p * m2p, m3p) != 1:
                    continue
                if _is_degenerate((1 << mu) * m1p, d2 * (1 << alpha) * m2p,
                                  d3 * (1 << beta) * m3p):
                    continue
                lv = literal_divisor_sum(mp, key.delta, key.nu)
                if lv:
                    total += lv * sum(1 for t in twists if gcd(t, m1p * m2p * m3p) == 1)
    return total


def _reduced_sum(nums: list[int], dens: list[int]) -> Fraction:
    """sum_i nums[i] / dens[i] by balanced pairwise summation, for positive
    denominators; the final Fraction reduces the result.  The reference form
    of charsum._fraction_sum, with which it shares no code.

    Each pair is added the way Fraction adds (Henrici: divide out
    g = gcd(b, d) first, then gcd(numerator, g), which leaves a reduced pair
    when both terms are reduced), on plain integer pairs, so no Fraction is
    built per term.
    """
    if not nums:
        return Fraction(0)
    while len(nums) > 1:
        nxt_nums, nxt_dens = [], []
        for i in range(0, len(nums) - 1, 2):
            a, b, c, d = nums[i], dens[i], nums[i + 1], dens[i + 1]
            g = gcd(b, d)
            if g == 1:
                nxt_nums.append(a * d + c * b)
                nxt_dens.append(b * d)
                continue
            s = b // g
            t = a * (d // g) + c * s
            g2 = gcd(t, g)
            nxt_nums.append(t // g2)
            nxt_dens.append(s * (d // g2))
        if len(nums) % 2:
            nxt_nums.append(nums[-1])
            nxt_dens.append(dens[-1])
        nums, dens = nxt_nums, nxt_dens
    return Fraction(nums[0], dens[0])


# m_i' for each residue mod 8 at position i: pairwise coprime, so the 64
# triples below put every class of (k1, k2, k3) mod 8 in some divisor sum
_BY_RESIDUE = {1: (1, 1, 1), 3: (3, 11, 19), 5: (5, 13, 29), 7: (7, 23, 31)}


def test_rows_match_literal_divisor_sum(tables_census):
    odd_sf = [m for m in range(1, 316, 2) if _squarefree_factors(m) is not None]
    small = [(m1, m2, m3) for m1 in odd_sf for m2 in odd_sf for m3 in odd_sf
             if m1 * m2 * m3 <= 315 and gcd(m1, m2) == 1 and gcd(m1 * m2, m3) == 1]
    assert len(small) == 895
    by_residue = [tuple(_BY_RESIDUE[r][i] for i, r in enumerate(rs))
                  for rs in itertools.product(UNIT_RESIDUES, repeat=3)]
    rows = small + by_residue
    expected = [[literal_divisor_sum(mp, delta, nu) for delta, nu in CHOICES] for mp in rows]
    m = np.array(rows, dtype=np.int64)
    assert L_product_rows(m, tables_census).tolist() == expected
    assert L_divisor_sum_rows(m, tables_census).tolist() == expected


@pytest.mark.parametrize("block", [1, 7])
def test_rows_do_not_depend_on_the_block_size(tables_3000, monkeypatch, block):
    odd_sf = tables_3000.odd_squarefree_upto(3000)
    rows = [(m1, m2, m3) for m1, m2, m3 in itertools.product(odd_sf[:12], odd_sf[:12], odd_sf)
            if gcd(m1, m2) == 1 and gcd(m1 * m2, m3) == 1][::37]
    m = np.array(rows, dtype=np.int64)
    whole = L_product_rows(m, tables_3000), L_divisor_sum_rows(m, tables_3000)
    assert (whole[0] == whole[1]).all()
    monkeypatch.setattr(charsum, "_L_BLOCK_ROWS", block)
    assert (L_product_rows(m, tables_3000) == whole[0]).all()
    assert (L_divisor_sum_rows(m, tables_3000) == whole[1]).all()


def test_rows_of_no_triples(tables_census):
    empty = np.zeros((0, 3), dtype=np.int64)
    for form in (L_product_rows, L_divisor_sum_rows):
        out = form(empty, tables_census)
        assert out.shape == (0, len(CHOICES)) and out.dtype == np.int64


@given(st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 10**6)),
                min_size=1, max_size=50))
def test_jacobi_is_the_symbol(pairs):
    # odd n >= 1 with n = 1 included, and a multiple of n among the a's
    a = np.array([x for x, _ in pairs] + [3 * (2 * y + 1) for _, y in pairs], dtype=np.int64)
    n = np.array([2 * y + 1 for _, y in pairs] * 2, dtype=np.int64)
    assert _jacobi(a, n).tolist() == [kronecker(x, y) for x, y in zip(a.tolist(), n.tolist())]


def test_jacobi_edge_cases():
    a = np.array([0, 0, 5, 15, 1, 2, 2, 8, 1 << 40], dtype=np.int64)
    n = np.array([1, 3, 1, 15, 7, 7, 3, 5, 9], dtype=np.int64)
    assert _jacobi(a, n).tolist() == [kronecker(x, y) for x, y in zip(a.tolist(), n.tolist())]
    assert _jacobi(a, n).tolist() == [1, 0, 1, 0, 1, 1, -1, -1, 1]


@pytest.mark.parametrize("raw", [(10, 10, 10, 10), (7, 3, 5, 9), (20, 12, 16, 9)])
def test_class_sums_match_per_key_walk(tables_census, raw):
    box = BoundBox(*raw)
    assert len(CLASSES) == 768
    sums = class_sums(box, tables_census)
    assert sums == [per_key_walk(key, box) for key in CLASSES]
    assert any(sums)


def test_class_sums_need_sieve_over_odd_part_bounds():
    # with a small X4 the twist counter never reaches the table's end, so the
    # walk itself must refuse a table below X1 rather than stop at its limit
    box = BoundBox(20, 20, 20, 5)
    with pytest.raises(CapacityError):
        class_sums(box, build_sieve(19))
    assert class_sums(box, build_sieve(20)) == class_sums(box, build_sieve(40))


def test_admissible_keys_are_built_once(monkeypatch):
    keys = admissible_classes()
    assert isinstance(keys, tuple) and len(keys) == 432
    assert keys == tuple((i, key) for i, key in enumerate(CLASSES)
                         if in_E_set(key.eps, key.nu, key.delta))

    def no_in_E_set(*args):
        raise AssertionError("the admissible classes were built again")

    monkeypatch.setattr(localsolve, "in_E_set", no_in_E_set)
    assert admissible_classes() is keys


_TRIVIAL = CHOICES.index(((1, 1), (0, 0, 0)))


def test_L_product_examples(tables_census):
    rows = L_product_rows(np.array([(1, 1, 1), (1, 1, 3), (7, 1, 1)]), tables_census)
    assert rows[0].tolist() == [1] * len(CHOICES)  # empty product
    assert rows[1:, _TRIVIAL].tolist() == [2, 0]  # 1 + (1/3), 1 + (-1/7)


def test_L_divisor_sum_examples(tables_census):
    rows = L_divisor_sum_rows(np.array([(1, 1, 3), (1, 1, 1), (7, 1, 1)]), tables_census)
    assert rows[:, _TRIVIAL].tolist() == [2, 1, 0]


def test_L_positive_iff_odd_conditions_hold(tables_census):
    triples, conds = [], []
    for m1, m2, m3 in zip(*(c.tolist() for c in _valid_triples(30))):
        dec = decompose_triple(SignedSquarefreeTriple(m1, m2, m3))
        if dec.delta == (-1, -1):  # no real point, so not one of the 12 choices
            assert (dec.delta, dec.nu) not in CHOICES
            continue
        holds = all(kronecker(-m2 * m3, p) == 1 for p in factor_small(dec.m1p))
        holds = holds and all(kronecker(m1 * m3, p) == 1 for p in factor_small(dec.m2p))
        holds = holds and all(kronecker(m1 * m2, p) == 1 for p in factor_small(dec.m3p))
        triples.append(dec)
        conds.append(holds)
    rows = L_product_rows(np.array([(d.m1p, d.m2p, d.m3p) for d in triples]), tables_census)
    cols = [CHOICES.index((d.delta, d.nu)) for d in triples]
    assert len(triples) > 5000
    assert (rows[np.arange(len(cols)), cols] > 0).tolist() == conds


# --- character sums -----------------------------------------------------------


def test_character_spec_validation():
    with pytest.raises(ValueError):
        CharacterSpec.quadratic(-6)   # 2 mod 4
    with pytest.raises(ValueError):
        CharacterSpec(q=3, disc=5)    # q != |disc|
    # (k^2 / n) is the principal character mod rad(k), whose main term is not 0
    for square in (0, 1, 4, 36):
        with pytest.raises(ValueError):
            CharacterSpec.quadratic(square)


def test_character_vanishing_set():
    spec = CharacterSpec.quadratic(-40)  # q = 40
    for n in range(1, 60):
        assert (spec.chi(n) == 0) == (gcd(n, 40) > 1)


def test_character_completely_multiplicative():
    for spec in (CharacterSpec.quadratic(-3), CharacterSpec.quadratic(40),
                 CharacterSpec.principal(12)):
        for a in range(1, 40):
            for b in range(1, 40):
                assert spec.chi(a * b) == spec.chi(a) * spec.chi(b)


def reference_character_sum(x, spec, tables):
    """(value, terms) of character_sum_f by the per-term loop it replaced."""
    terms = []
    for n in range(1, int(x) + 1):
        if tables.mu[n] == 0:
            continue
        ch = spec.chi(n)
        if ch:
            terms.append(Fraction(ch * int(tables.f_num[n]), int(tables.f_den[n])))
    return sum(terms, Fraction(0)), len(terms)


def _spec_id(spec):
    return f"{'kronecker' if spec.disc else 'principal'}-q{spec.q}-D{spec.disc}"


# every discriminant 0 or 1 mod 4 with |D| <= 60, fundamental or not; the
# characters take the non-square ones, with q = |D|, and principal moduli
# squarefree or not
DISCRIMINANTS = [d for d in range(-60, 61) if d != 0 and d % 4 in (0, 1)]
CHARACTERS = [CharacterSpec.principal(q) for q in (1, 6, 12, 15, 30)] + [
    CharacterSpec.quadratic(d) for d in DISCRIMINANTS if d < 0 or isqrt(d) ** 2 != d
]


@pytest.mark.parametrize("spec", CHARACTERS, ids=_spec_id)
def test_character_sum_matches_reference_loop(spec, tables_3000):
    for x in (3000, 2999.5, 1000, 1, 0.5):
        rep = character_sum_f(x, spec, tables_3000)
        assert (rep.value, rep.terms) == reference_character_sum(x, spec, tables_3000)


@pytest.mark.parametrize("disc", DISCRIMINANTS)
def test_kronecker_row_is_the_symbol(disc):
    top = 3 * abs(disc)
    assert _kronecker_row(disc, top).tolist() == [kronecker(disc, n) for n in range(1, top + 1)]


def test_character_sum_small_principal(tables_census):
    rep = character_sum_f(10, CharacterSpec.principal(1), tables_census)
    expected = (
        Fraction(1) + Fraction(2, 3) + Fraction(3, 4) + Fraction(5, 6)
        + Fraction(1, 2) + Fraction(7, 8) + Fraction(5, 9)
    )
    assert rep.value == expected
    assert rep.terms == 7  # n in {1, 2, 3, 5, 6, 7, 10}


def test_character_sum_quadratic_example(tables_census):
    # chi = (./3) as a symbol with discriminant -3: 1 - 2/3 - 5/6
    rep = character_sum_f(5, CharacterSpec.quadratic(-3), tables_census)
    assert rep.value == Fraction(-1, 2)
    assert rep.main_term == 0.0


def test_character_sum_empty_range(tables_census):
    assert character_sum_f(0.5, CharacterSpec.principal(1), tables_census).value == 0


def test_character_sum_validation(tables_census):
    with pytest.raises(CapacityError, match="sieve limit"):
        character_sum_f(10**7, CharacterSpec.principal(1), tables_census)


def test_character_sum_main_term_tracks(tables_100k):
    rep = character_sum_f(50_000, CharacterSpec.principal(6), tables_100k)
    assert abs(float(rep.value) - rep.main_term) < 100 * sqrt(50_000) * log(50_000)
    assert rep.deviation < 100


def test_character_sum_nonprincipal_cancellation(tables_100k):
    rep = character_sum_f(50_000, CharacterSpec.quadratic(-43), tables_100k)
    assert abs(float(rep.value)) < 100 * sqrt(43 * 50_000) * log(43) * log(50_000)


def test_character_sum_deviation_bounded_at_1e6():
    from d4census.arith import build_sieve

    tables = build_sieve(1_000_000)
    for spec in (
        CharacterSpec.principal(1),
        CharacterSpec.principal(15),
        CharacterSpec.quadratic(-43),
        CharacterSpec.quadratic(40),
    ):
        rep = character_sum_f(1_000_000, spec, tables)
        assert rep.deviation < 100


@cache
def _small_tables(limit):
    return build_sieve(limit)


# primes above isqrt(4000): each such denominator is its own large prime
_BIG_PRIMES = [p for p in range(64, 4001) if factor_small(p) == (p,)]
_TERMS = st.lists(st.tuples(st.integers(-10**6, 10**6),
                            st.one_of(st.integers(1, 4000), st.sampled_from(_BIG_PRIMES))),
                  max_size=40)


@settings(max_examples=300, deadline=None)
@given(limit=st.sampled_from((1, 2, 3, 1000)), terms=_TERMS, cancelled=_TERMS)
@example(limit=1, terms=[], cancelled=[])
@example(limit=2, terms=[(-3, 3989)], cancelled=[])
@example(limit=3, terms=[], cancelled=[(5, 12), (7, 3989)])
@example(limit=1000, terms=[(1, 999), (-2, 1001), (3, 3989), (4, 2 * 1999)], cancelled=[])
def test_fraction_sum_is_the_exact_sum(limit, terms, cancelled):
    # every cancelled term also comes negated, so some denominators sum to 0;
    # denominators fall below and above the table's limit
    pairs = terms + cancelled + [(-a, d) for a, d in cancelled]
    num = np.array([a for a, _ in pairs], dtype=np.int64)
    den = np.array([d for _, d in pairs], dtype=np.int64)
    expected = sum((Fraction(a, d) for a, d in pairs), Fraction(0))
    assert _fraction_sum(num, den, _small_tables(limit)) == expected


@settings(deadline=None)
@given(limit=st.sampled_from((1, 2, 3, 1000)),
       d=st.sets(st.one_of(st.integers(1, 4000), st.sampled_from(_BIG_PRIMES)), min_size=1))
def test_large_primes_are_the_factors_above_the_root(limit, d):
    d = sorted(d)
    root = isqrt(d[-1])
    expected = [max((p for p in factor_small(v) if p > root), default=1) for v in d]
    assert _large_primes(np.array(d, dtype=np.int64), _small_tables(limit)).tolist() == expected


@pytest.mark.parametrize("spec", [CharacterSpec.principal(1), CharacterSpec.principal(15),
                                  CharacterSpec.quadratic(-43), CharacterSpec.quadratic(40)],
                         ids=_spec_id)
def test_character_sum_equals_the_pairwise_sum_of_its_terms(spec, tables_100k):
    # one term per n, added by _reduced_sum, which shares no code with _fraction_sum
    nums, dens = [], []
    rows = zip(tables_100k.mu.tolist(), tables_100k.f_num.tolist(), tables_100k.f_den.tolist())
    for n, (mu, f_num, f_den) in enumerate(rows):
        if n and mu and spec.chi(n):
            nums.append(spec.chi(n) * f_num)
            dens.append(f_den)
    rep = character_sum_f(100_000, spec, tables_100k)
    assert (rep.value, rep.terms) == (_reduced_sum(nums, dens), len(nums))


@pytest.fixture(scope="module")
def tables_200k():
    return build_sieve(200_000)


_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("disc", [1, 41])
def test_benchmark_pinned_character_sums(disc, tables_200k):
    # the terms and fraction sha256 the benchmark's expected.json records,
    # formed as its charsum op forms them
    expected = json.loads(_EXPECTED.read_text())[f"character_sum_f x=200000 disc={disc}"]
    spec = CharacterSpec.principal(1) if disc == 1 else CharacterSpec.quadratic(disc)
    rep = character_sum_f(200_000, spec, tables_200k)
    value = f"{rep.value.numerator:x}/{rep.value.denominator:x}"
    assert rep.terms == expected["terms"]
    assert hashlib.sha256(value.encode()).hexdigest() == expected["fraction_sha256"]


def test_character_sum_peak_memory(tables_200k):
    spec = CharacterSpec.principal(1)
    character_sum_f(200_000, spec, tables_200k)  # the main term's Euler product is cached
    tracemalloc.start()
    try:
        character_sum_f(200_000, spec, tables_200k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6  # 5.8 MB measured, 5.0 MB of it in _fraction_sum


# --- class sums ----------------------------------------------------------------


def test_T_direct_unit_box(tables_census):
    box = BoundBox(1, 1, 1, 1)
    sums = class_sums(box, tables_census)
    contributions = {key: sums[i] for i, key in admissible_classes() if sums[i]}
    assert sum(contributions.values()) == 4  # four classes contribute 1 each
    assert all(v == 1 for v in contributions.values())
    assert 4 * sum(sums) == 16


def test_T_direct_vanishes_on_inadmissible_classes(tables_census):
    # reciprocity: odd-prime conditions plus the sign condition force the
    # dyadic symbol, so classes outside the mod-8 sets carry no triples
    sums = class_sums(BoundBox(10, 10, 10, 10), tables_census)
    assert {v for v, key in zip(sums, CLASSES) if not in_E_set(key.eps, key.nu, key.delta)} == {0}


def test_T_direct_empty_twist_range(tables_census):
    assert set(class_sums(BoundBox(1, 1, 1, 0.5), tables_census)) == {0}


def test_census_consistency_small_boxes(tables_census):
    for raw in [(1, 1, 1, 1), (6, 6, 6, 6), (10, 10, 10, 10), (7, 3, 5, 9)]:
        box = BoundBox(*raw)
        exact = exact_census(box, tables_census).exact
        sums = class_sums(box, tables_census)
        assert sums == exact_class_sums(box, tables_census), raw
        assert 4 * sum(sums) == exact, raw


def test_class_sums_stay_independent_of_the_kernel(monkeypatch):
    # the oracle evaluates L, non-degeneracy and the twists by its own code: with
    # the kernel's masks and the batch divisor sum refused it still meets the census
    boxes = [BoundBox(20, 12, 16, 9), BoundBox(30, 30, 30, 1e9)]
    tables = [build_sieve(required_sieve_limit(box)) for box in boxes]
    want = [(exact_census(box, t).exact, exact_class_sums(box, t))
            for box, t in zip(boxes, tables)]

    def refuse(*args, **kwargs):
        raise AssertionError("the class-sum oracle reached the census kernel")

    monkeypatch.setattr(census, "_mask_blocks", refuse)
    monkeypatch.setattr(census, "_mask_tables", refuse)
    monkeypatch.setattr(SieveTables, "count_odd_squarefree_coprime_rows", refuse)
    with pytest.raises(AssertionError):
        exact_census(boxes[0], tables[0])
    for box, t, (exact, sums) in zip(boxes, tables, want):
        got = class_sums(box, t)
        assert got == sums, box
        assert 4 * sum(got) == exact, box


def test_class_sums_peak_memory():
    box = BoundBox(150, 150, 150, 150)
    tables = build_sieve(required_sieve_limit(box))
    tracemalloc.start()
    try:
        class_sums(box, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.6 MB measured, the twist memo and the twists by product included; one
    # walk per eps class over lists of triples peaked at 20.5 MB
    assert peak < 8e6


def test_class_main_terms_recover_leading_constant():
    from d4census.asymptotic import EulerProductSpec, leading_constant
    from d4census.charsum import T_main_term

    spec = EulerProductSpec(pmax=100_000)
    box = BoundBox(1, 1, 1, 1)
    assert len(admissible_classes()) == 432
    total = 4 * 432 * T_main_term(box, spec)
    assert total == pytest.approx(leading_constant(spec).value, rel=1e-4)


def test_class_sums_csv_shape(tables_census):
    from d4census.asymptotic import EulerProductSpec
    from d4census.cli import CLASS_CSV_HEADER, class_csv_rows

    rows = class_csv_rows(BoundBox(1, 1, 1, 1), tables_census, EulerProductSpec())
    assert len(rows) == 432  # one row per admissible class
    assert all(len(row.split(",")) == len(CLASS_CSV_HEADER.split(",")) for row in rows)
    values = [int(row.split(",")[12]) for row in rows]
    assert sum(values) * 4 == 16
