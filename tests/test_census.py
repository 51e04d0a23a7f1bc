import random
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations, product
from math import gcd, isqrt
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from d4census import arith, census
from d4census.arith import (
    CapacityError,
    SignedSquarefreeTriple,
    build_sieve,
    decompose_triple,
    factor_small,
    kronecker,
    primes_up_to,
)
from d4census.asymptotic import CONSTANTS
from d4census.census import (
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
from d4census.charsum import (
    CharacterSpec,
    character_sum_f,
    class_sums,
)
from d4census.localsolve import (
    ALL_DELTAS,
    ALL_NUS,
    CLASSES,
    ClassKey,
    REAL_PLACE,
    TWO_PLACE,
    UNIT_RESIDUES,
    Place,
    admissible_classes,
    in_E_set,
    padic_oracle_rows,
    satisfies_local_conditions,
)


def brute_squarefree(n):
    n = abs(n)
    return n > 0 and all(n % (d * d) for d in range(2, isqrt(n) + 1))


def brute_odd_part(n):
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    return n


def is_perfect_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def brute_census(x1, x2, x3, x4):
    """Independent exhaustive census: trial-division squarefree checks, local
    solubility through the p-adic oracle, twists counted one by one."""
    top = 2 * int(max(x1, x2, x3))
    total = 0
    for m1 in range(1, top + 1):
        if not brute_squarefree(m1) or brute_odd_part(m1) > x3:
            continue
        for m2 in [s * v for v in range(1, top + 1) for s in (1, -1)]:
            if not brute_squarefree(m2) or brute_odd_part(m2) > x1:
                continue
            if gcd(m1, m2) != 1:
                continue
            for m3 in [s * v for v in range(1, top + 1) for s in (1, -1)]:
                if not brute_squarefree(m3) or brute_odd_part(m3) > x2:
                    continue
                if gcd(m1, m3) != 1 or gcd(m2, m3) != 1:
                    continue
                if (
                    is_perfect_square(m1 * m2)
                    or is_perfect_square(m1 * m3)
                    or is_perfect_square(m2 * m3)
                ):
                    continue
                a, b = m1 * m2, m1 * m3
                # every other place has the symbol +1
                places = [REAL_PLACE, TWO_PLACE] + [
                    Place(p) for p in factor_small(m1 * m2 * m3) if p != 2]
                if not all(padic_oracle_rows([a], [b], v)[0] for v in places):
                    continue
                m = brute_odd_part(m1) * brute_odd_part(m2) * brute_odd_part(m3)
                tau = sum(1 for d in range(1, m + 1) if m % d == 0)
                twists = sum(
                    1
                    for t in range(1, int(x4) + 1, 2)
                    if brute_squarefree(t) and gcd(t, m) == 1
                )
                total += tau * twists
    return 4 * total


def admissible_triples(bound1, bound2, bound3, tables):
    """The admissible triples with m1' <= bound1, m2' <= bound2 and
    m3' <= bound3, in kernel order: the first three columns of census_rows."""
    m1, m2, m3, _ = census_rows(BoundBox(bound2, bound3, bound1, 0), tables)
    return list(zip(m1.tolist(), m2.tolist(), m3.tolist()))


def test_enumerate_unit_bounds(tables_census):
    got = sorted(admissible_triples(1, 1, 1, tables_census))
    assert got == sorted([(1, -1, 2), (1, 2, -1), (2, 1, -1), (2, -1, 1)])


def test_enumerate_zero_bound_is_empty(tables_census):
    assert admissible_triples(0, 1, 1, tables_census) == []


def test_enumerate_yield_passes_local_conditions(tables_census):
    for m1, m2, m3 in admissible_triples(6, 6, 6, tables_census):
        assert satisfies_local_conditions(SignedSquarefreeTriple(m1, m2, m3)), (m1, m2, m3)
        assert not is_perfect_square(m1 * m2)
        assert not is_perfect_square(m1 * m3)
        assert not is_perfect_square(m2 * m3)


def reference_triples(bound1, bound2, bound3):
    """Admissible signed triples walked in (m1', m2', m3', delta, nu) order,
    filtered by the local conditions and the non-degeneracy rule."""
    def odd_sf(bound):
        return [n for n in range(1, int(bound) + 1, 2) if brute_squarefree(n)]

    out = []
    for m1p in odd_sf(bound1):
        for m2p in odd_sf(bound2):
            for m3p in odd_sf(bound3):
                if gcd(m1p, m2p) != 1 or gcd(m1p * m2p, m3p) != 1:
                    continue
                for (d2, d3) in ALL_DELTAS:
                    for (mu, alpha, beta) in ALL_NUS:
                        triple = ((1 << mu) * m1p, d2 * (1 << alpha) * m2p,
                                  d3 * (1 << beta) * m3p)
                        if any(is_perfect_square(a * b) for a, b in combinations(triple, 2)):
                            continue
                        if satisfies_local_conditions(SignedSquarefreeTriple(*triple)):
                            out.append(triple)
    return out


def test_enumerate_and_breakdown_order_match_reference(tables_census):
    box = BoundBox(7, 9, 11, 9)  # m2' <= 7, m3' <= 9, m1' <= 11
    expected = reference_triples(11, 7, 9)
    assert admissible_triples(11, 7, 9, tables_census) == expected
    expected_twists = []
    for m1, m2, m3 in expected:
        m = brute_odd_part(m1 * m2 * m3)
        tau = sum(1 for d in range(1, m + 1) if m % d == 0)
        expected_twists.append(
            tau * sum(1 for t in range(1, 10, 2) if brute_squarefree(t) and gcd(t, m) == 1))
    *columns, twists = census_rows(box, tables_census)
    assert list(zip(*(c.tolist() for c in columns))) == expected
    assert twists.dtype == np.int64 and twists.tolist() == expected_twists
    report = exact_census(box, tables_census)
    assert report.exact == 4 * sum(twists) and report.triples_visited == len(twists)


def test_enumerate_rejects_bounds_whose_product_overflows(tables_census):
    with pytest.raises(CapacityError, match="overflow int64"):
        admissible_triples(3e6, 3e6, 3e6, tables_census)


def test_enumerate_requires_big_enough_sieve():
    with pytest.raises(CapacityError):
        admissible_triples(20, 20, 20, build_sieve(19))
    # the largest odd-part bound suffices: nothing reads the sieve above it
    assert (admissible_triples(20, 20, 20, build_sieve(20))
            == admissible_triples(20, 20, 20, build_sieve(40)))


_SHORT = build_sieve(30)


@pytest.mark.parametrize("read, required", [
    pytest.param(lambda t: census_rows(BoundBox(40, 20, 20, 5), t), 40, id="enumerate"),
    pytest.param(lambda t: exact_census(BoundBox(5, 5, 31, 5), t), 31, id="census-odd-part"),
    # a nonempty kernel with X4 past the table's square
    pytest.param(lambda t: exact_census(BoundBox(5, 5, 5, 31 * 31), t), None, id="census-x4"),
    pytest.param(lambda t: class_sums(BoundBox(40, 5, 5, 5), t), 40, id="class_sums"),
    pytest.param(lambda t: character_sum_f(40, CharacterSpec.principal(1), t), 40,
                 id="character_sum_f"),
])
def test_every_reader_refuses_a_short_table(read, required):
    # each reader raises rather than return a value computed from the table's
    # first 30 entries; the message names the first bound past the table
    match = "twist bound" if required is None else f"sieve limit 30 < required {required}"
    with pytest.raises(CapacityError, match=match):
        read(_SHORT)
    # a box whose kernel is empty reads nothing past the table: exact 0
    assert exact_census(BoundBox(0, 5, 5, 10**6), _SHORT).exact == 0


def test_twist_count_examples(tables_census):
    # the octics over the biquadratic of m with twist <= bound:
    # tau(m) * #{t <= bound : t odd squarefree coprime to m}
    for m, bound, expected in [(1, 1, 1),
                               (7, 10, 6),   # tau(7)=2, t in {1, 3, 5}
                               (15, 1, 4)]:  # tau(15)=4, t = 1
        p = factor_small(m)
        assert (1 << len(p)) * tables_census.count_odd_squarefree_coprime(bound, p) == expected


def test_twist_count_brute(tables_census):
    for m in tables_census.odd_squarefree_upto(45):
        tau = sum(1 for d in range(1, m + 1) if m % d == 0)
        p = factor_small(m)
        for bound in (0, 1, 7, 33, 60):
            expected = tau * sum(
                1
                for t in range(1, bound + 1, 2)
                if brute_squarefree(t) and gcd(t, m) == 1
            )
            got = (1 << len(p)) * tables_census.count_odd_squarefree_coprime(bound, p)
            assert got == expected, (m, bound)


def test_exact_census_unit_box(tables_census):
    report = exact_census(BoundBox(1, 1, 1, 1), tables_census)
    assert report.exact == 16
    assert report.triples_visited == 4
    assert report.exact == brute_census(1, 1, 1, 1)


def test_exact_census_empty_twist_range(tables_census):
    assert exact_census(BoundBox(1, 1, 1, 0.5), tables_census).exact == 0


def test_exact_census_against_brute_oracle(tables_census):
    box = BoundBox(3, 3, 3, 4)
    assert exact_census(box, tables_census).exact == brute_census(3, 3, 3, 4)


def test_exact_census_asymmetric_against_brute_oracle(tables_census):
    # asymmetric box exercises the invariant-to-bound mapping
    box = BoundBox(5, 2, 3, 3)
    assert exact_census(box, tables_census).exact == brute_census(5, 2, 3, 3)


half_steps = st.integers(0, 12).map(lambda k: k / 2)


@settings(max_examples=40, deadline=None)
@given(x1=half_steps, x2=half_steps, x3=half_steps, x4=st.integers(0, 8))
def test_exact_census_matches_brute_oracle_on_random_boxes(tables_census, x1, x2, x3, x4):
    report = exact_census(BoundBox(x1, x2, x3, x4), tables_census)
    assert report.exact == brute_census(x1, x2, x3, x4)


def test_exact_census_monotone(tables_census):
    base = exact_census(BoundBox(1, 1, 1, 1), tables_census).exact
    assert exact_census(BoundBox(2, 1, 1, 1), tables_census).exact >= base
    assert exact_census(BoundBox(1, 1, 1, 9), tables_census).exact >= base


def test_exact_census_multiple_of_four(tables_census):
    for box in [(1, 1, 1, 1), (4, 4, 4, 4), (9, 7, 5, 3), (10, 10, 10, 10)]:
        assert exact_census(BoundBox(*box), tables_census).exact % 4 == 0


@pytest.mark.parametrize("x", [1, 3, 64])
def test_kernel_runs_once_per_census(tables_census, monkeypatch, x):
    calls = []
    mask_blocks = census._mask_blocks

    def counted(*args):
        calls.append(args)
        return mask_blocks(*args)

    monkeypatch.setattr(census, "_mask_blocks", counted)
    box = BoundBox(x, x, x, x)
    for reader in (lambda: exact_census(box, tables_census),
                   lambda: census_rows(box, tables_census),
                   lambda: exact_class_sums(box, tables_census)):
        calls.clear()
        reader()
        assert len(calls) == 1


def test_each_distinct_product_twist_counted_once(tables_census, monkeypatch):
    # one batch call per census sees every distinct product once.  X4 within
    # the table: it takes a divisor sum and never calls the scalar recursion;
    # X4 above it: inside that call the recursion runs once per distinct product
    calls, batches = [], []
    count = arith.SieveTables.count_odd_squarefree_coprime
    count_rows = arith.SieveTables.count_odd_squarefree_coprime_rows

    def counted(self, bound, primes):
        calls.append(primes)
        return count(self, bound, primes)

    def counted_rows(self, bound, primes):
        batches.append(len(primes))
        return count_rows(self, bound, primes)

    monkeypatch.setattr(arith.SieveTables, "count_odd_squarefree_coprime", counted)
    monkeypatch.setattr(arith.SieveTables, "count_odd_squarefree_coprime_rows", counted_rows)
    above = BoundBox(15, 15, 15, 5000)
    for box, tables in ((BoundBox(15, 15, 15, 15), tables_census),
                        (above, build_sieve(required_sieve_limit(above)))):
        distinct = {m1p * m2p * m3p
                    for m1ps, m2ps, m3ps, _ in census._mask_blocks(15, 15, 15, tables)
                    for m1p, m2p, m3p in zip(m1ps.tolist(), m2ps.tolist(), m3ps.tolist())}
        for reader in (exact_census, census_rows, exact_class_sums):
            calls.clear()
            batches.clear()
            reader(box, tables)
            assert batches == [len(distinct)]
            if box is above:
                assert tables.limit < box.x4 and len(calls) == len(distinct)
            else:
                assert calls == []


def test_kernel_charge_column_widths_match_odd_primorials(tables_3000):
    # the kernel charges per prime column of m2' and m3'; the width of the
    # columns is the most primes of an odd squarefree value <= b, which the
    # odd primorials 3, 3*5, 3*5*7, ... <= b count.  The charge reads the sizes
    # and widths without building the values or their columns
    primorials = list(accumulate(primes_up_to(20)[1:].tolist(), mul))
    for b in range(3001):
        values = tables_3000.odd_squarefree_upto(b)
        width = tables_3000.prime_columns(values).shape[1]
        assert width == sum(p <= b for p in primorials) == census._most_odd_primes(b), b
        assert tables_3000.odd_squarefree_count(b) == len(values), b
    with pytest.raises(CapacityError, match="^sieve limit 3000 < required 3001$"):
        tables_3000.odd_squarefree_count(3001)


def test_over_budget_kernel_refused_before_allocating(tables_census, monkeypatch):
    # the 81 x 81 (m2', m3') plane of X = 200, in blocks of two m1', is charged ~853 kB
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 200_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="mask kernel of 81 x 81 x 81 odd parts"):
            exact_census(BoundBox(200, 200, 200, 200), tables_census)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000
    # the charge grows with the plane: a thin box still fits
    assert exact_census(BoundBox(15, 15, 200, 15), tables_census).exact > 0


def test_kernel_refused_before_its_inputs_are_built(tables_census, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the kernel built its inputs before the charge")

    monkeypatch.setattr(arith.SieveTables, "prime_columns", unbuilt)
    monkeypatch.setattr(arith.SieveTables, "odd_squarefree_upto", unbuilt)
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 1000)
    with pytest.raises(CapacityError, match="^mask kernel of 81 x 81 x 81 odd parts needs "
                                            "~852930 bytes, budget is 1000$"):
        next(census._mask_blocks(200, 200, 200, tables_census))


def test_kernel_refusals_keep_their_order(monkeypatch):
    # the int64 overflow first, then the sieve's reach bound by bound, then the budget
    short = build_sieve(30)
    monkeypatch.setattr(arith, "MEMORY_BUDGET", 1000)
    with pytest.raises(CapacityError, match="may overflow int64"):
        next(census._mask_blocks(3e6, 3e6, 3e6, short))
    with pytest.raises(CapacityError, match="^sieve limit 30 < required 40$"):
        next(census._mask_blocks(40, 20, 50, short))
    with pytest.raises(CapacityError, match="^mask kernel of 12 x 12 x 12 odd parts"):
        next(census._mask_blocks(30, 30, 30, short))


@pytest.mark.parametrize("raw", [
    (1, 1, 1, 1), (10, 10, 10, 10), (40, 40, 40, 40),
    (50, 20, 35, 40), (20, 50, 35, 40),  # asymmetric, and its X1 <-> X2 swap
    (30, 30, 30, 1e5),  # X4 above the sieve: the twists come from the recursion
])
def test_kernel_class_sums_equal_class_sums(raw):
    box = BoundBox(*raw)
    tables = build_sieve(required_sieve_limit(box))
    sums = exact_class_sums(box, tables)
    assert len(sums) == 768 and sums == class_sums(box, tables)
    # by Hilbert reciprocity the kernel puts no mass on the 336 inadmissible keys
    admissible = dict(admissible_classes())
    assert len(admissible) == 432
    assert all(sums[i] == 0 for i in range(768) if i not in admissible)
    assert 4 * sum(sums) == exact_census(box, tables).exact
    if raw[3] == 1e5:
        assert tables.limit < box.x4


def _residue_place(m1, m2, m3):
    """16 i1 + 4 i2 + i3 for m_j = UNIT_RESIDUES[i_j] mod 8, by m % 8."""
    return 16 * ((m1 % 8) >> 1) + 4 * ((m2 % 8) >> 1) + ((m3 % 8) >> 1)


_ODD = st.integers(-2**19, 2**19).map(lambda n: 2 * n + 1)


@given(st.tuples(_ODD, _ODD, _ODD))
def test_eps_index_reads_the_residues_mod_8(m):
    want = _residue_place(*m)
    assert census._eps_index(*m) == want
    columns = np.array([m], dtype=np.int64).T
    assert census._eps_index(*columns).tolist() == [want]
    # the kernel's unsigned columns; the cast wraps mod 2^bits, which keeps m mod 8
    for dtype in (np.uint8, np.uint16, np.uint32):
        assert census._eps_index(*columns.astype(dtype)).tolist() == [want]


def _class_index(eps, delta, nu):
    """The entry of the class table that holds the class (eps, delta, nu)."""
    return 12 * census._eps_index(*eps) + census.CHOICES.index((delta, nu))


def test_eps_index_orders_the_class_table():
    # CLASSES lists each of the 768 classes once, at its entry of the class table
    assert len(set(CLASSES)) == len(CLASSES) == 768
    for index, c in enumerate(CLASSES):
        assert _class_index(*c) == index
    # each row is a ClassKey that equals and hashes as its plain tuple
    for c in CLASSES:
        plain = (c.eps, c.delta, c.nu)
        assert type(c) is ClassKey and c == plain and hash(c) == hash(plain)


# every valid signed triple with entries up to 40 in absolute value
_VALID_TRIPLES = list(zip(*(column.tolist() for column in arith._valid_triples(40))))


@settings(max_examples=300)
@given(st.sampled_from(_VALID_TRIPLES))
def test_decomposed_class_is_its_entry_of_the_class_table(m):
    dec = decompose_triple(SignedSquarefreeTriple(*m))
    key = (dec.eps, dec.delta, dec.nu)
    if dec.delta == (-1, -1):  # m2, m3 < 0: insoluble at the real place, in no class
        assert key not in CLASSES
    else:
        assert CLASSES[_class_index(*key)] == key


def test_kernel_class_sums_meet_the_class_tally_at_two(tables_census):
    # at X = 40 every admissible key has a triple, and only those do: per
    # delta the live keys tally 48, 32, 32, 32 over nu, as the paper's count
    # of classes at 2 says (X = 20 reaches only 318 of the 432 keys)
    sums = exact_class_sums(BoundBox(40, 40, 40, 40), tables_census)
    live = [key for key, value in zip(CLASSES, sums) if value]
    assert live == [key for _, key in admissible_classes()]
    tally = Counter((key.delta, key.nu) for key in live)
    for delta in ALL_DELTAS:
        assert tuple(tally[delta, nu] for nu in ALL_NUS) == CONSTANTS["class_tally"]


def test_kernel_class_sums_past_the_int64_bound_sum_in_python_ints(tables_census, monkeypatch):
    box = BoundBox(40, 40, 40, 400)
    want = exact_class_sums(box, tables_census)
    # entries * largest twist >= (sum of the twists over the entries) >= total / 12,
    # so a bound of 40^3 sends the sum to Python ints; the kernel's own product
    # check, 40^3 <= bound, still passes
    assert sum(want) > 12 * 40**3
    monkeypatch.setattr(census, "_INT64_MAX", 40**3)
    assert exact_class_sums(box, tables_census) == want


def test_kernel_class_sums_refuse_a_short_table_as_class_sums_does():
    box, short = BoundBox(10, 10, 10, 10**6), build_sieve(20)  # isqrt(X4) = 1000
    messages = []
    for run in (lambda: exact_class_sums(box, short),
                lambda: class_sums(box, short)):
        with pytest.raises(CapacityError, match="needs a sieve limit of 1000, have 20") as err:
            run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_count_path_peak_per_kernel_entry(tables_census):
    # the packed keys, one int64 per entry built a kernel block at a time and
    # sorted in place, read 18.2 B/entry here for the count, which frees them
    # before the twist step, and 26.2 for the class sums, which read them
    # through it (the bounds add about 15%).  With one argsort of the int64
    # products and the three uint16 columns alive through it, the count read
    # 29.9 and the class sums 31.9; np.unique with its inverse array and the
    # scatter of one entry per product 53.3
    box = BoundBox(300, 300, 300, 300)
    entries = sum(len(m2ps) for _, m2ps, _, _ in census._mask_blocks(300, 300, 300, tables_census))
    for reader, bound in ((lambda: exact_census(box, tables_census), 21),
                          (lambda: exact_class_sums(box, tables_census), 30)):
        tracemalloc.start()
        try:
            reader()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / entries < bound


def test_census_rows_peak_per_row(tables_census):
    # the breakdown's rows, as four int64 columns, read 56.3 B/row here with
    # a list of twist counts in place of the fourth (one int object per
    # distinct product), and 196.5 B/row when exact_census also built them
    # from per-row tuples
    box = BoundBox(300, 300, 300, 300)
    tracemalloc.start()
    try:
        m1, _, _, twists = census_rows(box, tables_census)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(twists) == len(m1) == 1_053_692  # triples_visited at X = 300
    assert peak / len(twists) < 120


@pytest.mark.parametrize("raw, exact, triples", [
    ((200, 200, 200, 200), 1_151_510_048, 357_016),
    ((50, 100, 200, 100), 69_552_784, 53_629),
    ((50, 200, 100, 100), 69_492_784, 53_493),
    ((100, 200, 50, 100), 69_463_440, 53_423),
])
def test_kernel_pinned_above_fifty(tables_census, raw, exact, triples):
    # recorded with the earlier per-pair row kernel, an independent implementation
    report = exact_census(BoundBox(*raw), tables_census)
    assert (report.exact, report.triples_visited) == (exact, triples)


@pytest.mark.parametrize("x, exact, triples", [
    (300, 5_763_471_600, 1_053_692),
    (400, 18_036_061_248, 2_315_144),
])
def test_kernel_pinned_at_300_and_400(tables_census, x, exact, triples):
    # the exact counts were checked once against the class-sum oracle, which
    # walks the triples by its own code and twist-counts by the recursion
    # (41 s at X = 300 and 96 s at X = 400 on a 2-vCPU VM, too slow for here)
    report = exact_census(BoundBox(x, x, x, x), tables_census)
    assert (report.exact, report.triples_visited) == (exact, triples)


@pytest.mark.parametrize("raw, types", [
    ((5, 70000, 30, 50), (np.uint8, np.uint8, np.uint32)),
    ((70000, 5, 30, 50), (np.uint8, np.uint32, np.uint8)),
])
def test_readers_agree_on_columns_of_mixed_types(tables_100k, raw, types):
    # X3 bounds m1', X1 bounds m2', X2 bounds m3': each column takes the
    # smallest unsigned type of its bound; the counts were recorded with the
    # earlier entry format of int64 products, m2' and m1' per block
    box = BoundBox(*raw)
    columns = census._kernel_entries(box, tables_100k)
    assert [c.dtype for c in columns] == [*map(np.dtype, types), np.dtype(np.uint16)]
    report = exact_census(box, tables_100k)
    assert (report.exact, report.triples_visited) == (473_236_176, 905_981)
    assert report.exact == 4 * sum(exact_class_sums(box, tables_100k))
    assert report.exact == 4 * sum(census_rows(box, tables_100k)[3])


def assert_blocks_do_not_change_the_entries(box, tables):
    # a block of one m1' at a time, as the kernel took before it took several,
    # against the default: the same columns, values, dtypes and order
    with pytest.MonkeyPatch.context() as m:
        m.setattr(census, "_BATCH_CELLS", 1)
        single = census._kernel_entries(box, tables)
    default = census._kernel_entries(box, tables)
    assert [c.dtype for c in single] == [c.dtype for c in default]
    assert all(np.array_equal(a, b) for a, b in zip(single, default, strict=True))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x1=st.integers(0, 300), x2=st.integers(0, 300), x3=st.integers(0, 300))
def test_kernel_entries_do_not_depend_on_the_block_size(tables_census, x1, x2, x3):
    assert_blocks_do_not_change_the_entries(BoundBox(x1, x2, x3, 1), tables_census)


@pytest.mark.parametrize("kernel_bounds", [
    (100000, 1, 1), (1, 1, 100000),
    (5, 20000, 5),  # an m2' with 5 primes: a pair of columns twice, then one alone
    (0, 300, 300), (300, 0, 300), (300, 300, 0),
])
def test_kernel_entries_do_not_depend_on_the_block_size_on_thin_boxes(tables_100k,
                                                                      kernel_bounds):
    b1, b2, b3 = kernel_bounds  # X3 bounds m1', X1 bounds m2', X2 bounds m3'
    assert_blocks_do_not_change_the_entries(BoundBox(b2, b3, b1, 1), tables_100k)


@pytest.mark.parametrize("raw, exact, triples", [
    ((1, 1, 100000, 1), 4_070_592, 214_846),
    ((1, 1, 20000, 50), 12_219_824, 43_718),
    ((3, 5, 20000, 100), 54_658_288, 83_074),
])
def test_thin_boxes_pinned(tables_100k, raw, exact, triples):
    # recorded with the kernel of one block per m1'
    report = exact_census(BoundBox(*raw), tables_100k)
    assert (report.exact, report.triples_visited) == (exact, triples)


def test_a_thin_plane_takes_many_m1_per_block(tables_100k):
    # the 1 x 1 plane of kernel bounds (100000, 1, 1) took 40,527 blocks, one
    # per m1' with an entry
    n1 = tables_100k.odd_squarefree_count(100000)
    blocks = sum(1 for _ in census._mask_blocks(100000, 1, 1, tables_100k))
    assert 0 < blocks <= -(-n1 // census._BATCH_CELLS)


def test_thin_kernel_set_up_peak(tables_100k):
    # the set-up sets the peak on kernel bounds (100000, 1, 1): 2.98 MB read
    # with _symbols_at's presence table of primes, 5.46 MB when it gathered
    # the distinct primes through a Python set
    tracemalloc.start()
    try:
        for _ in census._mask_blocks(100000, 1, 1, tables_100k):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_kernel_peak_stays_under_its_charge(monkeypatch):
    tables = build_sieve(1000)
    charges = []
    check_budget = census._check_budget

    def charged(table, nbytes):
        charges.append(nbytes)
        check_budget(table, nbytes)

    monkeypatch.setattr(census, "_check_budget", charged)
    census._mask_tables()  # cached for the process, not the kernel's
    tracemalloc.start()
    try:
        for _ in census._mask_blocks(1000, 1000, 1000, tables):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak < charges[0]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x1=st.integers(0, 60), x2=st.integers(0, 60), x3=st.integers(0, 60),
       x4=st.integers(0, 2000))
def test_count_symmetric_in_the_reflection_invariants(tables_census, x1, x2, x3, x4):
    # the outer automorphism swaps the two reflection classes, so X1 and X2
    # (the bounds on m2' and m3') may be exchanged
    assert (exact_census(BoundBox(x1, x2, x3, x4), tables_census).exact
            == exact_census(BoundBox(x2, x1, x3, x4), tables_census).exact)


@pytest.mark.parametrize("bounds", [(45, 45, 45), (30, 20, 45), (7, 60, 1)])
def test_choice_swap_maps_masks_onto_swapped_triples(tables_census, bounds):
    """(d2, d3, alpha, beta) -> (d3, d2, beta, alpha) maps the masks of
    (m1', m2', m3') onto those of (m1', m3', m2')."""
    def masks_of(b1, b2, b3):
        return {(m1p, m2p, m3p): mask
                for m1ps, m2ps, m3ps, block in census._mask_blocks(b1, b2, b3, tables_census)
                for m1p, m2p, m3p, mask in zip(m1ps.tolist(), m2ps.tolist(), m3ps.tolist(),
                                               block.tolist())}

    index = {choice: k for k, choice in enumerate(census.CHOICES)}
    image = [index[(d3, d2), (mu, beta, alpha)]
             for (d2, d3), (mu, alpha, beta) in census.CHOICES]

    def swap(mask):
        return sum(1 << image[k] for k in range(len(image)) if mask >> k & 1)

    b1, b2, b3 = bounds
    direct, swapped = masks_of(b1, b2, b3), masks_of(b1, b3, b2)
    assert direct and image != list(range(len(image)))
    assert {(m1p, m3p, m2p): swap(mask) for (m1p, m2p, m3p), mask in direct.items()} == swapped


def test_class_plane_is_implied_by_the_other_planes(tables_census):
    """Hilbert reciprocity: the symbol at 2 is the product of the symbols at
    the other places, so every choice that the sign, non-degeneracy and
    odd-prime planes allow lies in the mod-8 class set of its residues, and
    the kernel needs no class plane."""
    cls = np.zeros((8, 8, 8), dtype=np.uint16)
    for eps in product(UNIT_RESIDUES, repeat=3):
        cls[eps] = sum(1 << k for k, (delta, nu) in enumerate(census.CHOICES)
                       if in_E_set(eps, nu, delta))
    boxes = [(1, 1, 1), (15, 15, 15), (45, 45, 45), (30, 20, 45), (7, 60, 1), (150, 150, 150)]
    for box in boxes:
        blocks = list(census._mask_blocks(*box, tables_census))
        assert blocks
        for m1p, m2ps, m3ps, block in blocks:
            outside = block & ~cls[m1p % 8, m2ps % 8, m3ps % 8]
            assert not outside.any(), (box, m1p)


def test_symbols_at_match_kronecker(tables_100k):
    """The kernel's Legendre symbols against arith.kronecker: random odd
    squarefree values and odd primes up to 1e5, with multiples of each prime
    (symbol 0) and the pad prime 0 (a row of 1)."""
    rng = random.Random(12)
    primes = rng.sample(primes_up_to(100_000)[1:].tolist(), 40) + [3]
    values = rng.sample(tables_100k.odd_squarefree_upto(100_000), 300)
    values += [p * q for p in primes for q in (1, 5 if p != 5 else 7)]
    at = census._symbols_at(np.array(values, dtype=np.int64), np.array(primes))
    for p in primes:
        assert at(p).tolist() == [kronecker(v, p) for v in values], p
    assert (at(0) == 1).all()
    assert at(np.array([0, primes[0]])).shape == (2, len(values))


def test_signed_triples_expand_every_mask_in_choice_order():
    """All 4096 masks, one entry each: the rows of an entry are the signed
    triples of its set bits, in CHOICES order."""
    masks = np.arange(census._ALL_CHOICES + 1, dtype=np.uint16)
    threes, fives, sevens = (np.full(len(masks), m, dtype=np.uint16) for m in (3, 5, 7))
    expected = [(mask, (1 << mu) * 3, d2 * (1 << alpha) * 5, d3 * (1 << beta) * 7)
                for mask in range(len(masks))
                for k, ((d2, d3), (mu, alpha, beta)) in enumerate(census.CHOICES)
                if mask >> k & 1]
    columns = census._signed_triples(threes, fives, sevens, masks)
    assert all(c.dtype == np.int64 for c in columns[1:])
    assert list(zip(*(c.tolist() for c in columns))) == expected


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x1=st.integers(0, 40), x2=st.integers(0, 40), x3=st.integers(0, 40),
       x4=st.one_of(st.just(0), st.integers(1, 100_000), st.integers(100_001, 10**9)))
def test_breakdown_rows_on_random_boxes(tables_100k, x1, x2, x3, x4):
    """The breakdown rows against the brute reference_triples and the scalar
    twist counter, with X4 inside the table (the divisor sum) and above it
    (the recursion)."""
    box = BoundBox(x1, x2, x3, x4)
    *columns, row_twists = census_rows(box, tables_100k)
    rows = list(zip(*(c.tolist() for c in columns), row_twists))
    assert [row[:3] for row in rows] == reference_triples(x3, x1, x2)
    report = exact_census(box, tables_100k)
    assert len(rows) == report.triples_visited
    assert 4 * sum(row_twists) == report.exact
    twist_of = {}
    for m1, m2, m3, twists in rows:
        n = brute_odd_part(m1 * m2 * m3)
        if n not in twist_of:
            p = factor_small(n)
            twist_of[n] = (1 << len(p)) * tables_100k.count_odd_squarefree_coprime(x4, p)
        assert twists == twist_of[n]


def test_breakdown_rows(tables_census):
    box = BoundBox(4, 4, 4, 4)
    m1, m2, m3, twists = census_rows(box, tables_census)
    assert twists.tolist() and all(c.dtype == np.int64 and len(c) == len(twists)
                                   for c in (m1, m2, m3, twists))
    for triple in zip(m1.tolist(), m2.tolist(), m3.tolist()):
        assert satisfies_local_conditions(SignedSquarefreeTriple(*triple))
    assert 4 * sum(twists) == exact_census(box, tables_census).exact


def test_required_sieve_limit():
    assert required_sieve_limit(BoundBox(10, 20, 5, 7)) == 20
    # the twist counter reads the tables only up to isqrt(X4)
    assert required_sieve_limit(BoundBox(1, 1, 1, 90)) == 9


def census_result(box, tables):
    report = exact_census(box, tables)
    m1, m2, m3, twists = census_rows(box, tables)
    assert twists.dtype == np.int64
    return (report.exact, report.triples_visited,
            (m1.tolist(), m2.tolist(), m3.tolist(), twists.tolist()))


@pytest.mark.parametrize("raw", [(20, 20, 20, 5000), (7, 3, 5, 2000), (15, 9, 12, 300)])
def test_sqrt_table_census_equals_full_table_census(raw):
    box = BoundBox(*raw)
    small, full = build_sieve(required_sieve_limit(box)), build_sieve(int(box.x4))
    assert small.limit < box.x4
    got, expected = (census_result(box, t) for t in (small, full))
    assert got == expected
    exact = got[0]
    via_small = class_sums(box, small)
    assert via_small == class_sums(box, full)
    assert 4 * sum(via_small) == exact


def test_sqrt_table_census_against_brute_oracle():
    box = BoundBox(15, 9, 12, 300)
    report = exact_census(box, build_sieve(required_sieve_limit(box)))
    assert report.exact == brute_census(15, 9, 12, 300)


# --- invariants and inertia --------------------------------------------------


def test_invariants_examples():
    assert invariants_of(SignedSquarefreeTriple(1, 2, 7), 1).as_tuple() == (1, 7, 1, 1)
    assert invariants_of(SignedSquarefreeTriple(15, -2, 7), 11).as_tuple() == (1, 7, 15, 11)
    assert invariants_of(SignedSquarefreeTriple(2, 1, -1), 1).as_tuple() == (1, 1, 1, 1)


def test_invariants_rejects_bad_twist():
    with pytest.raises(ValueError):
        invariants_of(SignedSquarefreeTriple(1, 2, 7), 2)   # even
    with pytest.raises(ValueError):
        invariants_of(SignedSquarefreeTriple(1, 2, 7), 9)   # not squarefree
    with pytest.raises(ValueError):
        invariants_of(SignedSquarefreeTriple(1, 2, 7), 7)   # shares a factor
    with pytest.raises(ValueError):
        invariants_of(SignedSquarefreeTriple(15, -2, 7), 3)  # 3 divides 15


def test_inertia_class_examples():
    vec = invariants_of(SignedSquarefreeTriple(1, 2, 7), 1)
    assert inertia_class(7, vec) == InertiaClass.RS
    assert inertia_class(11, vec) == InertiaClass.UNRAMIFIED
    assert inertia_class(3, invariants_of(SignedSquarefreeTriple(3, 2, -1), 1)) == InertiaClass.R
    assert inertia_class(5, invariants_of(SignedSquarefreeTriple(1, 2, 7), 5)) == InertiaClass.R2


def test_inertia_class_rejects_two_and_composites():
    vec = invariants_of(SignedSquarefreeTriple(1, 2, 7), 1)
    with pytest.raises(ValueError):
        inertia_class(2, vec)
    with pytest.raises(ValueError):
        inertia_class(15, vec)


def test_invariant_primes_match_inertia_classes(tables_census):
    coordinate_of_class = {
        InertiaClass.S: 0,
        InertiaClass.RS: 1,
        InertiaClass.R: 2,
        InertiaClass.R2: 3,
    }
    for m in admissible_triples(5, 5, 5, tables_census):
        triple = SignedSquarefreeTriple(*m)
        odd_product = brute_odd_part(m[0] * m[1] * m[2])
        for t in (1, 3, 7):
            if gcd(t, odd_product) != 1:
                continue
            vec = invariants_of(triple, t)
            coords = vec.as_tuple()
            assert vec.primes == tuple(factor_small(coord) for coord in coords)
            for p in (3, 5, 7, 11, 13):
                cls = inertia_class(p, vec)
                if cls is InertiaClass.UNRAMIFIED:
                    assert all(coord % p != 0 for coord in coords)
                else:
                    idx = coordinate_of_class[cls]
                    assert coords[idx] % p == 0
                    assert all(coords[i] % p != 0 for i in range(4) if i != idx)


def test_splitting_rows():
    r_rows = splitting_rows(InertiaClass.R)
    assert len(r_rows) == 2
    assert r_rows[0] == ("1^4 1^4", "1^2", "1^2", "1^2 1^2", "1 1")
    assert len(splitting_rows(InertiaClass.R2)) == 4
    for row in splitting_rows(InertiaClass.S):
        assert row[1] == "1 1" and row[2] == "1^2"
    for row in splitting_rows(InertiaClass.RS):
        assert row[1] == "1^2" and row[2] == "1 1"
    with pytest.raises(ValueError):
        splitting_rows(InertiaClass.UNRAMIFIED)


def _readers(box, tables):
    """What the three readers give on box: the count and its triples, the
    class sums and the CSV columns."""
    report = exact_census(box, tables)
    rows = census_rows(box, tables)
    return ((report.exact, report.triples_visited), exact_class_sums(box, tables),
            [column.tolist() for column in rows], [column.dtype for column in rows])


def _branches(box, tables):
    """_readers(box, tables) on the packed keys, passed over in chunks of 3
    entries; with the columns grouped by a packed (product, index) key; and
    with the columns grouped by argsort."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(census, "_KEY_CHUNK", 3)
        chunked = _readers(box, tables)
        m.setattr(census, "_key_layout", lambda box, carry: None)
        columns = _readers(box, tables)
        m.setattr(census, "_KEY_BITS", 1)
        argsorted = _readers(box, tables)
    return _readers(box, tables), chunked, columns, argsorted


_bound = st.integers(0, 24)


@settings(max_examples=25, deadline=None)
@given(x1=_bound, x2=_bound, x3=_bound, skew=st.sampled_from([1, 1, 6]),
       which=st.integers(0, 2), x4=st.sampled_from([0, 5, 24, 700, 30_000]), tiny=st.booleans())
def test_packed_reduction_matches_the_argsort_and_the_oracles(x1, x2, x3, skew, which, x4, tiny):
    # random small boxes, one bound stretched up to 144 on some, and X4 both
    # inside the sieve and above it; the tiny ones also go to the brute census
    bounds = [x1 % 5, x2 % 5, x3 % 5] if tiny else [x1, x2, x3]
    bounds[which] *= skew
    x4 = min(x4, 24) if tiny else x4
    box = BoundBox(*bounds, x4)
    tables = build_sieve(required_sieve_limit(box))
    packed, *others = _branches(box, tables)
    assert all(other == packed for other in others)
    (exact, _), sums, (*_, twists), _ = packed
    assert sums == class_sums(box, tables)
    assert exact == 4 * sum(sums) == 4 * sum(twists)
    if tiny:
        assert exact == brute_census(*bounds, x4)


@pytest.mark.parametrize("raw", [(40, 40, 40, 40), (30, 30, 30, 1e5), (5, 300, 30, 50)])
def test_forced_argsort_branch_gives_the_same_results(raw):
    box = BoundBox(*raw)
    tables = build_sieve(required_sieve_limit(box))
    argsort, argsorts = np.argsort, []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(census, "_KEY_BITS", 1)
        m.setattr(census.np, "argsort", lambda *a, **k: argsorts.append(1) or argsort(*a, **k))
        forced = _readers(box, tables)
    assert len(argsorts) == 3  # one per reader
    assert forced == _readers(box, tables)


def test_packed_branch_takes_no_argsort(tables_census, monkeypatch):
    box = BoundBox(40, 40, 40, 40)
    want = _readers(box, tables_census)

    def refused(*args, **kwargs):
        raise AssertionError("argsort on the packed branch")

    monkeypatch.setattr(census.np, "argsort", refused)
    assert _readers(box, tables_census) == want


# what the count and the class sums carry through the product reduction
POPCOUNTS = census._mask_tables().choice_bits.sum(axis=1, dtype=np.uint8)
MASKS = np.arange(4096, dtype=np.uint16)


def test_count_key_of_20000_1_20000_1_is_packed_in_63_bits():
    # X3 = 20000 bounds m1', X1 = 20000 bounds m2', X2 = 1 bounds m3':
    # bits(4e8) + bits(20000) + bits(20000) + 4 = 29 + 15 + 15 + 4 = 63
    box = BoundBox(20000, 1, 20000, 1)
    assert census._key_layout(box, POPCOUNTS) == (15, 15, 4)
    # the class sums carry the mask (12 bits): 71 bits, so they sort columns
    assert census._key_layout(box, MASKS) is None
    # one bit more of m1' passes 63
    assert census._key_layout(BoundBox(20000, 1, 40000, 1), POPCOUNTS) is None
    # the largest symmetric boxes each reader packs
    for carry, top in ((POPCOUNTS, 3250), (MASKS, 1023)):
        assert census._key_layout(BoundBox(top, top, top, 1), carry) is not None
        assert census._key_layout(BoundBox(top + 1, top + 1, top + 1, 1), carry) is None


def test_count_past_the_int64_bound_sums_in_python_ints(tables_census, monkeypatch):
    box = BoundBox(40, 40, 40, 400)
    want = exact_census(box, tables_census)
    # triples_visited * largest twist > 40^3, so the weighted sum leaves the
    # int64 dot; the kernel's own product check, 40^3 <= bound, still passes
    monkeypatch.setattr(census, "_INT64_MAX", 40**3)
    monkeypatch.setattr(census.np, "dot", None)
    assert exact_census(box, tables_census) == want
