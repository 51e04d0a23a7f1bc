import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d4census.arith import (
    SignedSquarefreeTriple,
    _squarefree_factors,
    _valid_triples,
    build_sieve,
    factor_small,
    primes_up_to,
)
from d4census import localsolve
from d4census.localsolve import (
    ALL_DELTAS,
    ALL_NUS,
    REAL_PLACE,
    TWO_PLACE,
    UNIT_RESIDUES,
    Place,
    find_conic_point,
    hilbert_symbol,
    hilbert_symbol_rows,
    in_E_set,
    local_conditions_rows,
    padic_oracle_rows,
    satisfies_local_conditions,
    u_weight,
)


def squarefree_values(bound):
    return [s * n for n in range(1, bound + 1) if _squarefree_factors(n) is not None
            for s in (1, -1)]


SYMBOL_PLACES = [REAL_PLACE, TWO_PLACE] + [Place(p) for p in primes_up_to(97)[1:].tolist()]


def signed_values(q):
    """Nonzero values of both signs up to 10^12 in absolute value, divisible
    by q^k for a drawn k <= 4, so that valuations of 2 and more are common."""
    return st.integers(0, 4).flatmap(
        lambda k: st.integers(1, 10**12 // q**k).map(lambda u: u * q**k)).flatmap(
        lambda n: st.sampled_from((n, -n)))


@settings(max_examples=200)
@given(data=st.data())
def test_hilbert_symbol_rows_equal_the_scalar_symbol(data):
    v = data.draw(st.sampled_from(SYMBOL_PLACES))
    value = signed_values(v.p or data.draw(st.sampled_from((2, 3))))
    pairs = data.draw(st.lists(st.tuples(value, value), max_size=30))
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    got = hilbert_symbol_rows(a, b, v)
    assert got.dtype == np.int8
    assert got.tolist() == [hilbert_symbol(x, y, v) for x, y in pairs]


def test_hilbert_symbol_rows_of_empty_and_zero_columns():
    for v in SYMBOL_PLACES:
        assert hilbert_symbol_rows([], [], v).tolist() == []
        for a, b in (([5, 0], [3, 3]), ([5, 3], [3, 0])):
            with pytest.raises(ValueError) as scalar:
                hilbert_symbol(0, 3, v)
            with pytest.raises(ValueError) as rows:
                hilbert_symbol_rows(a, b, v)
            assert str(rows.value) == str(scalar.value)
    with pytest.raises(ValueError, match="p < 2"):
        hilbert_symbol_rows([3], [5], Place(2**31 + 11))  # Euler's criterion would overflow


def test_local_conditions_rows_equal_the_scalar_conditions():
    m1, m2, m3 = _valid_triples(30)
    got = local_conditions_rows(m1, m2, m3, build_sieve(30))
    want = [satisfies_local_conditions(SignedSquarefreeTriple(*t))
            for t in zip(m1.tolist(), m2.tolist(), m3.tolist())]
    assert got.dtype == bool and len(got) == 11_908
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


def test_place_validation():
    assert Place(7).p == 7
    assert REAL_PLACE.is_real and TWO_PLACE.is_two
    for bad in (9, 15, -3, 4, 1):
        with pytest.raises(ValueError):
            Place(bad)


def test_hilbert_examples():
    for a in (1, -1, 2, 15, -30):
        for v in (REAL_PLACE, TWO_PLACE, Place(3), Place(5)):
            assert hilbert_symbol(a, -a, v) == 1  # (0, 1, 1) is a solution
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(2, 3, Place(3)) == -1
    assert hilbert_symbol(-1, -1, TWO_PLACE) == -1


def test_hilbert_strips_valuations():
    # (a, b)_p depends on valuations mod 2 only
    assert hilbert_symbol(9 * 2, 3, Place(3)) == hilbert_symbol(2, 3, Place(3))
    assert hilbert_symbol(4 * 5, 12, TWO_PLACE) == hilbert_symbol(5, 3 * 4, TWO_PLACE)


def test_oracle_examples():
    got = [padic_oracle_rows([a], [b], v)[0] for a, b, v in
           ((2, 7, Place(7)), (2, 3, Place(3)), (-1, -1, REAL_PLACE), (-1, -1, TWO_PLACE))]
    assert got == [True, False, False, False]  # (3, 1, 1) solves the first globally


def test_oracle_rejects_high_valuation():
    with pytest.raises(ValueError):
        padic_oracle_rows([9], [1], Place(3))
    with pytest.raises(ValueError):
        padic_oracle_rows([3], [8], TWO_PLACE)



def reference_oracle(a, b, v):
    """The scalar exhaustive search padic_oracle_rows replaced, kept as the
    reference: one numpy search per pair."""
    if a == 0 or b == 0:
        raise ValueError("padic_oracle needs nonzero arguments")
    if v.is_real:
        return not (a < 0 and b < 0)
    p = 2 if v.is_two else v.p
    for coeff in (a, b):
        val = 0
        n = abs(coeff)
        while n % p == 0:
            n //= p
            val += 1
        if val > 1:
            raise ValueError(f"padic_oracle: valuation of {coeff} at {p} exceeds 1")
    modulus = 64 if p == 2 else p**3
    x = np.arange(modulus, dtype=np.int64)
    sq = np.zeros(modulus, dtype=bool)
    sq[(x * x) % modulus] = True
    t = np.arange(modulus, dtype=np.int64)
    t2 = (t * t) % modulus
    am, bm = a % modulus, b % modulus
    bz2 = np.zeros(modulus, dtype=bool)
    bz2[(bm * t2) % modulus] = True
    if bz2[(1 - am * t2) % modulus].any():
        return True
    if sq[(am + bm * t2) % modulus].any():
        return True
    if sq[(bm + am * t2) % modulus].any():
        return True
    return False


ORACLE_PLACES = [REAL_PLACE, TWO_PLACE] + [Place(p) for p in (3, 5, 7, 29, 37)]


def block_rows(v):
    if v.is_real:
        return 1
    modulus = 64 if v.is_two else v.p**3
    return max(1, localsolve._ORACLE_BLOCK_CELLS // modulus)


@st.composite
def oracle_batches(draw):
    """A place and a batch of pairs of valuation <= 1 there, signs mixed; the
    batch is empty, small, or repeated past one block of padic_oracle_rows
    (whose repeats take the verdicts of the one row it searches per key)."""
    v = draw(st.sampled_from(ORACLE_PLACES))
    p = v.p or 1

    def coefficient():
        unit = st.integers(min_value=-10**12, max_value=10**12).filter(
            lambda n: n != 0 and (p == 1 or n % p != 0))
        return st.builds(lambda u, e: u * p**e, unit, st.integers(0, 0 if p == 1 else 1))

    pairs = draw(st.lists(st.tuples(coefficient(), coefficient()), max_size=8))
    if pairs and draw(st.booleans()):
        pairs = pairs * (block_rows(v) // len(pairs) + 2)
    return v, pairs


@settings(max_examples=150, deadline=None)
@given(oracle_batches())
def test_oracle_rows_equal_the_scalar_search(batch):
    v, pairs = batch
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    got = padic_oracle_rows(a, b, v)
    assert got.dtype == bool and got.shape == (len(pairs),)
    expected = {pair: reference_oracle(*pair, v) for pair in set(pairs)}
    assert got.tolist() == [expected[pair] for pair in pairs]


@pytest.mark.parametrize("a, b, v, message", [
    (0, 5, REAL_PLACE, "padic_oracle needs nonzero arguments"),
    (3, 0, Place(3), "padic_oracle needs nonzero arguments"),
    (9, 1, Place(3), "padic_oracle: valuation of 9 at 3 exceeds 1"),
    (3, -18, Place(3), "padic_oracle: valuation of -18 at 3 exceeds 1"),
    (3, 8, TWO_PLACE, "padic_oracle: valuation of 8 at 2 exceeds 1"),
    (-12, 40, TWO_PLACE, "padic_oracle: valuation of -12 at 2 exceeds 1"),
])
def test_oracle_rows_raise_the_scalar_messages(a, b, v, message):
    with pytest.raises(ValueError) as err:
        reference_oracle(a, b, v)
    assert str(err.value) == message
    # a bad pair anywhere in a batch refuses the whole batch, naming that pair
    with pytest.raises(ValueError) as err:
        padic_oracle_rows(np.array([1, a, 4 * a + 1]), np.array([1, b, 1]), v)
    assert str(err.value) == message


def residues_of_low_valuation(p):
    """The modulus of padic_oracle_rows at p and the residues of valuation <= 1."""
    modulus = 64 if p == 2 else p**3
    return modulus, np.array([r for r in range(1, modulus) if r % (p * p)], dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_rows_equal_the_reference_on_every_residue_pair(p):
    modulus, residues = residues_of_low_valuation(p)
    a = np.repeat(residues, len(residues))
    b = np.tile(residues, len(residues))
    got = padic_oracle_rows(a, b, Place(p))
    expected = [reference_oracle(x, y, Place(p)) for x, y in zip(a.tolist(), b.tolist())]
    assert got.tolist() == expected
    assert 0 < np.count_nonzero(got) < len(got)


def residues_by_square_class(p, per_key, rng):
    """per_key distinct residues of valuation <= 1 mod the oracle's modulus
    for each key (p | r, class of the unit part u = r/p or r): Euler's
    criterion for u at an odd p, u mod 8 at 2.  4 keys at an odd p, 8 at 2."""
    modulus, residues = residues_of_low_valuation(p)
    s = residues % p == 0
    u = np.where(s, residues // p, residues)
    cls = u % 8 if p == 2 else np.array([pow(int(x), (p - 1) // 2, p) for x in u])
    keys = {}
    for key in sorted(set(zip(s.tolist(), cls.tolist()))):
        members = residues[(s == key[0]) & (cls == key[1])]
        keys[key] = rng.choice(members, size=per_key, replace=False).tolist()
    return modulus, keys


@pytest.mark.parametrize("p", [2, 7, 11, 37])
def test_oracle_rows_equal_the_reference_on_every_square_class(p):
    # padic_oracle_rows searches one row per (key of a, key of b); several
    # residues of every key pair, as int64 and shifted past int64 (object
    # dtype, so the keys must come from the residues), match the reference
    rng = np.random.default_rng(p)
    modulus, keys = residues_by_square_class(p, 3, rng)
    assert len(keys) == (8 if p == 2 else 4)
    pairs = [(x, y) for ka in keys.values() for kb in keys.values()
             for x, y in zip(ka, rng.permutation(kb).tolist())]
    assert len(pairs) == 3 * (64 if p == 2 else 16)
    expected = [reference_oracle(x, y, Place(p)) for x, y in pairs]
    assert 0 < sum(expected) < len(expected)
    a, b = (np.array(c, dtype=np.int64) - modulus for c in zip(*pairs))
    assert padic_oracle_rows(a, b, Place(p)).tolist() == expected
    shifts = rng.integers(-10**6, 10**6, (2, len(pairs))).tolist()
    big_a, big_b = (np.array([x + modulus * 10**20 * k for x, k in zip(c, ks)], dtype=object)
                    for c, ks in zip(zip(*pairs), shifts))
    assert max(abs(big_a).max(), abs(big_b).max()) > 2**63
    got = padic_oracle_rows(big_a, big_b, Place(p)).tolist()
    assert got == [reference_oracle(x, y, Place(p)) for x, y in zip(big_a, big_b)]
    assert got == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_x_one_solutions_have_a_unit_y_or_z(p):
    # why padic_oracle_rows searches only y = 1 and z = 1: in a solution
    # (1, y, z) mod m, a*y^2 + b*z^2 = 1 mod p, so y or z is a unit, and
    # dividing by it gives a solution with y = 1 or z = 1
    modulus, residues = residues_of_low_valuation(p)
    t = np.arange(modulus, dtype=np.int64)
    unit = t % p != 0
    inv = np.zeros(modulus, dtype=np.int64)
    inv[unit] = [pow(u, -1, modulus) for u in t[unit].tolist()]
    sq = (t * t) % modulus
    # row i: b_i * z^2 over z; each term is below m <= 125, so int16 holds the sums
    bz2 = ((residues[:, None] * sq) % modulus).astype(np.int16)
    solutions = 0
    for a in residues.tolist():
        # a*y^2 + b*z^2 over (b, y, z), below 2m: it is 1 mod m at 1 and m + 1
        v = ((a * sq) % modulus).astype(np.int16)[None, :, None] + bz2[:, None, :]
        bi, ys, zs = np.nonzero((v == 1) | (v == modulus + 1))
        b = residues[bi]
        solutions += len(ys)
        assert (unit[ys] | unit[zs]).all()
        by_y = unit[ys]
        x, z = inv[ys[by_y]], zs[by_y] * inv[ys[by_y]]
        assert ((x * x - a - b[by_y] * z * z) % modulus == 0).all()
        x, y = inv[zs[~by_y]], ys[~by_y] * inv[zs[~by_y]]
        assert ((x * x - a * y * y - b[~by_y]) % modulus == 0).all()
    assert solutions > 0


def test_oracle_view_keeps_python_ints():
    # pairs past int64 are reduced before the search, as the scalar search did
    a, b = 3 * 10**30 + 2, -(7 * 10**25) + 1
    got = [padic_oracle_rows([a, 5], [b, 3], v).tolist() for v in ORACLE_PLACES]
    assert got == [[reference_oracle(a, b, v), reference_oracle(5, 3, v)] for v in ORACLE_PLACES]

def test_oracle_agrees_with_symbol_up_to_30():
    values = squarefree_values(30)
    seen = {}
    for a in values:
        for b in values:
            places = [REAL_PLACE, TWO_PLACE]
            places += [Place(p) for p in factor_small(a * b) if p != 2]
            for v in places:
                key = (a, b, v.p)
                if key in seen:
                    continue
                seen[key] = True
                assert (hilbert_symbol(a, b, v) == 1) == padic_oracle_rows([a], [b], v)[0], key


def test_in_E_set_examples():
    assert in_E_set((1, 1, 1), (0, 0, 0), (1, 1)) is True
    assert in_E_set((3, 5, 1), (0, 0, 0), (1, 1)) is False  # (7*3 pattern at 2)
    assert in_E_set((1, 1, 1), (0, 0, 0), (-1, 1)) is True


def test_in_E_set_validation():
    with pytest.raises(ValueError):
        in_E_set((2, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        in_E_set((1, 1, 1), (1, 1, 0))


def test_e_set_sizes():
    for nu, size in zip(ALL_NUS, (48, 32, 32, 32)):
        count = sum(
            1
            for e1 in UNIT_RESIDUES
            for e2 in UNIT_RESIDUES
            for e3 in UNIT_RESIDUES
            if in_E_set((e1, e2, e3), nu)
        )
        assert count == size, nu


def test_local_conditions_examples():
    assert satisfies_local_conditions(SignedSquarefreeTriple(1, 2, 7)) is True
    assert satisfies_local_conditions(SignedSquarefreeTriple(1, 2, 3)) is False
    assert satisfies_local_conditions(SignedSquarefreeTriple(1, -2, -3)) is False


def test_find_conic_point_examples():
    assert find_conic_point(2, 7, 5) == (3, 1, 1)
    for b in (1, -1, 2, 3, -5, 7):
        assert find_conic_point(1, b, 1) == (1, 1, 0)
    assert find_conic_point(2, 3, 100) is None  # insoluble at 3


def test_find_conic_point_soundness():
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 or b == 0:
                continue
            pt = find_conic_point(a, b, 30)
            if pt is None:
                continue
            x, y, z = pt
            assert x * x - a * y * y - b * z * z == 0
            assert gcd(gcd(x, y), z) == 1
            assert max(abs(x), abs(y), abs(z)) <= 30


def _find_conic_point_by_square_table(a, b, height):
    """Reference: the same search, looking each target up in a dict of every
    square up to height^2."""
    squares = {x * x: x for x in range(height + 1)}
    for z in range(height + 1):
        for y in range(height + 1):
            if y == 0 and z == 0:
                continue
            target = a * y * y + b * z * z
            if 0 <= target <= height * height:
                x = squares.get(target)
                if x is not None and gcd(gcd(x, y), z) == 1:
                    return (x, y, z)
    return None


def test_find_conic_point_matches_square_table_search():
    for height in (1, 2, 5, 17, 40):
        for a in range(-30, 31):
            for b in range(-30, 31):
                if a and b:
                    assert (find_conic_point(a, b, height)
                            == _find_conic_point_by_square_table(a, b, height)), (a, b, height)


def test_find_conic_point_holds_no_table_of_squares():
    tracemalloc.start()
    try:
        assert find_conic_point(1, 7, 100_000) == (1, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_witness_exists_for_soluble_triples():
    for triple in map(SignedSquarefreeTriple, *(c.tolist() for c in _valid_triples(6))):
        if satisfies_local_conditions(triple):
            a, b = triple.m1 * triple.m2, triple.m1 * triple.m3
            assert find_conic_point(a, b, 200) is not None, triple


def test_u_weight_examples():
    assert u_weight(1, 1, 1, (1, 1), (0, 0, 0)) == 1
    assert u_weight(3, 1, 1, (1, 1), (0, 0, 0)) == -1  # only (-1/3) survives
    assert u_weight(3, 3, 1, (1, 1), (0, 0, 0)) == 1


def test_u_weight_rejects_even():
    with pytest.raises(ValueError):
        u_weight(2, 1, 1, (1, 1), (0, 0, 0))


@settings(max_examples=300)
@given(st.tuples(*[st.integers(min_value=-5000, max_value=4999).map(lambda v: 2 * v + 1)] * 3))
def test_u_weight_mod_8_periodicity(ks):
    # the bucketed divisor sum in charsum reads u from a table mod 8
    for delta in ALL_DELTAS:
        for nu in ALL_NUS:
            reduced = tuple(k % 8 for k in ks)
            assert u_weight(*ks, delta, nu) == u_weight(*reduced, delta, nu), (ks, delta, nu)


@settings(max_examples=200)
@given(
    a=st.integers(min_value=-60, max_value=60).filter(lambda v: v != 0),
    b=st.integers(min_value=-60, max_value=60).filter(lambda v: v != 0),
)
def test_symbol_symmetric(a, b):
    for v in (REAL_PLACE, TWO_PLACE, Place(3), Place(7)):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
