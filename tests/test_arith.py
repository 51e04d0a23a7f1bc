import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime, primerange
from sympy.functions.combinatorial.numbers import kronecker_symbol, legendre_symbol

from d4census.arith import (
    _BYTES_PER_ENTRY,
    _PRIME_BYTES_PER_ENTRY,
    CapacityError,
    InvalidTripleError,
    SignedSquarefreeTriple,
    _legendre_rows,
    _spf_sieve,
    _squarefree_factors,
    _tables_from_spf,
    _valid_triples,
    build_sieve,
    decompose_triple,
    factor_small,
    kronecker,
    load_sieve_cache,
    primes_up_to,
    save_sieve_cache,
)


def brute_mu(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def brute_divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


TABLE_FIELDS = ("spf", "mu", "tau", "f_num", "f_den", "odd_sf_count")


def reference_tables(limit, spf):
    """The tables by the per-entry recurrence over n // spf[n]: the loop that
    _tables_from_spf replaced with one pass of slices per small prime."""
    n_range = np.arange(limit + 1, dtype=np.int64)
    mu = np.zeros(limit + 1, dtype=np.int8)
    tau = np.zeros(limit + 1, dtype=np.int64)
    f_num = np.zeros(limit + 1, dtype=np.int64)
    f_den = np.zeros(limit + 1, dtype=np.int64)
    exp_spf = np.zeros(limit + 1, dtype=np.int8)  # exponent of spf[n] in n
    mu[1] = tau[1] = f_num[1] = f_den[1] = exp_spf[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        if m % p == 0:
            mu[n] = 0
            exp_spf[n] = exp_spf[m] + 1
            tau[n] = tau[m] // (exp_spf[m] + 1) * (exp_spf[m] + 2)
            f_num[n] = f_num[m]
            f_den[n] = f_den[m]
        else:
            mu[n] = -mu[m]
            exp_spf[n] = 1
            tau[n] = 2 * tau[m]
            f_num[n] = f_num[m] * p
            f_den[n] = f_den[m] * (p + 1)
    g = np.gcd(f_num, f_den)
    g[0] = 1
    f_num //= g
    f_den //= g
    odd_sf_count = np.cumsum((mu != 0) & (n_range % 2 == 1), dtype=np.int64)
    return dict(spf=spf, mu=mu, tau=tau, f_num=f_num, f_den=f_den, odd_sf_count=odd_sf_count)


def assert_tables_equal(got, expected):
    for name in TABLE_FIELDS:
        a, b = getattr(got, name), expected[name]
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 9, 25, 137, 1000, 65536])
def test_tables_match_reference_loop(limit):
    spf = _spf_sieve(limit)
    assert_tables_equal(_tables_from_spf(limit, spf.copy()), reference_tables(limit, spf))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
def test_tables_match_reference_loop_random(limit):
    spf = _spf_sieve(limit)
    assert_tables_equal(build_sieve(limit), reference_tables(limit, spf))


def test_load_matches_build(tmp_path):
    built = build_sieve(100_003)
    path = tmp_path / "sieve.bin"
    save_sieve_cache(built, path)
    loaded = load_sieve_cache(path)
    assert loaded.limit == built.limit
    assert_tables_equal(loaded, {name: getattr(built, name) for name in TABLE_FIELDS})


def _f(t, n):
    """f(n) = f_num[n] / f_den[n] as an exact fraction."""
    return Fraction(int(t.f_num[n]), int(t.f_den[n]))


def test_sieve_trivial_limit():
    t = build_sieve(1)
    assert t.mu[1] == 1 and t.tau[1] == 1 and _f(t, 1) == 1


def test_sieve_examples():
    t = build_sieve(12)
    assert t.mu[12] == 0
    assert t.mu[10] == 1
    assert _f(t, 10) == Fraction(5, 9)  # (2/3)(5/6)
    t7 = build_sieve(7)
    assert t7.tau[6] == 4  # divisors 1, 2, 3, 6
    assert _f(t7, 6) == Fraction(1, 2)


def test_sieve_invariants():
    t = build_sieve(500)
    for n in range(2, 501):
        p = int(t.spf[n])
        assert n % p == 0
        assert all(n % q != 0 for q in range(2, p))
        assert t.mu[n] == brute_mu(n)
    assert t.spf[1] == 1
    for p in (2, 3, 5, 97, 499):
        assert t.mu[p] == -1


def test_tau_handles_general_arguments():
    t = build_sieve(200)
    for n in range(1, 201):
        assert t.tau[n] == brute_divisor_count(n)


def test_f_is_exact_product_over_primes():
    t = build_sieve(300)
    for n in range(1, 301):
        if t.mu[n] == 0:
            continue
        expected = Fraction(1)
        for p in factor_small(n):
            expected *= Fraction(p, p + 1)
        assert _f(t, n) == expected
        assert gcd(int(t.f_num[n]), int(t.f_den[n])) == 1


def test_prime_columns_match_factor_small():
    t = build_sieve(3000)
    values = np.flatnonzero(t.mu)  # every squarefree n <= 3000, 1 first
    columns = t.prime_columns(values)
    assert columns.dtype == np.int32 and columns.shape[0] == len(values)
    assert not columns[0].any()
    for n, row in zip(values.tolist(), columns.tolist()):
        primes = [p for p in row if p]
        assert primes == sorted(primes) and row[len(primes):] == [0] * (len(row) - len(primes))
        assert tuple(primes) == factor_small(n)
    assert t.prime_columns(np.ones(4, dtype=np.int64)).shape == (4, 0)
    assert t.prime_columns(np.zeros(0, dtype=np.int64)).shape == (0, 0)


def test_odd_squarefree_prefix_counts():
    t = build_sieve(200)
    for bound in (0, 1, 2, 17, 200):
        expected = sum(
            1 for n in range(1, bound + 1) if n % 2 == 1 and brute_mu(n) != 0
        )
        assert int(t.odd_sf_count[bound]) == expected
    got = t.odd_squarefree_upto(30)
    assert got == [1, 3, 5, 7, 11, 13, 15, 17, 19, 21, 23, 29]
    for bound in (-7, -1, 0, 0.5, 1, 2, 3, 30.9, 199, 200, 200.9):
        got = t.odd_squarefree_upto(bound)
        assert got == [n for n in range(1, int(bound) + 1, 2) if t.mu[n] != 0], bound
        assert all(type(n) is int for n in got)
    # past the table it refuses rather than stop at its end
    for bound in (201, 10**6):
        with pytest.raises(CapacityError, match=f"sieve limit 200 < required {bound}"):
            t.odd_squarefree_upto(bound)


def test_count_odd_squarefree_coprime_brute():
    t = build_sieve(200)
    for primes in [(), (3,), (3, 5), (7, 11), (3, 5, 7)]:
        m = 1
        for p in primes:
            m *= p
        for bound in (0, 1, 10, 57, 200):
            expected = sum(
                1 for n in range(1, bound + 1)
                if n % 2 == 1 and brute_mu(n) != 0 and gcd(n, m) == 1
            )
            assert t.count_odd_squarefree_coprime(bound, primes) == expected


def test_odd_squarefree_count_above_table_every_y():
    # the closed form reads mu up to sqrt(y); the full table counts directly
    small, full = build_sieve(30), build_sieve(30 * 30)
    for y in range(31, 30 * 30 + 1):
        assert small.count_odd_squarefree_coprime(y, ()) == int(full.odd_sf_count[y]), y


def test_odd_squarefree_count_above_table_random_y():
    small, full = build_sieve(1000), build_sieve(10**6)
    rng = np.random.default_rng(9)
    for y in [*rng.integers(1001, 10**6, size=200).tolist(), 1001, 10**6]:
        assert small.count_odd_squarefree_coprime(y, ()) == int(full.odd_sf_count[y]), y
        assert small.count_odd_squarefree_coprime(float(y) + 0.5, ()) == int(full.odd_sf_count[y])


@pytest.fixture(scope="module")
def tables_200k():
    return build_sieve(200_000)


ODD_PRIMES_TO_500 = primes_up_to(500)[1:].tolist()


@settings(max_examples=150, deadline=None)
@given(y=st.integers(1, 200_000),
       primes=st.lists(st.sampled_from(ODD_PRIMES_TO_500), max_size=6, unique=True))
def test_coprime_count_on_sqrt_table_matches_full_table(tables_200k, y, primes):
    small = build_sieve(isqrt(y))
    primes = tuple(primes)
    assert (small.count_odd_squarefree_coprime(y, primes)
            == tables_200k.count_odd_squarefree_coprime(y, primes))


def test_coprime_count_needs_table_up_to_sqrt_bound():
    t = build_sieve(30)
    assert t.count_odd_squarefree_coprime(31 * 31 - 1, (3, 5)) > 0
    for bound in (31 * 31, 31 * 31 + 0.5, 10**6):
        for primes in ((), (3, 5)):
            with pytest.raises(CapacityError):
                t.count_odd_squarefree_coprime(bound, primes)


def test_divisible_counts_brute():
    t = build_sieve(300)
    odd_sf = [n for n in range(1, 301) if n % 2 == 1 and brute_mu(n) != 0]
    for y in (0, 1, 2, 3, 8, 9, 10, 99, 100, 101, 299, 300):
        got = t._divisible_counts(y).tolist()
        assert got == [0] + [sum(1 for n in odd_sf if n <= y and n % d == 0)
                             for d in range(1, y + 2)], y


ROWS_LIMIT = 3000
ODD_PRIMES_TO_3X_LIMIT = primes_up_to(3 * ROWS_LIMIT)[1:].tolist()


@pytest.fixture(scope="module")
def tables_rows():
    return build_sieve(ROWS_LIMIT)


@settings(max_examples=200, deadline=None)
@given(y=st.one_of(st.sampled_from([0, 1, ROWS_LIMIT, ROWS_LIMIT + 1, ROWS_LIMIT**2]),
                   st.integers(0, ROWS_LIMIT), st.floats(0, ROWS_LIMIT + 0.99),
                   st.integers(ROWS_LIMIT + 1, ROWS_LIMIT**2),
                   st.floats(ROWS_LIMIT + 1, ROWS_LIMIT**2)),
       rows=st.lists(st.lists(st.one_of(st.sampled_from(ODD_PRIMES_TO_3X_LIMIT[:12]),
                                        st.sampled_from(ODD_PRIMES_TO_3X_LIMIT)),
                              max_size=7, unique=True),
                     min_size=1, max_size=12))
def test_coprime_count_rows_match_recursion(tables_rows, y, rows):
    # the batch counter against the memoised recursion, row by row: the
    # empty set, primes above y and up to 7 odd primes in any order, with y
    # within the table (the divisor sum) and above it up to its square
    width = max(map(len, rows))
    padded = np.array([row + [0] * (width - len(row)) for row in rows],
                      dtype=np.int64).reshape(len(rows), width)
    got = tables_rows.count_odd_squarefree_coprime_rows(y, padded)
    assert got.dtype == np.int64
    assert got.tolist() == [tables_rows.count_odd_squarefree_coprime(y, tuple(row))
                            for row in rows]


def test_coprime_count_rows_need_bound_within_table():
    # the rows take every bound the scalar counter takes: up to the table's square
    t = build_sieve(30)
    assert t.count_odd_squarefree_coprime_rows(30.5, np.array([[3, 5]])).tolist() == [8]
    assert t.count_odd_squarefree_coprime_rows(30, np.zeros((0, 2), dtype=np.int64)).size == 0
    assert (t.count_odd_squarefree_coprime_rows(31, np.array([[3, 5]])).tolist()
            == [t.count_odd_squarefree_coprime(31, (3, 5))])
    with pytest.raises(CapacityError):
        t.count_odd_squarefree_coprime_rows(31 * 31, np.array([[3, 5]]))


def test_sieve_capacity_error():
    # the estimate (6.8e9 bytes) exceeds the 2 GiB budget before any allocation
    with pytest.raises(CapacityError):
        build_sieve(10**8)


def test_sieve_peak_memory_within_capacity_estimate(tmp_path):
    # the peak is linear in the limit (42 bytes per entry plus ~3 kB, both
    # when building and when loading a cache), so a small limit checks the
    # per-entry charge on both paths
    limit = 10_000
    cache = tmp_path / "sieve.bin"
    save_sieve_cache(build_sieve(limit), cache)
    for make in (lambda: build_sieve(limit), lambda: load_sieve_cache(cache)):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * _BYTES_PER_ENTRY


def test_prime_table_peak_memory_within_capacity_estimate():
    # with the float64 copy the Euler products take; the bytes per entry fall
    # as n grows, so the charge holds for every n from here up
    n = 100_000
    tracemalloc.start()
    try:
        primes_up_to(n).astype(np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * _PRIME_BYTES_PER_ENTRY


def test_squarefree_factors_brute():
    for n in range(-300, 301):
        expected = factor_small(n) if n != 0 and brute_mu(abs(n)) != 0 else None
        assert _squarefree_factors(n) == expected, n


def test_primes_up_to():
    assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(1)) == 0
    for n in [*range(-2, 300), 99_991, 100_000]:
        primes = primes_up_to(n)
        assert primes.dtype == np.int64
        assert primes.tolist() == list(primerange(n + 1)), n


# --- Kronecker symbol ------------------------------------------------------


def test_kronecker_examples():
    for a in (-7, -1, 0, 1, 2, 10):
        assert kronecker(a, 1) == 1
    assert kronecker(2, 7) == 1   # squares mod 7: {1, 2, 4}
    assert kronecker(3, 5) == -1  # squares mod 5: {1, 4}
    assert kronecker(6, 3) == 0
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1 and kronecker(5, 0) == 0


def test_kronecker_matches_euler_criterion():
    for p in primes_up_to(60):
        p = int(p)
        if p == 2:
            continue
        for a in range(0, 60):
            expected = pow(a, (p - 1) // 2, p)
            expected = -1 if expected == p - 1 else expected
            assert kronecker(a, p) == expected, (a, p)



def test_legendre_rows_equal_the_scalar_symbol():
    primes = primes_up_to(500)[1:]
    a = np.arange(-600, 1200, dtype=np.int64)
    for p in primes.tolist():
        got = _legendre_rows(a, p)
        assert got.dtype == np.int8
        assert got.tolist() == [kronecker(x, p) for x in a.tolist()], p
    # a column of primes, one per value, with 1 for a pad
    p = np.resize(np.append(primes, 1), len(a))
    want = [kronecker(x, q) for x, q in zip(a.tolist(), p.tolist())]
    assert _legendre_rows(a, p).tolist() == want


@settings(max_examples=200)
@given(n=st.integers(min_value=2, max_value=10**12 - 100),
       a=st.integers(min_value=-10**13, max_value=10**13))
def test_legendre_matches_sympy_up_to_1e12(n, a):
    # classify accepts primes up to 10^12; the largest below it is 999999999989
    p = int(nextprime(n))
    assert p < 10**12
    assert kronecker(a, p) == legendre_symbol(a % p, p)

def test_quadratic_reciprocity_exhaustive():
    for m in range(1, 201, 2):
        for n in range(1, 201, 2):
            if gcd(m, n) != 1:
                continue
            sign = (-1) ** (((m - 1) // 2) * ((n - 1) // 2))
            assert kronecker(m, n) * kronecker(n, m) == sign


def test_kronecker_two_depends_on_mod_8():
    for n in range(1, 1001, 2):
        assert kronecker(2, n) == (-1) ** ((n * n - 1) // 8)


@given(
    a=st.integers(min_value=-300, max_value=300),
    b=st.integers(min_value=-300, max_value=300),
    n=st.integers(min_value=1, max_value=300),
)
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(
    a=st.integers(min_value=-300, max_value=300),
    m=st.integers(min_value=1, max_value=120),
    n=st.integers(min_value=1, max_value=120),
)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(a=st.integers(), n=st.integers())
def test_kronecker_matches_sympy(a, n):
    assert kronecker(a, n) == kronecker_symbol(a, n)


# --- triple decomposition ---------------------------------------------------


def test_decompose_examples():
    d = decompose_triple(SignedSquarefreeTriple(1, 2, 7))
    assert (d.m1p, d.m2p, d.m3p) == (1, 1, 7)
    assert d.delta == (1, 1)
    assert d.nu == (0, 1, 0)
    assert d.eps == (1, 1, 7)

    d = decompose_triple(SignedSquarefreeTriple(2, 1, -1))
    assert (d.m1p, d.m2p, d.m3p) == (1, 1, 1)
    assert d.delta == (1, -1)
    assert d.nu == (1, 0, 0)
    assert d.eps == (1, 1, 1)

    d = decompose_triple(SignedSquarefreeTriple(15, -2, 7))
    assert (d.m1p, d.m2p, d.m3p) == (15, 1, 7)
    assert d.delta == (-1, 1)
    assert d.nu == (0, 1, 0)
    assert d.eps == (7, 1, 7)  # 15 mod 8 = 7


@pytest.mark.parametrize(
    "bad",
    [(4, 1, 1), (1, 9, 1), (1, 1, -18), (3, 3, 1), (2, 6, 1), (1, 2, 4), (5, 10, 1)],
)
def test_decompose_rejects_invalid(bad):
    with pytest.raises(InvalidTripleError):
        decompose_triple(SignedSquarefreeTriple(*bad))


def test_decompose_requires_positive_m1():
    with pytest.raises(InvalidTripleError):
        decompose_triple(SignedSquarefreeTriple(-1, 2, 7))


@pytest.mark.parametrize("bad, message", [
    ((0, 3, 5), "need m1 > 0 and m2, m3 nonzero"),
    ((3, 0, 5), "need m1 > 0 and m2, m3 nonzero"),
    ((4, 6, 1), "4 is not squarefree"),  # squarefreeness before coprimality
    ((3, -18, 5), "-18 is not squarefree"),
    ((3, 5, 6), "entries 1,3 share a factor"),
    ((1, 10, -15), "entries 2,3 share a factor"),
])
def test_decompose_names_the_first_failure(bad, message):
    triple = SignedSquarefreeTriple(*bad)
    with pytest.raises(InvalidTripleError) as err:
        decompose_triple(triple)
    assert str(err.value) == f"{triple}: {message}"


def reference_valid_triples(bound):
    """The nested-loop generator _valid_triples replaced, kept as the
    reference for its order: m1 increasing, m2 and m3 through 1, -1, 2, ..."""
    sf = [n for n in range(1, bound + 1) if _squarefree_factors(n) is not None]
    signed = [s * n for n in sf for s in (1, -1)]
    for m1 in sf:
        for m2 in signed:
            if gcd(m1, m2) != 1:
                continue
            for m3 in signed:
                if gcd(m1, m3) != 1 or gcd(m2, m3) != 1:
                    continue
                yield (m1, m2, m3)


@pytest.mark.parametrize("bound", range(31))
def test_valid_triples_match_the_nested_loops(bound):
    columns = _valid_triples(bound)
    assert all(c.dtype == np.int64 for c in columns)
    assert list(zip(*(c.tolist() for c in columns))) == list(reference_valid_triples(bound))


def test_decompose_keeps_the_odd_primes():
    count = 0
    for triple in map(SignedSquarefreeTriple, *(c.tolist() for c in _valid_triples(12))):
        expected = tuple(tuple(p for p in factor_small(m) if p != 2)
                         for m in triple.as_tuple())
        assert decompose_triple(triple).primes == expected, triple
        count += 1
    assert count == 856


def _squarefree(n):
    n = abs(n)
    return n > 0 and all(n % (d * d) for d in range(2, isqrt(n) + 1))


@settings(max_examples=300)
@given(
    m1=st.integers(min_value=1, max_value=200),
    m2=st.integers(min_value=-200, max_value=200),
    m3=st.integers(min_value=-200, max_value=200),
)
def test_decompose_roundtrip(m1, m2, m3):
    if not (m2 and m3 and _squarefree(m1) and _squarefree(m2) and _squarefree(m3)):
        return
    if gcd(m1, m2) != 1 or gcd(m1, m3) != 1 or gcd(m2, m3) != 1:
        return
    triple = SignedSquarefreeTriple(m1, m2, m3)
    dec = decompose_triple(triple)
    assert sum(dec.nu) <= 1
    assert dec.reconstruct() == triple
    for e, mp in zip(dec.eps, (dec.m1p, dec.m2p, dec.m3p)):
        assert e % 2 == 1 and e == mp % 8


# --- sieve cache ------------------------------------------------------------


def test_sieve_cache_roundtrip(tmp_path):
    t = build_sieve(137)
    path = tmp_path / "sieve.bin"
    save_sieve_cache(t, path)
    save_sieve_cache(t, path)  # replaces the file in place
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.bin"]
    loaded = load_sieve_cache(path)
    assert loaded.limit == t.limit
    for name in ("spf", "mu", "tau", "f_num", "f_den", "odd_sf_count"):
        assert np.array_equal(getattr(loaded, name), getattr(t, name)), name


def test_sieve_cache_rejects_corrupt_payload(tmp_path):
    t = build_sieve(50)
    path = tmp_path / "c.bin"
    save_sieve_cache(t, path)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0x04
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_sieve_cache(path)


def test_sieve_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        load_sieve_cache(path)


def test_sieve_cache_rejects_bad_version(tmp_path):
    t = build_sieve(10)
    path = tmp_path / "v.bin"
    save_sieve_cache(t, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_sieve_cache(path)


def test_sieve_cache_rejects_truncation(tmp_path):
    t = build_sieve(50)
    path = tmp_path / "t.bin"
    save_sieve_cache(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_sieve_cache(path)
