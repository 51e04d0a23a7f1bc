import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from d4census import asymptotic, cli
from d4census.arith import primes_up_to
from d4census.asymptotic import (
    _EULER_BLOCK,
    CONSTANTS,
    EulerProductSpec,
    _exact_sum,
    _primes,
    c_base,
    c_constant,
    c_tilde,
    constant_identity,
    dyadic_hom_count,
    leading_constant,
    lemma432_sums,
    per_prime_identity_fractions,
    predicted_count,
    tamagawa_constant,
    twist_main_term,
)
from d4census.census import BoundBox
from d4census.localsolve import ALL_DELTAS, ALL_NUS

SPEC = EulerProductSpec(pmax=10_000)


def test_spec_validation():
    with pytest.raises(ValueError):
        EulerProductSpec(pmax=2)


def test_c_prefactor_ratios_exact():
    c1 = c_constant(1, SPEC)
    c2 = c_constant(2, SPEC)
    c6 = c_constant(6, SPEC)
    assert c1.prefactor == 1
    assert c2.prefactor / c1.prefactor == Fraction(3, 4)
    assert c6.prefactor / c1.prefactor == Fraction(3, 5)  # (3/4)(4/5)
    # shared base product, so the value ratios inherit the exact prefactors
    assert c2.base == c1.base


def test_c_constant_preconditions():
    with pytest.raises(ValueError):
        c_constant(4, SPEC)
    with pytest.raises(ValueError):
        c_constant(10_007 * 3, SPEC)  # prime factor beyond pmax


def test_c_base_cauchy_property():
    small = c_base(EulerProductSpec(pmax=5_000))
    large = c_base(EulerProductSpec(pmax=10_000))
    assert abs(math.log(large.value) - math.log(small.value)) < small.tail_bound
    assert large.tail_bound < small.tail_bound


def test_c_tilde_matches_definition_split():
    ct = c_tilde(SPEC)
    odd = math.fsum(
        math.log(1 - 3 / (p + 2) ** 2 + 2 / (p + 2) ** 3) for p in map(int, primes_up_to(10_000)[1:])
    )
    recomputed = (3 / 16) ** 3 * c_base(SPEC).value ** 3 * math.exp(odd)
    assert ct.value == pytest.approx(recomputed, rel=1e-12)
    assert 0 < ct.value < 1


def test_c_tilde_truncation_stability():
    a = c_tilde(EulerProductSpec(pmax=100_000))
    b = c_tilde(EulerProductSpec(pmax=1_000_000))
    # successive truncations stay within the reported log-tail bound
    assert abs(a.value - b.value) <= a.value * a.tail_bound
    assert abs(a.value - b.value) < 1e-8


def test_c_tilde_partial_products_decreasing():
    values = [c_tilde(EulerProductSpec(pmax=p)).value for p in (10, 100, 1000, 10_000)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))  # all factors in (0, 1)


def test_leading_constant_prefactor_split():
    lead = leading_constant(SPEC)
    bare = math.fsum(
        math.log((1 - 1 / p) ** 4 * (1 + 4 / p)) for p in map(int, primes_up_to(10_000)[1:])
    )
    assert lead.value / float(Fraction(27, 8)) == pytest.approx(math.exp(bare), rel=1e-12)


def test_leading_factors_below_one_from_five():
    for p in map(int, primes_up_to(300)):
        if p < 5:
            continue
        assert (1 - 1 / p) ** 4 * (1 + 4 / p) < 1


def test_leading_constant_cauchy_property():
    small = leading_constant(EulerProductSpec(pmax=5_000))
    large = leading_constant(EulerProductSpec(pmax=10_000))
    assert abs(math.log(large.value) - math.log(small.value)) < small.tail_bound
    assert large.tail_bound < small.tail_bound


def test_constant_identity_residual():
    residual = constant_identity(SPEC)
    assert residual < 1e-6
    assert constant_identity(EulerProductSpec(pmax=20_000)) <= residual + 1e-12


def test_per_prime_identity_exact():
    for p in map(int, primes_up_to(100)):
        if p == 2:
            continue
        lhs, rhs = per_prime_identity_fractions(p)
        assert lhs == rhs, p


def test_class_sums_both_432():
    sums = lemma432_sums()
    assert sums.weight_at_one == 432
    assert sums.weighted == 432


def test_class_tally():
    sums = lemma432_sums()
    for delta in ALL_DELTAS:
        assert tuple(sums.tally[(delta, nu)] for nu in ALL_NUS) == CONSTANTS["class_tally"]
    assert sum(sums.tally.values()) == 3 * (48 + 32 + 32 + 32) == 432


def test_dyadic_hom_count_exact():
    assert dyadic_hom_count() == 36
    # 1 + 5*7 + 12*7 + 2*12 + 8*18 homomorphism classes over 8
    assert dyadic_hom_count() == Fraction(1 + 5 * 7 + 12 * 7 + 2 * 12 + 8 * 18, 8)


def test_tamagawa_rational_head():
    report = tamagawa_constant(SPEC)
    parts = report.parts
    assert parts.rational_prefactor() == Fraction(27, 8)
    assert parts.group_order * parts.alpha_star * parts.tau_infty * parts.tau_two == Fraction(27, 8)
    assert parts.tau_two == Fraction(9, 4)
    assert report.tau2_etale == 36


def test_tamagawa_product_matches_leading():
    report = tamagawa_constant(EulerProductSpec(pmax=100_000))
    assert report.difference < 1e-8


def test_predicted_count_scaling():
    lead = leading_constant(SPEC).value
    assert predicted_count(BoundBox(1, 1, 1, 1), SPEC) == pytest.approx(lead)
    one = predicted_count(BoundBox(3, 4, 5, 6), SPEC)
    assert predicted_count(BoundBox(3, 4, 5, 12), SPEC) == pytest.approx(2 * one)
    assert predicted_count(BoundBox(3, 0, 5, 6), SPEC) == 0


def test_twist_main_term_values():
    # 0.5 * prod_{p>2}(1 - 1/p^2) = 4 / pi^2
    assert twist_main_term(1, 100) == pytest.approx(400 / math.pi**2)
    assert twist_main_term(3, 100) == pytest.approx((3 / 4) * 400 / math.pi**2)


# --- exact sums and blocked Euler products ----------------------------------

B = _EULER_BLOCK


def _spread_values(n, seed, cancel):
    """n floats of both signs, from 1e-300 to 1e300, every fifth subnormal;
    with cancel, a third of them are the negations of others."""
    rng = np.random.default_rng(seed)
    m = n - n // 3 if cancel else n
    x = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-300, 300, m)
    x[::5] = rng.choice([-1.0, 1.0], x[::5].size) * rng.integers(1, 1 << 52, x[::5].size) * 5e-324
    if cancel:
        x = rng.permutation(np.concatenate([x, -x[: n // 3]]))
    assert x.size == n
    return x


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("cancel", [False, True])
def test_exact_sum_equals_fsum(n, cancel):
    for seed in range(3):
        x = _spread_values(n, seed, cancel)
        expected = math.fsum(x)
        assert _exact_sum(x[s : s + B] for s in range(0, n, B)) == expected
        assert _exact_sum([x[::-1]]) == expected
        assert _exact_sum(x[s : s + 1000] for s in range(0, n, 1000)) == expected


def test_exact_sum_of_subnormals_and_zeros():
    tiny = np.array([5e-324, -5e-324, 2.5e-323, 0.0, -0.0, 1e-310, -3e-310])
    assert _exact_sum([tiny]) == math.fsum(tiny)
    assert _exact_sum([np.zeros(5)]) == 0.0
    assert _exact_sum([]) == 0.0


def _fsum_product(factors):
    # the full-array evaluation the blocked products replace
    return math.exp(math.fsum(np.log(factors)[::-1]))


@pytest.mark.parametrize("pmax", [10**3, 10**5, 10**6])
def test_blocked_products_equal_full_array_fsum(pmax):
    spec = EulerProductSpec(pmax=pmax)
    p = primes_up_to(pmax).astype(np.float64)
    odd = p[1:]
    base = _fsum_product(1.0 - 2.0 / (p * (p + 1.0)))
    q = odd + 2.0
    ct = (3.0 / 16.0) ** 3 * base**3 * _fsum_product(1.0 - 3.0 / (q * q) + 2.0 / (q * q * q))
    lead = 27 / 8 * _fsum_product(1.0 - 10.0 / odd**2 + 20.0 / odd**3 - 15.0 / odd**4
                                  + 4.0 / odd**5)
    zeta = _fsum_product(1.0 - 1.0 / (odd * odd))
    tam = 27 / 8 * _fsum_product((1.0 - 1.0 / odd) ** 4 * (1.0 + 4.0 / odd))
    assert c_base(spec).value == base
    assert c_tilde(spec).value == ct
    assert leading_constant(spec).value == lead
    assert constant_identity(spec) == abs(1728.0 * ct * zeta - lead)
    report = tamagawa_constant(spec)
    assert (report.product, report.difference) == (tam, abs(tam - lead))


def test_euler_products_stay_below_one_prime_table():
    # with the table cached, a product allocates a block at a time (1.7 MB of
    # 2^15-prime temporaries at peak), never a full-length float64 array
    spec = EulerProductSpec(pmax=10**7)
    table_bytes = _primes(spec.pmax).nbytes
    assert table_bytes > 5_000_000
    for product in (c_base.__wrapped__, c_tilde.__wrapped__, leading_constant.__wrapped__,
                    constant_identity, tamagawa_constant):
        tracemalloc.start()
        try:
            product(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2, product


def _clear_euler_caches():
    for cached in (_primes, c_base, c_tilde, leading_constant):
        cached.cache_clear()


def test_another_pmax_frees_the_last_prime_table(capsys):
    # only _primes' own cache holds a table: after the constants at pmax 10^7,
    # a product at the default pmax sieves its own table and the 5.3 MB one
    # of 10^7 is freed
    _clear_euler_caches()
    assert cli.main(["constants", "--pmax", "10000000"]) == 0
    capsys.readouterr()
    large = weakref.ref(_primes(10**7))  # the cached table, no new sieve
    assert len(large()) == 664_579 and not large().flags.writeable
    c_constant(1, EulerProductSpec())
    assert large() is None
    assert np.array_equal(_primes(10**5), primes_up_to(10**5).astype(np.float64))


def test_constants_command_sieves_once(monkeypatch, capsys):
    # every product of the constants command reads the one table of its pmax;
    # the constants suite also takes the identity at pmax // 2, whose table
    # takes the place of the first
    calls = []

    def counting(n):
        calls.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(asymptotic, "primes_up_to", counting)
    _clear_euler_caches()
    assert cli.main(["constants", "--pmax", "54321"]) == 0
    assert calls == [54321]
    _clear_euler_caches()
    calls.clear()
    assert cli.main(["verify", "--suite", "constants", "--pmax", "54321"]) == 0
    assert calls == [54321, 27160]
    capsys.readouterr()


def test_nonpositive_factor_is_rejected():
    with pytest.raises(ValueError, match="positive"):
        asymptotic._product_over(lambda p: 1.0 - 4.0 / p, _primes(100)[1:], 1.0, 100)
