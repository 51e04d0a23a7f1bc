"""Closed-form constants of the main count and their consistency checks.

The expected number of pairs in a box (X1, X2, X3, X4) is

    (27/8) * prod_{p>2} (1 - 1/p)^4 (1 + 4/p) * X1*X2*X3*X4.

That single number admits two independent decompositions, both computed
here and judged against each other only by the verify suites `constants`
and `tamagawa`:

  * the character-sum route: leading constant = 1728 * c_tilde *
    prod_{p>2}(1 - 1/p^2), with c(r) and c_tilde the Euler products coming out
    of the weighted squarefree character sums (the identity holds factor by
    factor, see per_prime_identity_fractions);
  * the Tamagawa route: |group| * alpha* * tau_infty * tau_2 * prod tau_p with
    alpha* = 1/4, tau_infty = 3/4, and tau_2 = 9/4 from an explicit count of
    36 dyadic homomorphism classes times the convergence factor (1/2)^4.

Euler products are evaluated as exponentials of summed logarithms, the sum
correctly rounded, in blocks; each truncation reports a log-scale tail bound
obtained from |log(1 + x)| <= 2|x| (valid for |x| <= 1/2) and
sum_{p > P} p^(-2) < 1/P.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import _squarefree_factors, factor_small, primes_up_to
from .localsolve import CHOICES, admissible_classes, u_weight

# The fixed rational data of the leading constant, collected in one place so
# every consumer reads the same values.
CONSTANTS = {
    # normalized effective cone constant for rectangular-box counting
    "cone_alpha_star": Fraction(1, 4),
    # real-place density: 6 of the 8 group elements square to the identity
    "tau_real": Fraction(3, 4),
    "group_order": 8,
    # total of the admissible sign/residue class sums, both weightings
    "class_sum": 432,
    # admissible residue-class sizes by 2-part pattern (none, then each slot)
    "class_tally": (48, 32, 32, 32),
    # weighted count of dyadic homomorphism classes
    "dyadic_hom_count": 36,
    "leading_prefactor": Fraction(27, 8),
}

# Weighted census of continuous homomorphisms from the absolute dyadic Galois
# group: rows are (image label, centralizer size k, embedding count j, number
# of matching dyadic etale algebras); each algebra contributes j/k classes.
DYADIC_ETALE_TABLE = (
    ("trivial", 40320, 40320, 1),
    ("quadratic", 384, 1920, 7),
    ("klein_quartic", 32, 384, 7),
    ("cyclic_quartic", 32, 64, 12),
    ("dihedral_octic", 8, 64, 18),
)


@dataclass(frozen=True)
class EulerProductSpec:
    """Truncation policy for Euler products: all primes p <= pmax."""

    pmax: int = 100_000

    def __post_init__(self):
        if self.pmax < 3:
            raise ValueError("pmax must be at least 3")


class EulerValue(NamedTuple):
    """A truncated Euler product with a bound on the missing log-tail."""

    value: float
    tail_bound: float


# Primes per block of an Euler product: its temporaries are a few arrays of
# this length, never one as long as the prime table.
_EULER_BLOCK = 1 << 15
# np.frexp splits a finite float64 into m * 2^e with 2^53 m an integer and
# e >= -1073, so 2^(53 + 1073) times any float64 is an integer.
_SUM_SHIFT = 53 + 1073
# the integer mantissas are summed as two halves below 2^27 in magnitude, so
# no int64 group sum over a block of fewer than 2^36 values can overflow
_HALF_BITS = 26


def _exact_sum(blocks: Iterable[np.ndarray]) -> float:
    """The sum of every float64 in the blocks, correctly rounded.

    Each value is an integer mantissa times a power of two; the mantissas are
    grouped by exponent, summed in int64 halves, and added into one Python int
    scaled by 2^_SUM_SHIFT.  One int division rounds the total, so the result
    equals math.fsum of the values in any order and any blocking.
    """
    total = 0
    for values in blocks:
        mant, exp = np.frexp(values)
        mant *= 2.0**53
        ints = mant.astype(np.int64)
        del mant
        # a product's logs are monotone in p, and the stable sort is near-linear
        # on their already ordered exponents
        order = np.argsort(exp, kind="stable")
        exp = exp[order]
        ints = ints[order]
        del order
        starts = np.flatnonzero(np.diff(exp, prepend=exp[:1] - 1))
        high = np.add.reduceat(ints >> _HALF_BITS, starts).tolist()
        low = np.add.reduceat(ints & ((1 << _HALF_BITS) - 1), starts).tolist()
        for h, lo, e in zip(high, low, exp[starts].tolist()):
            total += ((h << _HALF_BITS) + lo) << (e - 53 + _SUM_SHIFT)
    return total / (1 << _SUM_SHIFT)


def _product_over(factor: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                  dev_coeff: float, pmax: int) -> EulerValue:
    """prod factor(p) over the primes p, as exp of the exactly summed logs.

    The factors are evaluated and logged one block of primes at a time.
    """
    def logs():
        for start in range(0, len(p), _EULER_BLOCK):
            factors = factor(p[start : start + _EULER_BLOCK])
            if np.any(factors <= 0):
                raise ValueError("Euler factors must be positive")
            yield np.log(factors, out=factors)

    return EulerValue(math.exp(_exact_sum(logs())), 2.0 * dev_coeff / pmax)


@lru_cache(maxsize=1)
def _primes(pmax: int) -> np.ndarray:
    """The primes <= pmax as a read-only float64 table, shared by the Euler
    products.  Only the last table asked for is kept, so asking for another
    pmax frees the one before."""
    table = primes_up_to(pmax).astype(np.float64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def c_base(spec: EulerProductSpec) -> EulerValue:
    """c(1) = prod_p (1 - 2/(p(p+1))), truncated at pmax."""
    return _product_over(lambda p: 1.0 - 2.0 / (p * (p + 1.0)), _primes(spec.pmax), 2.0, spec.pmax)


@dataclass(frozen=True)
class CConstant:
    """c(r): an exact rational prefactor over p | r times the base product."""

    r: int
    prefactor: Fraction
    base: EulerValue

    @property
    def value(self) -> float:
        return float(self.prefactor) * self.base.value

    @property
    def tail_bound(self) -> float:
        return self.base.tail_bound


def c_constant(r: int, spec: EulerProductSpec) -> CConstant:
    """c(r) = prod_{p|r} (p+1)/(p+2) * prod_p (1 - 2/(p(p+1)))."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    primes = _squarefree_factors(r)
    if primes is None:
        raise ValueError(f"c(r) is used for squarefree r only, got {r}")
    if primes and max(primes) > spec.pmax:
        raise ValueError(f"pmax {spec.pmax} below largest prime factor of {r}")
    pre = Fraction(1)
    for p in primes:
        pre *= Fraction(p + 1, p + 2)
    return CConstant(r=r, prefactor=pre, base=c_base(spec))


@lru_cache(maxsize=32)
def c_tilde(spec: EulerProductSpec) -> EulerValue:
    """(3/16)^3 * c(1)^3 * prod_{p>2} (1 - 3/(p+2)^2 + 2/(p+2)^3)."""
    c1 = c_base(spec)

    def factor(p):
        q = p + 2.0
        return 1.0 - 3.0 / (q * q) + 2.0 / (q * q * q)

    odd = _product_over(factor, _primes(spec.pmax)[1:], 3.0, spec.pmax)  # the odd primes
    value = (3.0 / 16.0) ** 3 * c1.value**3 * odd.value
    return EulerValue(value, 3.0 * c1.tail_bound + odd.tail_bound)


@lru_cache(maxsize=32)
def leading_constant(spec: EulerProductSpec) -> EulerValue:
    """(27/8) * prod_{p>2} (1 - 1/p)^4 (1 + 4/p), truncated at pmax.

    Factors are evaluated in the expanded form 1 - 10/p^2 + 20/p^3 - 15/p^4
    + 4/p^5 (identical algebraically; a different rounding path than the
    Tamagawa product, which makes the cross-check meaningful).
    """
    bare = _product_over(lambda p: 1.0 - 10.0 / p**2 + 20.0 / p**3 - 15.0 / p**4 + 4.0 / p**5,
                         _primes(spec.pmax)[1:], 10.0, spec.pmax)  # the odd primes
    return EulerValue(float(CONSTANTS["leading_prefactor"]) * bare.value, bare.tail_bound)


def constant_identity(spec: EulerProductSpec) -> float:
    """The residual |1728 * c_tilde * prod_{p>2}(1 - 1/p^2) - leading
    constant| at one truncation.

    The two sides agree factor by factor, so the residual measures rounding
    only.
    """
    zeta_part = _product_over(lambda p: 1.0 - 1.0 / (p * p), _primes(spec.pmax)[1:], 1.0,
                              spec.pmax)  # the odd primes
    return abs(1728.0 * c_tilde(spec).value * zeta_part.value - leading_constant(spec).value)


def per_prime_identity_fractions(p: int) -> tuple[Fraction, Fraction]:
    """Both sides of the factor-level identity at an odd prime, exact.

    (1 - 2/(p(p+1)))^3 (1 - 3/(p+2)^2 + 2/(p+2)^3) (1 - 1/p^2)
        = (1 - 1/p)^4 (1 + 4/p).
    """
    pf = Fraction(p)
    lhs = (1 - Fraction(2, p * (p + 1))) ** 3
    lhs *= 1 - Fraction(3, (p + 2) ** 2) + Fraction(2, (p + 2) ** 3)
    lhs *= 1 - Fraction(1, p * p)
    rhs = (1 - 1 / pf) ** 4 * (1 + 4 / pf)
    return lhs, rhs


class ClassSums(NamedTuple):
    """The two admissible-class sums and the class tally behind them."""

    weight_at_one: int
    weighted: int
    tally: dict


def lemma432_sums() -> ClassSums:
    """Brute-force both weighted sums over admissible (eps, delta, nu) classes.

    A class is admissible when (e1, d2*e2, d3*e3) lies in the mod-8 set for
    its 2-part pattern; the first sum weights every class by u(1,1,1), the
    second by u(e1,e2,e3).  Both come out to 432 = 3 * (48+32+32+32).
    """
    first = second = 0
    tally = dict.fromkeys(CHOICES, 0)
    for _, (eps, delta, nu) in admissible_classes():
        tally[delta, nu] += 1
        first += u_weight(1, 1, 1, delta, nu)
        second += u_weight(*eps, delta, nu)
    return ClassSums(first, second, tally)


@dataclass(frozen=True)
class TamagawaParts:
    alpha_star: Fraction
    tau_infty: Fraction
    tau_two: Fraction
    group_order: int

    def rational_prefactor(self) -> Fraction:
        return self.group_order * self.alpha_star * self.tau_infty * self.tau_two


class TamagawaReport(NamedTuple):
    parts: TamagawaParts
    tau2_etale: Fraction
    product: float
    difference: float


def dyadic_hom_count() -> Fraction:
    """(1/8) * sum over dyadic etale algebras of (embeddings / centralizer)."""
    total = Fraction(0)
    for _, k, j, count in DYADIC_ETALE_TABLE:
        total += Fraction(j, k) * count
    return total / 8


def tamagawa_constant(spec: EulerProductSpec) -> TamagawaReport:
    """Assemble the leading constant from its local densities.

    product = 8 * (1/4) * (3/4) * (9/4) * prod_{p>2} (1-1/p)^4 (1+4/p), and
    difference is its distance from leading_constant at the same truncation.
    Both are reported, never judged here: the verify suites decide whether
    they agree.
    """
    tau2_etale = dyadic_hom_count()
    parts = TamagawaParts(
        alpha_star=CONSTANTS["cone_alpha_star"],
        tau_infty=CONSTANTS["tau_real"],
        tau_two=tau2_etale * Fraction(1, 2) ** 4,
        group_order=CONSTANTS["group_order"],
    )
    bare = _product_over(lambda p: (1.0 - 1.0 / p) ** 4 * (1.0 + 4.0 / p),
                         _primes(spec.pmax)[1:], 10.0, spec.pmax)  # the odd primes
    product = float(parts.rational_prefactor()) * bare.value
    return TamagawaReport(parts, tau2_etale, product, abs(product - leading_constant(spec).value))


def predicted_count(box, spec: EulerProductSpec) -> float:
    """Main-term prediction: leading constant times the box volume."""
    x1, x2, x3, x4 = box.as_tuple()
    return leading_constant(spec).value * x1 * x2 * x3 * x4


def twist_main_term(m: int, bound: float) -> float:
    """Expected number of admissible twists t <= bound coprime to odd
    squarefree m: (1/2) prod_{p>2}(1 - 1/p^2) * f(m) * bound.

    The odd squarefree density prod_{p>2}(1 - 1/p^2) equals 8/pi^2.
    """
    f_m = 1.0
    for p in factor_small(m):
        f_m *= p / (p + 1.0)
    return 0.5 * (8.0 / math.pi**2) * f_m * bound
