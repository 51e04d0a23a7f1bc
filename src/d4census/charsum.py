"""Exact class sums and character sums behind the asymptotic analysis.

The count over a residue class key (eps, delta, nu) reduces to sums of the
local product

  L(m', delta, nu) = prod_{p | m1'm2'm3'}
        (1 + (-d2*d3*2^(a+b)*m2'm3' / p))
      * (1 + ( d3*2^(mu+b)*m1'm3' / p))
      * (1 + ( d2*2^(mu+a)*m1'm2' / p))

which equals tau(m1'm2'm3') exactly when the odd-prime solubility conditions
hold and 0 otherwise.  Expanding each factor over divisor pairs k_i*l_i = m_i'
and applying quadratic reciprocity turns L into a signed divisor sum weighted
by u(k); L_product and L_divisor_sum compute both forms as exact integers and
must agree everywhere.

T_direct evaluates the per-class census sum exactly (no main-term
substitution), T111_direct the (k = 1) inner sum of squarefree f-weights, and
character_sum_f the weighted character sums whose main terms carry c(r).
All class sums are exact; floats appear only in main-term comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log, pi, sqrt
from typing import Callable, Optional

from .arith import SieveTables, _squarefree_factors, factor_small, kronecker
from .asymptotic import EulerProductSpec, c_constant, c_tilde
from .census import BoundBox, _is_degenerate
from .localsolve import ALL_DELTAS, ALL_NUS, UNIT_RESIDUES, in_E_set, u_weight


@dataclass(frozen=True)
class ClassKey:
    """A residue class (eps mod 8, signs delta, 2-part pattern nu)."""

    eps: tuple[int, int, int]
    delta: tuple[int, int]
    nu: tuple[int, int, int]

    def __post_init__(self):
        if any(e % 2 == 0 or not 1 <= e <= 7 for e in self.eps):
            raise ValueError(f"eps must be odd residues mod 8: {self.eps}")
        if self.delta == (-1, -1) or any(d not in (1, -1) for d in self.delta):
            raise ValueError(f"invalid signs: {self.delta}")
        if sum(self.nu) > 1 or any(x not in (0, 1) for x in self.nu):
            raise ValueError(f"invalid 2-part pattern: {self.nu}")

    @property
    def admissible(self) -> bool:
        """Mod-8 solubility at 2 of the class."""
        return in_E_set(self.eps, self.nu, self.delta)


def all_class_keys():
    for e1 in UNIT_RESIDUES:
        for e2 in UNIT_RESIDUES:
            for e3 in UNIT_RESIDUES:
                for delta in ALL_DELTAS:
                    for nu in ALL_NUS:
                        yield ClassKey((e1, e2, e3), delta, nu)


def _check_parts(mp: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    m1p, m2p, m3p = mp
    if min(mp) < 1 or any(m % 2 == 0 for m in mp):
        raise ValueError(f"odd positive parts required: {mp}")
    facs = tuple(_squarefree_factors(m) for m in mp)
    for m, fac in zip(mp, facs):
        if fac is None:
            raise ValueError(f"{m} is not squarefree")
    if gcd(m1p, m2p) != 1 or gcd(m1p, m3p) != 1 or gcd(m2p, m3p) != 1:
        raise ValueError(f"parts must be pairwise coprime: {mp}")
    return facs


def L_product(mp: tuple[int, int, int], delta: tuple[int, int],
              nu: tuple[int, int, int]) -> int:
    """The local product L(m', delta, nu) as an exact integer.

    Always 0 or tau(m1'm2'm3'); positive exactly when every odd prime
    dividing the triple satisfies its solubility condition.
    """
    f1, f2, f3 = _check_parts(mp)
    m1p, m2p, m3p = mp
    d2, d3 = delta
    mu, alpha, beta = nu
    arg1 = -d2 * d3 * (1 << (alpha + beta)) * m2p * m3p
    arg2 = d3 * (1 << (mu + beta)) * m1p * m3p
    arg3 = d2 * (1 << (mu + alpha)) * m1p * m2p
    total = 1
    for p in f1 + f2 + f3:
        total *= (1 + kronecker(arg1, p)) * (1 + kronecker(arg2, p)) * (1 + kronecker(arg3, p))
    return total


def _divisor_splits(primes: tuple[int, ...]):
    """All (k, l) with k*l = prod(primes), k squarefree from these primes."""
    splits = [(1, 1)]
    for p in primes:
        splits = [(k * p, l) for k, l in splits] + [(k, l * p) for k, l in splits]
    return splits


def L_divisor_sum(mp: tuple[int, int, int], delta: tuple[int, int],
                  nu: tuple[int, int, int]) -> int:
    """The same local product, computed from the reciprocity-expanded form:

    sum over k_i * l_i = m_i' of
        u(k1,k2,k3) * (l1 / k2*k3) * (l2 / k1*k3) * (l3 / k1*k2).
    """
    f1, f2, f3 = _check_parts(mp)
    total = 0
    for k1, l1 in _divisor_splits(f1):
        for k2, l2 in _divisor_splits(f2):
            k1k2 = k1 * k2
            for k3, l3 in _divisor_splits(f3):
                term = u_weight(k1, k2, k3, delta, nu)
                term *= kronecker(l1, k2 * k3)
                term *= kronecker(l2, k1 * k3)
                term *= kronecker(l3, k1k2)
                total += term
    return total


@dataclass(frozen=True)
class CharacterSpec:
    """A completely multiplicative character for the weighted sums.

    kind "principal": n -> 1 on gcd(n, q) = 1, else 0.
    kind "kronecker": n -> (disc / n) for a discriminant-style parameter
    disc = 0 or 1 mod 4 whose radical matches the radical of q, so the
    character vanishes exactly on gcd(n, q) > 1.
    """

    q: int
    kind: str = "principal"
    disc: int = 0
    m: int = 1

    def __post_init__(self):
        if self.q < 1 or self.m < 1:
            raise ValueError("modulus and coprimality parameter must be positive")
        if gcd(self.m, self.q) != 1:
            raise ValueError(f"need gcd(m, q) = 1, got m={self.m}, q={self.q}")
        if self.kind == "kronecker":
            if self.disc == 0 or self.disc % 4 not in (0, 1):
                raise ValueError(f"discriminant must be nonzero and 0 or 1 mod 4: {self.disc}")
            if set(factor_small(self.disc)) != set(factor_small(self.q)):
                raise ValueError(
                    f"radical of disc {self.disc} must match radical of q {self.q}"
                )
        elif self.kind != "principal":
            raise ValueError(f"unknown character kind {self.kind!r}")

    @classmethod
    def principal(cls, q: int, m: int = 1) -> "CharacterSpec":
        return cls(q=q, kind="principal", m=m)

    @classmethod
    def quadratic(cls, disc: int, m: int = 1) -> "CharacterSpec":
        return cls(q=abs(disc), kind="kronecker", disc=disc, m=m)

    @property
    def is_principal(self) -> bool:
        return self.kind == "principal"

    def chi(self, n: int) -> int:
        if self.kind == "principal":
            return 1 if gcd(n, self.q) == 1 else 0
        return kronecker(self.disc, n)


def _fraction_sum(terms: list[Fraction]) -> Fraction:
    """Balanced pairwise summation; keeps intermediate denominators small."""
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        nxt = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


@dataclass(frozen=True)
class CharacterSumReport:
    value: Fraction
    main_term: float
    deviation: float  # |S - main| / (sqrt(x) log x)
    x: float
    terms: int


def character_sum_f(
    x: float,
    spec: CharacterSpec,
    tables: SieveTables,
    residue: Optional[tuple[int, int]] = None,
    euler: Optional[EulerProductSpec] = None,
) -> CharacterSumReport:
    """S = sum_{n <= x, squarefree, (n, m) = 1 [, n = a mod q0]} chi(n) f(n),
    exactly.

    The attached main term is c(m*q*q0) * x / phi(q0) for principal chi
    (phi(q0) = 1 without a residue class) and 0 otherwise; the deviation
    field records |S - main| normalized by sqrt(x) log x.
    """
    top = int(x)
    if top > tables.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {tables.limit}")
    a, q0 = (residue if residue is not None else (0, 1))
    if q0 < 1 or (residue is not None and gcd(a, q0) != 1):
        raise ValueError(f"residue class must have gcd(a, q0) = 1: {residue}")
    if residue is not None and gcd(q0, spec.q) != 1:
        raise ValueError(f"residue modulus {q0} must be coprime to character modulus {spec.q}")
    mu = tables.mu
    f_num = tables.f_num
    f_den = tables.f_den
    m = spec.m
    terms = []
    for n in range(1, top + 1):
        if mu[n] == 0 or gcd(n, m) != 1:
            continue
        if residue is not None and n % q0 != a % q0:
            continue
        ch = spec.chi(n)
        if ch == 0:
            continue
        terms.append(Fraction(ch * int(f_num[n]), int(f_den[n])))
    value = _fraction_sum(terms)
    if spec.is_principal:
        r = spec.m * spec.q * q0
        rad = 1
        for p in factor_small(r):
            rad *= p
        main = c_constant(rad, euler or EulerProductSpec()).value * x / _phi(q0)
    else:
        main = 0.0
    norm = sqrt(x) * log(x) if x > 1 else 1.0
    deviation = abs(float(value) - main) / norm
    return CharacterSumReport(value=value, main_term=main, deviation=deviation,
                              x=x, terms=len(terms))


def _phi(n: int) -> int:
    out = n
    for p in factor_small(n):
        out = out // p * (p - 1)
    return out


def _class_triples(bounds: tuple[float, float, float], eps: tuple[int, int, int],
                   tables: SieveTables):
    """Pairwise coprime odd squarefree (m1', m2', m3') with m_i' <= bounds[i]
    and m_i' = eps[i] mod 8, in increasing (m1', m2', m3') order."""
    vals1, vals2, vals3 = (
        [v for v in tables.odd_squarefree_upto(b) if v % 8 == e] for b, e in zip(bounds, eps)
    )
    for m1p in vals1:
        for m2p in vals2:
            if gcd(m1p, m2p) != 1:
                continue
            m12 = m1p * m2p
            for m3p in vals3:
                if gcd(m12, m3p) == 1:
                    yield m1p, m2p, m3p


def T_direct(key: ClassKey, box: BoundBox, tables: SieveTables) -> int:
    """Exact census sum of the class: over coprime odd squarefree triples with
    m1' <= X3, m2' <= X1, m3' <= X2 (invariant bounds) and m_i' = eps_i mod 8,

        L(m', delta, nu) * #{t <= X4 : t odd squarefree coprime to m'}
                         * [reconstructed signed triple non-degenerate].

    L vanishes unless the odd-prime conditions hold, and equals tau(m') when
    they do, so this is the per-class slice of the exact count.  The mod-8
    and sign conditions live on the key, not here: aggregating over admissible
    keys only is what reproduces the census.
    """
    d2, d3 = key.delta
    mu, alpha, beta = key.nu
    total = 0
    for mp in _class_triples((box.x3, box.x1, box.x2), key.eps, tables):
        m1p, m2p, m3p = mp
        if _is_degenerate((1 << mu) * m1p, d2 * (1 << alpha) * m2p, d3 * (1 << beta) * m3p):
            continue
        lv = L_product(mp, key.delta, key.nu)
        if lv == 0:
            continue
        primes = tuple(sorted(
            tables.prime_factors(m1p) + tables.prime_factors(m2p) + tables.prime_factors(m3p)
        ))
        total += lv * tables.count_odd_squarefree_coprime(box.x4, primes)
    return total


def census_from_classes(box: BoundBox, tables: SieveTables) -> int:
    """4 * sum of T_direct over the admissible classes; must equal the exact
    census of the same box."""
    total = 0
    for key in all_class_keys():
        if key.admissible:
            total += T_direct(key, box, tables)
    return 4 * total


def T111_direct(
    x1: float, x2: float, x3: float, key: ClassKey, tables: SieveTables
) -> Fraction:
    """Exact inner sum at trivial divisor part: over coprime odd squarefree
    l_i <= x_i with l_i = eps_i mod 8, sum of f(l1) f(l2) f(l3)."""
    vals = tables.odd_squarefree_upto(max(x1, x2, x3))
    num = {v: int(tables.f_num[v]) for v in vals}
    den = {v: int(tables.f_den[v]) for v in vals}
    return _fraction_sum([Fraction(num[l1] * num[l2] * num[l3], den[l1] * den[l2] * den[l3])
                          for l1, l2, l3 in _class_triples((x1, x2, x3), key.eps, tables)])


def T_main_term(key: ClassKey, box: BoundBox, euler: Optional[EulerProductSpec] = None) -> float:
    """Asymptotic main term of T_direct for the class.

    (1 + u(eps)) / 2 * prod_{p>2}(1 - 1/p^2) * c_tilde * X1 X2 X3 X4: the
    inner sums contribute u(1,1,1) + u(eps) halves, which cancel exactly on
    the inadmissible classes.  Summed over the 432 admissible classes and
    multiplied by 4 this reproduces the leading constant.
    """
    u_eps = u_weight(*key.eps, key.delta, key.nu)
    if u_eps == -1:
        return 0.0
    x1, x2, x3, x4 = box.as_tuple()
    # prod_{p>2} (1 - 1/p^2) = 8 / pi^2
    return 8.0 / pi**2 * c_tilde(euler or EulerProductSpec()).value * x1 * x2 * x3 * x4


CLASS_CSV_HEADER = "e1,e2,e3,d2,d3,mu,alpha,beta,x1,x2,x3,x4,value,main,ratio"


def class_sums_csv(box: BoundBox, tables: SieveTables,
                   euler: Optional[EulerProductSpec] = None) -> str:
    """Per-class rows (key, box, exact value, main term, ratio) for sweep
    plots, admissible classes only, LF-terminated."""
    lines = [CLASS_CSV_HEADER]
    x1, x2, x3, x4 = box.as_tuple()
    for key in all_class_keys():
        if not key.admissible:
            continue
        value = T_direct(key, box, tables)
        main = T_main_term(key, box, euler)
        ratio = value / main if main else float("nan")
        e1, e2, e3 = key.eps
        d2, d3 = key.delta
        mu, alpha, beta = key.nu
        lines.append(
            f"{e1},{e2},{e3},{d2},{d3},{mu},{alpha},{beta},"
            f"{x1:g},{x2:g},{x3:g},{x4:g},{value},{main:.17g},{ratio:.17g}"
        )
    return "\n".join(lines) + "\n"


class BilinearReport:
    def __init__(self, value, bound: float):
        self.value = value
        self.bound = bound
        self.ratio = abs(value) / bound

    def __repr__(self):
        return f"BilinearReport(value={self.value}, ratio={self.ratio})"


def bilinear_sum(
    m_bound: int, n_bound: int,
    alpha: Callable[[int], complex], beta: Callable[[int], complex],
) -> BilinearReport:
    """sum_{m <= M odd} sum_{n <= N odd} alpha_m beta_n (m / n), with the
    ratio to (M N^(5/6) + M^(5/6) N) (log 3MN)^(7/6).

    Observational only: the bilinear bound is an upper estimate with an
    unspecified constant, so the ratio is reported, not asserted sharp.
    """
    total = 0
    for m in range(1, m_bound + 1, 2):
        am = alpha(m)
        if am == 0:
            continue
        row = 0
        for n in range(1, n_bound + 1, 2):
            bn = beta(n)
            if bn == 0:
                continue
            row += bn * kronecker(m, n)
        total += am * row
    mb, nb = float(m_bound), float(n_bound)
    bound = (mb * nb ** (5 / 6) + mb ** (5 / 6) * nb) * log(3 * mb * nb) ** (7 / 6)
    return BilinearReport(total, bound)
