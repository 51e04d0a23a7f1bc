"""Local solubility of the conic x^2 - a*y^2 - b*z^2 = 0 at every place of Q.

The census needs to decide, for a = m1*m2 and b = m1*m3, whether the conic
has a rational point.  By the Hasse principle that reduces to local checks:

  * hilbert_symbol: closed-form (a, b)_v at the real place, at 2, and at odd
    primes (valuations stripped mod 2, epsilon(p) = (p-1)/2 exponent formula,
    Legendre symbols of the unit parts by arith.kronecker), on Python ints
    of any size.  hilbert_symbol_rows is the same formula for every pair of
    two int64 columns at one place, with the Legendre symbols by Euler's
    criterion.
  * padic_oracle_rows: an independent ground truth that searches exhaustively
    for primitive solutions modulo m = p^3 (odd p) resp. 2^6 -- Hensel-
    sufficient for coefficients of valuation <= 1 -- for a whole column of
    pairs (a, b) at one place, in blocks over a cached table of the squares
    mod m.  A primitive solution has a unit coordinate; dividing by it pins
    that coordinate to 1.  The search runs the case y = 1 at every p, and
    the case z = 1 at p = 2 only.
    The case x = 1 adds nothing: if (1, y, z) solves the conic mod m, then
    a*y^2 + b*z^2 = 1 mod p, so p does not divide both y and z.  A unit y
    gives the solution (1/y, 1, z/y), and a unit z gives (1/z, y/z, 1).
    This holds for every p, a and b.  At an odd p the case z = 1 adds
    nothing either.  Take a solution (x, y, 1) mod p^3.
      - If y is a unit, dividing by y gives (x/y, 1, 1/y).
      - If p | y and b is a unit, then x^2 = b mod p, and Hensel's lemma
        gives b = s^2 mod p^3.  Then x = (1 + a)/2, z = (a - 1)/(2s) solves
        x^2 - b*z^2 = a, a solution with y = 1.
      - If p | y and p | b, then x^2 = b mod p^2, so p | x and p^2 | b,
        which a valuation of at most 1 forbids.
    The verdict depends on a and b only through their square classes, so
    the search runs once per class key.  For a unit w mod m the solutions of
    x^2 - b*z^2 = a*w^2 map one to one to those of (x/w)^2 - b*(z/w)^2 = a,
    and those of x^2 - b*w^2*z^2 = a to those of x^2 - b*z'^2 = a, z' = w*z;
    at 2 the case z = 1 maps the same way.  So the verdict is constant on
    each orbit of a, and of b, mod m under multiplication by unit squares.
    The key of a residue r, (p | r, class of its unit part u), names that
    orbit:
      - Odd p: (Z/p^k)* is cyclic of even order, so the unit squares have
        index 2, and by Hensel's lemma a unit is a square mod p^k iff it is
        a square mod p.  The units fall into two orbits, told apart by
        whether r is a square mod p.  If p | r, then r = p*u with u known
        only mod p^2, and r*w^2 = p*(u*w^2 mod p^2).  The unit squares mod
        p^3 reduce to all the unit squares mod p^2, so whether u is a square
        mod p is enough.
      - p = 2: the odd squares mod 64, and mod 32, are exactly the residues
        1 mod 8.  So an odd r has the orbit of r mod 8, and r = 2*u, with u
        known only mod 32, has the orbit of u mod 8.
  * in_E_set: the mod-8 residue criterion at 2, stated operationally through
    the 2-adic Hilbert symbol.  Transcribed residue lists survive only as a
    cross-check (E_000_LITERAL / E_010_LITERAL below).
  * satisfies_local_conditions: the full bundle (odd-prime Legendre
    conditions by arith.kronecker at the primes decompose_triple keeps,
    real-place sign condition, the mod-8 set).  local_conditions_rows is the
    same bundle for int64 columns of triples, with the primes read off
    SieveTables.prime_columns.
  * u_weight: the +-1 weight collecting quadratic-reciprocity signs in the
    character-sum expansion; it coincides with a 2-adic Hilbert symbol.
  * the residue classes (eps, delta, nu): eps the odd parts mod 8
    (UNIT_RESIDUES), delta the signs (ALL_DELTAS), nu the 2-part
    (ALL_NUS).  CHOICES lists the 12 (delta, nu) of one odd triple, and
    CLASSES the 768 classes, each a ClassKey, in the one order of the class
    table, which census.exact_class_sums and charsum.class_sums return:
    entry 12 * _eps_index(*eps) + k is (eps, *CHOICES[k]).  Every class
    loop of the package walks CLASSES, and admissible_classes gives the
    (index, key) of the 432 classes in_E_set admits, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import (
    DecomposedTriple,
    SieveTables,
    SignedSquarefreeTriple,
    _legendre_rows,
    decompose_triple,
    factor_small,
    kronecker,
)


@dataclass(frozen=True)
class Place:
    """A place of Q: p = 0 is the real place, p = 2 dyadic, else an odd prime."""

    p: int

    def __post_init__(self):
        if self.p in (0, 2):
            return
        if self.p < 3 or self.p % 2 == 0 or factor_small(self.p) != (self.p,):
            raise ValueError(f"not a valid place parameter: {self.p}")

    @property
    def is_real(self) -> bool:
        return self.p == 0

    @property
    def is_two(self) -> bool:
        return self.p == 2

    def __repr__(self):
        return "RealPlace" if self.p == 0 else f"Place({self.p})"


REAL_PLACE = Place(0)
TWO_PLACE = Place(2)


def _eta(u):
    """Parity of (u - 1)/2 for odd u: 0 if u = 1 mod 4, 1 if u = 3 mod 4.
    u is an int or an int64 array, as for _omega."""
    return (u % 4) // 2


def _omega(u):
    """Parity of (u^2 - 1)/8 for odd u: 1 exactly when u = 3, 5 mod 8."""
    return (u % 8 + 1) // 4 % 2


def _strip(n: int, p: int) -> tuple[int, int]:
    """(valuation mod 2, unit part) of n at p."""
    v = 0
    while n % p == 0:
        n //= p
        v ^= 1
    return v, n


def hilbert_symbol(a: int, b: int, v: Place) -> int:
    """(a, b)_v in {-1, +1}: +1 iff x^2 - a*y^2 - b*z^2 = 0 has a nonzero
    solution over the completion of Q at v."""
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol needs nonzero arguments")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    if v.is_two:
        s, u = _strip(a, 2)
        t, w = _strip(b, 2)
        exponent = _eta(u) * _eta(w) + s * _omega(w) + t * _omega(u)
        return -1 if exponent % 2 else 1
    p = v.p
    s, u = _strip(a, p)
    t, w = _strip(b, p)
    eps = ((p - 1) // 2) % 2
    sign = (-1) ** (s * t * eps)
    if t:
        sign *= kronecker(u, p)
    if s:
        sign *= kronecker(w, p)
    return sign


def _strip_rows(n: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """_strip of every entry of a nonzero int64 column: (valuation mod 2 as
    bool, unit part), one division pass per power of p."""
    parity = np.zeros(len(n), dtype=bool)
    divisible = n % p == 0
    while divisible.any():
        n = np.where(divisible, n // p, n)
        parity ^= divisible
        divisible = n % p == 0
    return parity, n


def hilbert_symbol_rows(a, b, v: Place) -> np.ndarray:
    """hilbert_symbol(a[i], b[i], v) for every pair of the int64 columns a
    and b, as int8: the same formulas, with the valuations stripped by
    repeated division and the Legendre symbols by Euler's criterion on the
    whole column (arith._legendre_rows, so an odd p must be below 2^31)."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if ((a == 0) | (b == 0)).any():
        raise ValueError("hilbert_symbol needs nonzero arguments")
    if v.is_real:
        return np.where((a < 0) & (b < 0), -1, 1).astype(np.int8)
    p = 2 if v.is_two else v.p
    if p >= 1 << 31:
        raise ValueError(f"hilbert_symbol_rows needs p < 2^31, not {p}")
    s, u = _strip_rows(a, p)
    t, w = _strip_rows(b, p)
    if v.is_two:
        odd = (_eta(u) * _eta(w) + s * _omega(w) + t * _omega(u)) % 2 == 1
    else:
        odd = s & t & bool((p - 1) // 2 % 2)
        odd ^= t & (_legendre_rows(u, p) < 0)
        odd ^= s & (_legendre_rows(w, p) < 0)
    return np.where(odd, -1, 1).astype(np.int8)


# Each block of padic_oracle_rows takes as many rows as fit this many cells of
# rows x modulus (its arrays, rows x number of squares, are smaller).  It
# searches at most 16 rows, one per class key (64 at 2), in one block up to
# p = 13; from p = 37 on a block is one row, which keeps a large p in bounds.
_ORACLE_BLOCK_CELLS = 1 << 16


@lru_cache(maxsize=64)
def _square_table(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, q) modulo m: q holds the distinct squares, and mask (of length
    2m, read-only) marks t in [0, 2m) with t mod m a square."""
    x = np.arange(modulus, dtype=np.int64)
    mask = np.zeros(2 * modulus, dtype=bool)
    mask[(x * x) % modulus] = True
    q = np.flatnonzero(mask)
    mask[q + modulus] = True
    mask.flags.writeable = False
    q.flags.writeable = False
    return mask, q


def padic_oracle_rows(a, b, v: Place) -> np.ndarray:
    """Ground truth for hilbert_symbol by finite search, no symbol formulas:
    for every pair (a[i], b[i]), whether x^2 - a*y^2 - b*z^2 = 0 is soluble
    at v, as a bool array.

    Real place: sign check.  At an odd p (resp. at 2) a primitive solution
    modulo m = p^3 (resp. 2^6) lifts to the completion by Hensel's lemma
    once the coefficient valuations are at most 1, and any p-adic solution
    scales to such a residue.  A primitive solution has a unit coordinate,
    so dividing by it leaves one coordinate equal to 1.  The search runs the
    case y = 1 exhaustively, and at 2 the case z = 1 as well; the module
    docstring proves that these cover every primitive solution.

    Multiplying a, or b, by the square of a unit w mod m maps the search's
    solutions one to one (x^2 - b*z^2 = a*w^2 is (x/w)^2 - b*(z/w)^2 = a),
    so the verdict depends on each coefficient only through its key: whether
    p divides its residue r, and the class of the unit part u = r/p or r --
    u a square mod p or not at an odd p, u mod 8 at 2.  Each key is one
    orbit: the unit squares mod p^k have index 2 at an odd p and are the
    squares mod p (Hensel), the odd squares mod 64 and mod 32 are the
    residues 1 mod 8, and u known mod p^2 (2^5 at 2) is enough; the module
    docstring gives the proof.  The search runs on one row per (key of a,
    key of b), at most 16 (64 at 2), and every row takes its key's verdict.

    It runs a block of rows at a time: bq = b*q (q the distinct squares mod
    m) is formed once per block, and the y = 1 case reads the doubled
    squares mask at a + bq; at 2 the z = 1 case reads it at b + a*q as well.
    """
    a, b = np.asarray(a), np.asarray(b)
    if ((a == 0) | (b == 0)).any():
        raise ValueError("padic_oracle needs nonzero arguments")
    if v.is_real:
        return ~((a < 0) & (b < 0))
    p = 2 if v.is_two else v.p
    high = (a % (p * p) == 0) | (b % (p * p) == 0)
    if high.any():
        i = int(np.argmax(high))
        coeff = a[i] if a[i] % (p * p) == 0 else b[i]
        raise ValueError(f"padic_oracle: valuation of {int(coeff)} at {p} exceeds 1")
    modulus = 64 if p == 2 else p**3
    sq, q = _square_table(modulus)
    am = (a % modulus).astype(np.int64)
    bm = (b % modulus).astype(np.int64)

    def key(r):  # 2 * (class of the unit part u) + (p | r), below 16; at an
        # odd p, sq[u] (u a square mod p^3) is u a square mod p, by Hensel
        s = r % p == 0
        u = np.where(s, r // p, r)
        return 2 * (u % 8 if p == 2 else sq[u]) + s

    _, first, inverse = np.unique(16 * key(am) + key(bm), return_index=True,
                                  return_inverse=True)
    am, bm = am[first], bm[first]
    out = np.zeros(len(am), dtype=bool)
    step = max(1, _ORACLE_BLOCK_CELLS // modulus)
    for start in range(0, len(am), step):
        ab, bb = am[start:start + step, None], bm[start:start + step, None]
        # y = 1: need x^2 - b*z^2 = a
        hit = sq[ab + (bb * q) % modulus].any(axis=1)
        if p == 2:  # z = 1: need x^2 - a*y^2 = b
            hit |= sq[bb + (ab * q) % modulus].any(axis=1)
        out[start:start + step] = hit
    return out[inverse]


def in_E_set(eps: tuple[int, int, int], nu: tuple[int, int, int],
             delta: tuple[int, int] = (1, 1)) -> bool:
    """Mod-8 admissibility at 2 of the class (eps, delta, nu).

    True iff (2^(mu+alpha) * d2 * e1*e2, 2^(mu+beta) * d3 * e1*e3)_2 = +1,
    evaluated on integer representatives.  This Hilbert-symbol form is the
    normative definition; the transcribed residue lists are cross-checks only.
    """
    e1, e2, e3 = eps
    mu, alpha, beta = nu
    d2, d3 = delta
    if any(e % 2 == 0 for e in eps):
        raise ValueError(f"residues must be odd: {eps}")
    if mu + alpha + beta > 1 or any(x not in (0, 1) for x in nu):
        raise ValueError(f"invalid 2-exponents: {nu}")
    a = (1 << (mu + alpha)) * d2 * (e1 % 8) * (e2 % 8)
    b = (1 << (mu + beta)) * d3 * (e1 % 8) * (e3 % 8)
    return hilbert_symbol(a, b, TWO_PLACE) == 1


def _cong4(x: int, y: int) -> bool:
    return (x - y) % 4 == 0


def e_set_literal_000(eps: tuple[int, int, int]) -> bool:
    """Transcribed residue list for the unramified-at-2 block: e1 = e_j mod 4
    for j = 2 or 3."""
    e1, e2, e3 = (e % 8 for e in eps)
    return _cong4(e1, e2) or _cong4(e1, e3)


def e_set_literal_010(eps: tuple[int, int, int]) -> bool:
    """Transcribed residue list for the (mu, alpha, beta) = (0, 1, 0) block."""
    e1, e2, e3 = (e % 8 for e in eps)
    if e1 == e3:
        return True
    if _cong4(e1, -e3) and e1 != (-e3) % 8 and _cong4(e1, -e2):
        return True
    if _cong4(e1, e2) and e1 == (-e3) % 8:
        return True
    return False


def satisfies_local_conditions(triple: SignedSquarefreeTriple | DecomposedTriple) -> bool:
    """Global solubility of x^2 - m1*m2*y^2 - m1*m3*z^2 = 0, by local tests.

    Conjunction of the odd-prime Legendre conditions, the real-place sign
    condition, and the mod-8 class condition at 2.  The Legendre conditions
    run over the primes decompose_triple found while validating the triple;
    a triple given already decomposed is not factored again.
    """
    dec = triple if isinstance(triple, DecomposedTriple) else decompose_triple(triple)
    m1, m2, m3 = dec.reconstruct().as_tuple()
    if m2 < 0 and m3 < 0:
        return False
    for arg, primes in zip((-m2 * m3, m1 * m3, m1 * m2), dec.primes):
        for p in primes:
            if kronecker(arg, p) != 1:
                return False
    return in_E_set(dec.eps, dec.nu, dec.delta)


def local_conditions_rows(m1, m2, m3, tables: SieveTables) -> np.ndarray:
    """satisfies_local_conditions of every triple (m1[i], m2[i], m3[i]) of
    three int64 columns, as bool.  The triples must be valid, with odd parts
    m1', m2', m3' at most tables.limit; they are not checked.

    The same three tests: the real sign; the Legendre conditions at the odd
    primes of m1', m2' and m3', read off tables.prime_columns, one prime
    column at a time; and the mod-8 class at 2, on the representatives
    in_E_set forms, through hilbert_symbol_rows.
    """
    m = [np.asarray(c, dtype=np.int64) for c in (m1, m2, m3)]
    nu = [1 - c % 2 for c in m]  # mu, alpha, beta
    odd = [abs(c) >> k for c, k in zip(m, nu)]
    ok = ~((m[1] < 0) & (m[2] < 0))
    for i, x, y in ((0, -m[1], m[2]), (1, m[0], m[2]), (2, m[0], m[1])):
        for p in tables.prime_columns(odd[i]).T.astype(np.int64):
            p = np.maximum(p, 1)  # a pad, 0, becomes 1, whose symbol is 1
            ok &= _legendre_rows(x % p * (y % p), p) == 1
    eps = [c % 8 for c in odd]
    a = (1 << (nu[0] + nu[1])) * np.sign(m[1]) * eps[0] * eps[1]
    b = (1 << (nu[0] + nu[2])) * np.sign(m[2]) * eps[0] * eps[2]
    return ok & (hilbert_symbol_rows(a, b, TWO_PLACE) == 1)


def find_conic_point(a: int, b: int, height: int):
    """Search for a primitive (x, y, z) with x^2 - a*y^2 - b*z^2 = 0.

    Signs never matter, so the search runs over 0 <= x, y, z <= height,
    increasing z, then y, then x, and returns the first primitive hit (the
    minimum under that ordering).  None means no point of height <= height
    exists -- not insolubility.
    """
    if a == 0 or b == 0:
        raise ValueError("need nonzero coefficients")
    if height < 1:
        raise ValueError("height bound must be >= 1")
    for z in range(height + 1):
        bz2 = b * z * z
        for y in range(height + 1):
            if y == 0 and z == 0:
                continue
            target = a * y * y + bz2
            if 0 <= target <= height * height:
                x = isqrt(target)
                if x * x == target and gcd(gcd(x, y), z) == 1:
                    return (x, y, z)
    return None


def u_weight(a1: int, a2: int, a3: int, delta: tuple[int, int],
             nu: tuple[int, int, int]) -> int:
    """The +-1 weight u(a1, a2, a3) of the character-sum expansion.

    (-1)^(eta(a1)eta(a2) + eta(a1)eta(a3) + eta(a2)eta(a3))
      * (-1/a1) * (2^mu / a2*a3) * (d2*2^alpha / a1*a3) * (d3*2^beta / a1*a2)

    with Kronecker symbols throughout; depends only on the a_i mod 8.
    For delta != (-1, -1) this equals
    (2^(mu+alpha)*d2*a1*a2, 2^(mu+beta)*d3*a1*a3)_2.
    """
    if a1 % 2 == 0 or a2 % 2 == 0 or a3 % 2 == 0:
        raise ValueError("u_weight needs odd arguments")
    mu, alpha, beta = nu
    d2, d3 = delta
    sign = (-1) ** (_eta(a1) * _eta(a2) + _eta(a1) * _eta(a3) + _eta(a2) * _eta(a3))
    sign *= kronecker(-1, a1)
    sign *= kronecker(1 << mu, a2 * a3)
    sign *= kronecker(d2 * (1 << alpha), a1 * a3)
    sign *= kronecker(d3 * (1 << beta), a1 * a2)
    return sign


ALL_DELTAS = ((1, 1), (1, -1), (-1, 1))
ALL_NUS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
UNIT_RESIDUES = (1, 3, 5, 7)
# the residue classes in the class table's order (module docstring)
CHOICES = tuple(product(ALL_DELTAS, ALL_NUS))


class ClassKey(NamedTuple):
    """A residue class (eps mod 8, signs delta, 2-part pattern nu).  Unchecked:
    the rows of CLASSES are valid by construction."""

    eps: tuple[int, int, int]
    delta: tuple[int, int]
    nu: tuple[int, int, int]


CLASSES = tuple(ClassKey(eps, *choice) for eps in product(UNIT_RESIDUES, repeat=3)
                for choice in CHOICES)


@cache
def admissible_classes() -> tuple[tuple[int, ClassKey], ...]:
    """(index, key) of the 432 classes of CLASSES that in_E_set admits, in
    table order, built once; index is the key's entry in the class table."""
    return tuple((index, key) for index, key in enumerate(CLASSES)
                 if in_E_set(key.eps, key.nu, key.delta))


def _eps_index(m1, m2, m3):
    """0..63: the place of (m1, m2, m3) mod 8 among the 64 odd residue
    triples, 16 i1 + 4 i2 + i3 for m_j = UNIT_RESIDUES[i_j] mod 8, since
    m % 8 is UNIT_RESIDUES[(m & 6) >> 1].  For odd ints of any sign and for
    signed or unsigned int arrays of any width."""
    return (m1 & 6) << 3 | (m2 & 6) << 1 | (m3 & 6) >> 1
