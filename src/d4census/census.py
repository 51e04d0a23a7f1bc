"""Exact enumeration of dihedral octic pairs with bounded multi-invariants.

The count runs over signed squarefree triples (m1, m2, m3) labeling a genuine
biquadratic field whose governing conic is soluble, weighted by the number of
admissible quadratic twists:

    exact(X) = 4 * sum over admissible triples of
               tau(m1'*m2'*m3') * #{t <= X4 : t odd squarefree, coprime}

The factor 4 is the number of group isomorphisms fixing the labeled subfield
data; every octic upstairs is hit exactly that often.  The module only
counts: the predicted main term lives in asymptotic, and the CLI sets the
two side by side.

The mask kernel.  A signed triple is an odd triple (m1', m2', m3') of
pairwise coprime odd squarefree parts plus one of 12 choices (delta, nu) of
signs and 2-part, m1 = 2^mu*m1', m2 = d2*2^a*m2', m3 = d3*2^b*m3'.  Each
condition on a signed triple allows a set of choices, kept as a 12-bit mask
(bit k is CHOICES[k], the order ALL_DELTAS x ALL_NUS):

  * the mod-8 class at 2: in_E_set of (m1' mod 8, m2' mod 8, m3' mod 8);
  * non-degeneracy: depends only on which of m1', m2', m3' equal 1;
  * one mask per odd prime p.  The Legendre condition at p reads
      p | m1':  (m2'm3' / p) = (-d2*d3*2^(a+b) / p),
      p | m2':  (m1'm3' / p) = (d3*2^(mu+b) / p),
      p | m3':  (m1'm2' / p) = (d2*2^(mu+a) / p),
    and the right side depends only on p mod 8 and the choice.  A symbol 0
    on the left (p divides another part) allows no choice, which is the
    coprimality test.

The AND of these masks is the set of admissible choices over the odd triple,
and its popcount the number of admissible signed triples.  For each coprime
pair (m1', m2') the masks of every m3' are computed at once in numpy: primes
of m1' and m2' by their Legendre rows at m3' mod p, primes of m3' through a
prime-incidence table reduced with bitwise_and.reduceat.

The twist count tau(n) * #{t <= X4 odd squarefree coprime to n} depends only
on n = m1'm2'm3', so popcounts are summed per distinct n and the twist
counter runs once per n; the sum is taken in Python integers.  That counter
(SieveTables.count_odd_squarefree_coprime) reads the sieve only up to
isqrt(X4): above its table it counts odd squarefree t <= y in closed form
from mu.  So one sieve of max(X1, X2, X3, isqrt(X4)) entries serves the
whole census (required_sieve_limit), however large X4 is.  The CSV
breakdown and enumerate_admissible_triples expand the set bits of the same
masks in (m1', m2', m3', delta, nu) order.

Index convention (documented on the CLI as well): the box coordinate X_i
bounds the i-th invariant, so X1 bounds m2', X2 bounds m3', X3 bounds m1',
X4 bounds the twist.  enumerate_admissible_triples takes positional bounds
on (m1', m2', m3') instead; exact_census performs the mapping.  Symmetric
boxes are unaffected.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd, isfinite, isqrt
from typing import Iterator, Optional

import numpy as np

from .arith import (
    CapacityError,
    SignedSquarefreeTriple,
    SieveTables,
    decompose_triple,
    factor_small,
    kronecker,
    primes_up_to,
    _squarefree_factors,
)
from .localsolve import ALL_DELTAS, ALL_NUS, UNIT_RESIDUES, in_E_set


@dataclass(frozen=True)
class BoundBox:
    """Bounds (X1, X2, X3, X4) on the four invariants, all >= 0."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        if not all(isfinite(x) and x >= 0 for x in self.as_tuple()):
            raise ValueError(f"box bounds must be finite and nonnegative: {self}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class InvariantVector:
    """The four multi-invariants of a pair (field, isomorphism)."""

    inv1: int
    inv2: int
    inv3: int
    inv4: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.inv1, self.inv2, self.inv3, self.inv4)


class InertiaClass(Enum):
    """Conjugacy class of the inertia subgroup of a tamely ramified prime."""

    S = "s"
    RS = "rs"
    R = "r"
    R2 = "r2"
    UNRAMIFIED = "unramified"


# Which inertia class pairs with which invariant coordinate.  The reflection
# classes are swapped by the outer automorphism; all counts are symmetric in
# the pair, so this is a labeling convention, kept in one place.
INERTIA_CLASS_OF_INVARIANT = {
    1: InertiaClass.S,
    2: InertiaClass.RS,
    3: InertiaClass.R,
    4: InertiaClass.R2,
}


@dataclass
class CensusReport:
    exact: int
    triples_visited: int
    breakdown: Optional[list] = None


def required_sieve_limit(box: BoundBox) -> int:
    """Smallest sieve limit covering the odd-part bounds and isqrt(X4).

    The kernel reads the tables up to max(X1, X2, X3).  The twist counter
    needs them only up to isqrt(X4): above its table it reads mu up to
    sqrt(y) (SieveTables.count_odd_squarefree_coprime).
    """
    return max(int(max(box.x1, box.x2, box.x3)), isqrt(int(box.x4)), 1)


def check_sieve_covers(box: BoundBox, tables: SieveTables) -> None:
    """CapacityError unless tables reach required_sieve_limit(box)."""
    if tables.limit < required_sieve_limit(box):
        raise CapacityError(
            f"sieve limit {tables.limit} < required {required_sieve_limit(box)}"
        )


def _legendre_table(p: int) -> list[int]:
    """kronecker(r, p) for r in [0, p), via Euler's criterion."""
    row = [0] * p
    for r in range(1, p):
        row[r] = 1 if pow(r, (p - 1) // 2, p) == 1 else -1
    return row


def _is_degenerate(m1: int, m2: int, m3: int) -> bool:
    # For pairwise coprime squarefree entries, a product m_i*m_j is a perfect
    # square only when it equals 1, so degeneracy is this sign pattern check.
    return (m1 == 1 and (m2 == 1 or m3 == 1)) or m2 * m3 == 1


# The 12 (delta, nu) choices over one odd triple.  Bit k of a mask stands for
# CHOICES[k]; this is also the order in which rows and triples come out.
CHOICES = tuple((delta, nu) for delta in ALL_DELTAS for nu in ALL_NUS)
_ALL_CHOICES = (1 << len(CHOICES)) - 1
_INT64_MAX = int(np.iinfo(np.int64).max)
# products factored per block in _twist_counts, to bound the factor lists
_TWIST_BLOCK = 1 << 16


def _choice_mask(allowed) -> int:
    return sum(1 << k for k, (delta, nu) in enumerate(CHOICES) if allowed(delta, nu))


def _required_symbols(delta, nu) -> tuple[int, int, int]:
    """(a1, a2, a3): at an odd prime p | m_i' the choice requires
    (product of the other two odd parts / p) = (a_i / p)."""
    (d2, d3), (mu, alpha, beta) = delta, nu
    return (-d2 * d3 * (1 << (alpha + beta)), d3 * (1 << (mu + beta)), d2 * (1 << (mu + alpha)))


@dataclass(frozen=True)
class _MaskTables:
    """Choice masks of the conditions that make an odd triple admissible.

    cls[e1, e2, e3]: the mod-8 class condition at 2 (odd residues only).
    nondeg[o1, o2, o3]: non-degeneracy, with o_i = [m_i' == 1].
    sign[i, p % 8, s + 1]: the odd-prime condition at p | m_(i+1)' when the
        Legendre symbol at p of the other two odd parts is s; s = 0 means p
        divides them and allows no choice.  Row p % 8 = 0 allows every choice:
        it pads m3' = 1, which has no prime.
    bits[mask]: the choices of a mask, in CHOICES order.
    popcount[mask]: their number.
    """

    cls: np.ndarray
    nondeg: np.ndarray
    sign: np.ndarray
    bits: tuple
    popcount: np.ndarray


@lru_cache(maxsize=None)
def _mask_tables() -> _MaskTables:
    cls = np.zeros((8, 8, 8), dtype=np.uint16)
    for eps in itertools.product(UNIT_RESIDUES, repeat=3):
        cls[eps] = _choice_mask(lambda delta, nu: in_E_set(eps, nu, delta))
    nondeg = np.zeros((2, 2, 2), dtype=np.uint16)
    for o1, o2, o3 in itertools.product((0, 1), repeat=3):
        # an odd part other than 1 stands in as a prime of its own
        p1, p2, p3 = (1 if o1 else 3), (1 if o2 else 5), (1 if o3 else 7)
        nondeg[o1, o2, o3] = _choice_mask(lambda delta, nu: not _is_degenerate(
            (1 << nu[0]) * p1, delta[0] * (1 << nu[1]) * p2, delta[1] * (1 << nu[2]) * p3))
    # (a / p) for a in {+-1, +-2} depends on p mod 8 only: it is the Jacobi
    # symbol (a / r) with r = p mod 8
    sign = np.zeros((3, 8, 3), dtype=np.uint16)
    sign[:, 0, :] = _ALL_CHOICES
    for i, r, s in itertools.product(range(3), UNIT_RESIDUES, (1, -1)):
        sign[i, r, s + 1] = _choice_mask(
            lambda delta, nu: kronecker(_required_symbols(delta, nu)[i], r) == s)
    bits = tuple(
        tuple(choice for k, choice in enumerate(CHOICES) if mask >> k & 1)
        for mask in range(_ALL_CHOICES + 1)
    )
    popcount = np.array([len(b) for b in bits], dtype=np.uint8)
    return _MaskTables(cls=cls, nondeg=nondeg, sign=sign, bits=bits, popcount=popcount)


def _check_capacity(bound1: float, bound2: float, bound3: float, tables: SieveTables) -> None:
    tops = [int(max(b, 0)) for b in (bound1, bound2, bound3)]
    if tops[0] * tops[1] * tops[2] > _INT64_MAX:
        raise CapacityError(
            f"odd-part bounds {tuple(tops)}: the product m1'*m2'*m3' may overflow int64"
        )
    if tables.limit < max(tops):
        raise CapacityError(f"sieve limit {tables.limit} < required {max(tops)}")


def _mask_rows(
    bound1: float, bound2: float, bound3: float, tables: SieveTables,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The mask kernel: for each coprime pair m1' <= bound1, m2' <= bound2 in
    increasing order, yield (m1', m2', m3', masks) where m3' holds the
    m3' <= bound3 that admit some choice, increasing, and masks their
    nonzero choice masks."""
    _check_capacity(bound1, bound2, bound3, tables)
    vals1 = tables.odd_squarefree_upto(bound1)
    vals2 = tables.odd_squarefree_upto(bound2)
    vals3 = tables.odd_squarefree_upto(bound3)
    if not (vals1 and vals2 and vals3):
        return
    masks = _mask_tables()
    v3 = np.array(vals3, dtype=np.int64)
    factors = {v: tables.prime_factors(v) for v in set(vals1) | set(vals2) | set(vals3)}
    legendre = {p: _legendre_table(p) for fac in factors.values() for p in fac}

    # p | m1' (i = 0) or p | m2' (i = 1): the row of choices over all m3',
    # for each value s of the symbol at p of the other part of the pair
    pair_rows = {}
    for i, vals in ((0, vals1), (1, vals2)):
        for p in {p for v in vals for p in factors[v]}:
            leg3 = np.array(legendre[p], dtype=np.int8)[v3 % p]
            pair_rows[i, p] = {s: masks.sign[i, p % 8][s * leg3 + 1] for s in (1, -1)}

    # p | m3': CSR incidence of the m3' on their primes (m3' = 1 on the pad
    # column), and each pair-part's symbols at those primes (1 at the pad)
    primes3 = sorted({p for v in vals3 for p in factors[v]})
    column = {p: j for j, p in enumerate(primes3)}
    incidence, starts = [], []
    for v in vals3:
        starts.append(len(incidence))
        incidence.extend([column[p] for p in factors[v]] or [len(primes3)])
    incidence, starts = np.array(incidence), np.array(starts)
    residue3 = np.array([p % 8 for p in primes3] + [0])
    symbols3 = {
        v: np.array([legendre[p][v % p] for p in primes3] + [1], dtype=np.int8)
        for v in set(vals1) | set(vals2)
    }

    cls3 = masks.cls[:, :, v3 % 8]
    nondeg3 = masks.nondeg[:, :, (v3 == 1).astype(np.intp)]
    for m1p in vals1:
        e1, o1 = m1p % 8, int(m1p == 1)
        for m2p in vals2:
            if gcd(m1p, m2p) != 1:
                continue
            row = cls3[e1, m2p % 8] & nondeg3[o1, int(m2p == 1)]
            for p in factors[m1p]:
                row &= pair_rows[0, p][legendre[p][m2p % p]]
            for p in factors[m2p]:
                row &= pair_rows[1, p][legendre[p][m1p % p]]
            s = symbols3[m1p] * symbols3[m2p]
            row &= np.bitwise_and.reduceat(masks.sign[2][residue3, s + 1][incidence], starts)
            nonzero = np.flatnonzero(row)
            if nonzero.size:
                yield m1p, m2p, v3[nonzero], row[nonzero]


def _signed_triples(m1p: int, m2p: int, m3ps: np.ndarray, row: np.ndarray, bits: tuple):
    """(m3', (m1, m2, m3)) for each choice set in a kernel row, in
    (m3', delta, nu) order."""
    for m3p, mask in zip(m3ps.tolist(), row.tolist()):
        for (d2, d3), (mu, alpha, beta) in bits[mask]:
            yield m3p, ((1 << mu) * m1p, d2 * (1 << alpha) * m2p, d3 * (1 << beta) * m3p)


def enumerate_admissible_triples(
    bound1: float, bound2: float, bound3: float, tables: SieveTables,
) -> Iterator[SignedSquarefreeTriple]:
    """Yield the admissible triples with odd parts m1' <= bound1, m2' <= bound2,
    m3' <= bound3, in (m1', m2', m3', delta, nu) order.

    Admissible means: pairwise coprime squarefree with m1 > 0, the governing
    conic locally (hence globally) soluble, and non-degenerate (no product of
    two entries a perfect square, so the biquadratic field is genuine).
    """
    bits = _mask_tables().bits
    for m1p, m2p, m3ps, row in _mask_rows(bound1, bound2, bound3, tables):
        for _, triple in _signed_triples(m1p, m2p, m3ps, row, bits):
            yield SignedSquarefreeTriple(*triple)


def twist_count(m: int, bound: float, tables: SieveTables) -> int:
    """Number of octics over a fixed labeled biquadratic with twist <= bound.

    Equals tau(m) * #{t <= bound : t odd squarefree coprime to m} for the odd
    squarefree product m = m1'*m2'*m3'.
    """
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"need positive odd m, got {m}")
    primes = _squarefree_factors(m)
    if primes is None:
        raise ValueError(f"{m} is not squarefree")
    tau = 1 << len(primes)
    return tau * tables.count_odd_squarefree_coprime(bound, primes)


def _twist_counts(products: np.ndarray, bound: float, tables: SieveTables,
                  primes: np.ndarray) -> list[int]:
    """twist_count(n, bound) for each odd squarefree n in products, all of
    whose prime factors are in primes (increasing), found by trial division."""
    twists = []
    for start in range(0, len(products), _TWIST_BLOCK):
        chunk = products[start:start + _TWIST_BLOCK]
        factors = [[] for _ in range(len(chunk))]
        for p in primes.tolist():
            for j in np.flatnonzero(chunk % p == 0).tolist():
                factors[j].append(p)
        twists.extend((1 << len(f)) * tables.count_odd_squarefree_coprime(bound, tuple(f))
                      for f in factors)
    return twists


# the twist bound, the caller's sieve tables and the primes, handed to each
# pool worker once when it starts; under the fork start method the worker
# shares them with the caller
_worker_twist_args: Optional[tuple] = None


def _init_worker(*twist_args) -> None:
    global _worker_twist_args
    _worker_twist_args = twist_args


def _twist_worker(products: np.ndarray) -> list[int]:
    return _twist_counts(products, *_worker_twist_args)


def exact_census(
    box: BoundBox, tables: SieveTables, workers: int = 1, want_breakdown: bool = False,
) -> CensusReport:
    """Exact count of pairs with invariants in the box, in integers only: the
    predicted main term and its ratio are the caller's (asymptotic.predicted_count).

    Deterministic and independent of the worker count: the kernel runs once
    in the calling process, each distinct product m1'*m2'*m3' is twist-counted
    in one job, and the jobs' sums are added exactly.
    """
    bound1, bound2, bound3 = box.x3, box.x1, box.x2  # positional odd-part bounds
    check_sieve_covers(box, tables)
    masks = _mask_tables()
    products, counts, kept = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint8)], []
    for m1p, m2p, m3ps, row in _mask_rows(bound1, bound2, bound3, tables):
        products.append((m1p * m2p) * m3ps)
        counts.append(masks.popcount[row])
        if want_breakdown:
            kept.append((m1p, m2p, m3ps, row))
    products, counts = np.concatenate(products), np.concatenate(counts)
    distinct, which = np.unique(products, return_inverse=True)
    weight = np.zeros(len(distinct), dtype=np.int64)
    np.add.at(weight, which, counts)
    primes = primes_up_to(int(max(bound1, bound2, bound3)))[1:]
    n = max(1, min(workers, len(distinct), os.cpu_count() or 1))
    if n == 1:
        parts = [_twist_counts(distinct, box.x4, tables, primes)]
    else:
        with ProcessPoolExecutor(max_workers=n, initializer=_init_worker,
                                 initargs=(box.x4, tables, primes)) as pool:
            parts = list(pool.map(_twist_worker, [distinct[i::n] for i in range(n)]))
    total, twist_of = 0, {}
    for i, twists in enumerate(parts):
        total += sum(w * t for w, t in zip(weight[i::n].tolist(), twists))
        if want_breakdown:
            twist_of.update(zip(distinct[i::n].tolist(), twists))
    breakdown = None
    if want_breakdown:
        breakdown, cumulative = [], 0
        # the kernel's rows come in serial (m1', m2', m3', delta, nu) order
        for m1p, m2p, m3ps, row in kept:
            m12 = m1p * m2p
            for m3p, (m1, m2, m3) in _signed_triples(m1p, m2p, m3ps, row, masks.bits):
                t = twist_of[m12 * m3p]
                cumulative += t
                breakdown.append((m1, m2, m3, t, cumulative))
    return CensusReport(exact=4 * total, triples_visited=int(counts.sum()),
                        breakdown=breakdown)


def invariants_of(triple: SignedSquarefreeTriple, t: int) -> InvariantVector:
    """Invariant vector (m2', m3', m1', t) of the octic labeled by triple and
    twist t."""
    dec = decompose_triple(triple)
    if t <= 0 or t % 2 == 0:
        raise ValueError(f"twist must be a positive odd integer, got {t}")
    t_primes = _squarefree_factors(t)
    if t_primes is None:
        raise ValueError(f"twist {t} is not squarefree")
    for p in t_primes:
        if (dec.m1p * dec.m2p * dec.m3p) % p == 0:
            raise ValueError(f"twist {t} shares the factor {p} with the triple")
    return InvariantVector(inv1=dec.m2p, inv2=dec.m3p, inv3=dec.m1p, inv4=t)


def inertia_class(p: int, triple: SignedSquarefreeTriple, t: int) -> InertiaClass:
    """Inertia class of the odd prime p in the octic labeled by (triple, t).

    p = 2 is rejected: when 2 ramifies it does so wildly and carries no class
    here.
    """
    if p == 2:
        raise ValueError("2 ramifies wildly; no tame inertia class")
    if p < 3 or factor_small(p) != (p,):
        raise ValueError(f"{p} is not an odd prime")
    dec = decompose_triple(triple)
    invariants_of(triple, t)  # validates t
    if dec.m1p % p == 0:
        return INERTIA_CLASS_OF_INVARIANT[3]
    if dec.m2p % p == 0:
        return INERTIA_CLASS_OF_INVARIANT[1]
    if dec.m3p % p == 0:
        return INERTIA_CLASS_OF_INVARIANT[2]
    if t % p == 0:
        return INERTIA_CLASS_OF_INVARIANT[4]
    return InertiaClass.UNRAMIFIED


# Splitting types of a tamely ramified prime in the octic and its subfields,
# one block of rows per inertia class.  Row order: (M, K1, K2, L, K).
SPLITTING_TABLE = {
    InertiaClass.S: (
        ("1^2 1^2 1^2 1^2", "1 1", "1^2", "1^2 1^2", "1^2"),
        ("2^2 2^2", "1 1", "1^2", "1^2 1^2", "1^2"),
    ),
    InertiaClass.RS: (
        ("1^2 1^2 1^2 1^2", "1^2", "1 1", "1^2 1^2", "1^2"),
        ("2^2 2^2", "1^2", "1 1", "1^2 1^2", "1^2"),
    ),
    InertiaClass.R: (
        ("1^4 1^4", "1^2", "1^2", "1^2 1^2", "1 1"),
        ("2^4", "1^2", "1^2", "2^2", "2"),
    ),
    InertiaClass.R2: (
        ("1^2 1^2 1^2 1^2", "1 1", "1 1", "1 1 1 1", "1 1"),
        ("2^2 2^2", "1 1", "2", "2 2", "2"),
        ("2^2 2^2", "2", "1 1", "2 2", "2"),
        ("2^2 2^2", "2", "2", "2 2", "1 1"),
    ),
}


def splitting_rows(c: InertiaClass):
    """Static splitting-type rows (M, K1, K2, L, K) for a ramified class."""
    if c is InertiaClass.UNRAMIFIED:
        raise ValueError("splitting rows are defined for ramified classes only")
    return SPLITTING_TABLE[c]
