"""Multiplicative-function tables, the Kronecker symbol, and triple decomposition.

Everything downstream (local solubility, the exact census, the character sums)
runs on three primitives collected here:

  * SieveTables: smallest prime factor (prime_columns walks it to factor an
    array), mu, tau and the exact rational weight f(n) = prod_{p|n}
    (1 + 1/p)^(-1) on [1, N]; only a twist memo grows.  Twist counters up
    to N^2: a memoised recursion, and a batch divisor sum up to N.
  * kronecker(a, n): the full Kronecker symbol for arbitrary integer pairs.
  * decompose_triple: the validation and the sign / 2-part / odd-part
    splitting m1 = 2^mu * m1', m2 = d2 * 2^a * m2', m3 = d3 * 2^b * m3'
    of a signed squarefree triple, which drives all residue-class logic; it
    factors each entry once and keeps the odd primes.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd, isqrt, prod

import numpy as np

SIEVE_CACHE_MAGIC = b"D4CS"
SIEVE_CACHE_VERSION = 2
# magic, version, limit, CRC-32 of the spf payload; the payload follows
_CACHE_HEADER = struct.Struct("<4sIQI")

# Ceiling on sieve memory.  The tables hold 41 bytes per entry.  Building
# them, or loading them from a cache file, peaks at 42 bytes per entry plus
# 3-4 kB (tracemalloc at N = 1e4, 2e5 and 2e6: 42.31, 42.02 and 42.00 bytes
# per entry on both paths).  The charge is kept at 68 bytes per entry: it
# fixes which limits exit 3 and what their messages say.
MEMORY_BUDGET = 2 * 1024**3
_BYTES_PER_ENTRY = 68
# primes_up_to with its float64 copy peaks at 1.54, 1.26 and 1.06 bytes per
# entry at n = 1e5, 1e6 and 1e7 (tracemalloc); the ratio falls as n grows.  The
# charge is kept at 3 bytes per entry: it fixes which --pmax values exit 3.
_PRIME_BYTES_PER_ENTRY = 3
# signed divisors per chunk of SieveTables.count_odd_squarefree_coprime_rows
_DIVISOR_BLOCK = 1 << 16


def _check_budget(table: str, nbytes: int) -> None:
    if nbytes > MEMORY_BUDGET:
        raise CapacityError(f"{table} needs ~{nbytes} bytes, budget is {MEMORY_BUDGET}")


class CapacityError(Exception):
    """A requested table exceeds the memory budget."""


class InvalidTripleError(ValueError):
    """A triple violates squarefreeness, coprimality, or the sign convention."""


@dataclass
class SieveTables:
    """Multiplicative data on [1, N]; the arrays are immutable once built.

    spf[n] is the least prime divisor of n (spf[1] = 1), mu is the Moebius
    function, tau the divisor count, and f_num[n]/f_den[n] the reduced rational
    f(n) = prod_{p|n} p/(p+1).  odd_sf_count[n] counts odd squarefree integers
    <= n.  prime_columns reads primes off spf.
    With mu it backs the exact coprime twist counting: the recursion
    count_odd_squarefree_coprime for bounds up to N^2, whose memo is the one
    mutable part, and the batch count_odd_squarefree_coprime_rows, a divisor
    sum with no memo for bounds up to N and the recursion per row above.

    The tables refuse reads past their end: odd_squarefree_upto above N and
    the twist counters above N^2 raise CapacityError, so no reader returns a
    value computed from a table shorter than what it read.  The CLI sizes
    every census table with census.required_sieve_limit.
    """

    limit: int
    spf: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    f_num: np.ndarray
    f_den: np.ndarray
    odd_sf_count: np.ndarray
    _coprime_cache: dict = field(default_factory=dict, repr=False)

    def prime_columns(self, values: np.ndarray) -> np.ndarray:
        """The primes of each squarefree value in [1, limit], increasing along
        its row and padded with 0, as int32 (limit < 2^31 under the budget).
        Each pass down spf divides a value by its least prime once, so the
        values must be squarefree.  A 1 gives a row of 0s."""
        rest = np.asarray(values, dtype=np.int64)
        columns = []
        while (rest > 1).any():
            p = self.spf[rest]  # spf[1] = 1
            columns.append(np.where(p > 1, p, 0).astype(np.int32))
            rest = rest // p
        return np.array(columns, dtype=np.int32).reshape(len(columns), len(rest)).T

    def odd_squarefree_upto(self, bound: float) -> list[int]:
        """All odd squarefree integers <= bound, increasing; CapacityError
        when bound is past the table."""
        top = self._top(bound)
        return (2 * np.flatnonzero(self.mu[1 : top + 1 : 2]) + 1).tolist()

    def odd_squarefree_count(self, bound: float) -> int:
        """len(odd_squarefree_upto(bound)), read off odd_sf_count without
        building the list; the same CapacityError past the table."""
        return int(self.odd_sf_count[self._top(bound)])

    def _top(self, bound: float) -> int:
        top = max(int(bound), 0)
        if top > self.limit:
            raise CapacityError(f"sieve limit {self.limit} < required {top}")
        return top

    def count_odd_squarefree_coprime(self, bound: float, primes: tuple[int, ...]) -> int:
        """#{t <= bound : t odd, squarefree, p ∤ t for every p in primes}.

        Uses A(Y, P) = A(Y, P \\ {p}) - A(Y // p, P): split on whether the
        largest excluded prime divides t.  The base case A(y, {}) = S(y) is
        odd_sf_count[y] for y <= limit, and above the table the closed form
        S(y) = sum over odd j <= sqrt(y) of mu(j) * ((y // j^2 + 1) // 2),
        which reads mu only up to sqrt(y).  So bound may reach limit^2;
        CapacityError beyond.  Exact; memoized per table, base cases too.
        """
        y = int(bound)
        if y <= 0:
            return 0
        if isqrt(y) > self.limit:
            raise CapacityError(
                f"twist bound {bound} needs a sieve limit of {isqrt(y)}, have {self.limit}")
        odd = tuple(sorted(p for p in primes if p != 2))
        return self._count_coprime(y, odd)

    def count_odd_squarefree_coprime_rows(self, bound: float, primes: np.ndarray) -> np.ndarray:
        """count_odd_squarefree_coprime(bound, row) for each row of a 2-D
        array of primes padded with 0, as int64.

        Up to limit: A(Y, n) = sum over d | n of mu(d) * C(d), with C(d) the
        number of odd squarefree t <= Y divisible by d (_divisible_counts),
        and C(d) = 0 for d > Y.  The rows are grouped by their number w of
        primes <= Y, and the 2^w signed divisors of each group are formed by
        broadcasting, in chunks of at most _DIVISOR_BLOCK divisors.  Uses no
        memo.  Above limit: the memoised recursion once per row, which raises
        CapacityError when isqrt(Y) > limit.
        """
        y = int(bound)
        if y > self.limit:
            # one int object per prime: the memo's keys then compare by identity
            prime_of = {}
            return np.array([self.count_odd_squarefree_coprime(bound, tuple(
                prime_of.setdefault(p, p) for p in row.tolist() if p)) for row in primes],
                dtype=np.int64)
        out = np.zeros(len(primes), dtype=np.int64)
        if y <= 0:
            return out
        c = self._divisible_counts(y)
        kept = (primes > 0) & (primes <= y)  # a prime above y divides no t <= y
        omega = np.count_nonzero(kept, axis=1)
        for w in np.flatnonzero(np.bincount(omega)).tolist():
            rows = np.flatnonzero(omega == w)
            sign = np.ones(1, dtype=np.int64)
            for _ in range(w):
                sign = np.concatenate([sign, -sign])
            step = max(1, _DIVISOR_BLOCK >> w)
            for start in range(0, len(rows), step):
                chunk = rows[start:start + step]
                # the w kept primes of each row first
                p = -np.sort(-np.where(kept[chunk], primes[chunk], 0).astype(np.int64), axis=1)
                d = np.ones((len(chunk), 1), dtype=np.int64)
                for k in range(w):
                    # a divisor above y stays at y + 1, where C is 0
                    d = np.concatenate([d, np.minimum(d * p[:, k, None], y + 1)], axis=1)
                out[chunk] = c[d] @ sign
        return out

    def _divisible_counts(self, y: int) -> np.ndarray:
        """C[d] = #{t <= y : t odd squarefree, d | t} for d <= y + 1, as int32
        (y <= limit < 2^31; C[y + 1] = 0), in about sqrt(y) numpy passes: one
        strided sum per odd d <= sqrt(y), then one pass per odd cofactor
        k < sqrt(y) adding the t = d * k with d > sqrt(y)."""
        odd_sf = self.mu[:y + 1] != 0
        odd_sf[::2] = False
        c = np.zeros(y + 2, dtype=np.int32)
        root = isqrt(y)
        for d in range(1, root + 1, 2):
            c[d] = np.count_nonzero(odd_sf[d::2 * d])
        for k in range(1, y // (root + 1) + 1, 2):
            top = y // k
            c[root + 1:top + 1] += odd_sf[(root + 1) * k:top * k + 1:k]
        return c

    def _count_coprime(self, y: int, primes: tuple[int, ...]) -> int:
        # y >= 1: the caller returns on y <= 0, and y is divided only by primes <= y
        if primes and primes[-1] > y:
            # primes is increasing, and a prime above y divides no t <= y
            primes = primes[:bisect_right(primes, y)]
        if not primes and y <= self.limit:
            return int(self.odd_sf_count[y])
        # flat: a tuple of ints alone leaves the garbage collector's tracking at
        # its first collection, so a growing memo triggers no full collections
        key = (y, *primes)
        cached = self._coprime_cache.get(key)
        if cached is None:
            if primes:
                cached = (self._count_coprime(y, primes[:-1])
                          - self._count_coprime(y // primes[-1], primes))
            else:
                root = isqrt(y)
                j = np.arange(1, root + 1, 2, dtype=np.int64)
                # the memory budget keeps limit below 31.6M, so y < (limit + 1)^2 < 2^63
                # and y // (j * j) cannot overflow int64
                cached = int((self.mu[1 : root + 1 : 2] * ((y // (j * j) + 1) // 2)).sum())
            self._coprime_cache[key] = cached
        return cached


def build_sieve(limit: int) -> SieveTables:
    """Sieve spf, mu, tau and the reduced f(n) pairs on [1, limit].

    One smallest-prime-factor pass seeds everything; mu/tau/f follow by one
    pass of numpy slices per prime up to sqrt(limit) (_tables_from_spf).
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    _check_budget(f"sieve of size {limit}", limit * _BYTES_PER_ENTRY)
    spf = _spf_sieve(limit)
    return _tables_from_spf(limit, spf)


def _spf_sieve(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        spf[1] = 1
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest  # remaining entries are primes > sqrt(limit); index 0 stays 0
    return spf


def _tables_from_spf(limit: int, spf: np.ndarray) -> SieveTables:
    """mu, tau and f by one pass of slices per prime p <= sqrt(limit).

    rest[n] starts at n and is divided by p once per power of p dividing n, so
    after the passes it is 1 or the one prime factor of n above sqrt(limit),
    which a last vectorised pass applies.  Index 0 stays 0 in every table.
    """
    mu = np.ones(limit + 1, dtype=np.int8)
    tau = np.ones(limit + 1, dtype=np.int64)
    f_num = np.ones(limit + 1, dtype=np.int64)
    f_den = np.ones(limit + 1, dtype=np.int64)
    mu[0] = tau[0] = f_num[0] = f_den[0] = 0
    rest = np.arange(limit + 1, dtype=np.int64)
    root = isqrt(limit)
    small_primes = np.flatnonzero(spf[2 : root + 1] == np.arange(2, root + 1)) + 2
    for p in small_primes.tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        f_num[p::p] *= p
        f_den[p::p] *= p + 1
        # v_p(n) >= k on the multiples of p^k: the factor k of tau becomes k + 1
        pk, k = p, 1
        while pk <= limit:
            if k > 1:
                tau[pk::pk] //= k
            tau[pk::pk] *= k + 1
            rest[pk::pk] //= p
            pk, k = pk * p, k + 1
    big = rest > 1
    np.negative(mu, out=mu, where=big)
    np.multiply(tau, 2, out=tau, where=big)
    f_num *= rest  # rest is 1 off big, and f_num[0] is 0
    rest += 1
    np.multiply(f_den, rest, out=f_den, where=big)
    del rest, big
    g = np.gcd(f_num, f_den)
    g[0] = 1
    f_num //= g
    f_den //= g
    del g
    odd_sf_count = (mu != 0).astype(np.int64)
    odd_sf_count[::2] = 0
    np.cumsum(odd_sf_count, out=odd_sf_count)  # in place: no int64 temporary
    return SieveTables(
        limit=limit, spf=spf, mu=mu, tau=tau,
        f_num=f_num, f_den=f_den, odd_sf_count=odd_sf_count,
    )


def save_sieve_cache(tables: SieveTables, path) -> None:
    """Write the spf table and its CRC-32; mu/tau/f are rederived on load.

    The file is written under a temporary name in the same directory and
    renamed over path, so path never holds a partly written table.
    """
    payload = tables.spf[1:].astype("<u4").tobytes()
    header = _CACHE_HEADER.pack(SIEVE_CACHE_MAGIC, SIEVE_CACHE_VERSION, tables.limit,
                                zlib.crc32(payload))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_sieve_cache(path) -> SieveTables:
    """Read a cache file; ValueError if it is not an intact version-2 file,
    and CapacityError, as from build_sieve, if its tables pass the budget."""
    with open(path, "rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        if header[:4] != SIEVE_CACHE_MAGIC:
            raise ValueError(f"bad sieve cache magic {header[:4]!r}")
        if len(header) < _CACHE_HEADER.size:
            raise ValueError("truncated sieve cache header")
        _, version, limit, checksum = _CACHE_HEADER.unpack(header)
        if version != SIEVE_CACHE_VERSION:
            raise ValueError(f"unsupported sieve cache version {version}")
        # the tables it rebuilds are charged as build_sieve's, before the payload is read
        _check_budget(f"sieve of size {limit}", limit * _BYTES_PER_ENTRY)
        size = os.fstat(fh.fileno()).st_size - _CACHE_HEADER.size
        if size < 4 * limit:
            raise ValueError("truncated sieve cache")
        if size > 4 * limit:
            raise ValueError("sieve cache has trailing bytes")
        raw = fh.read(4 * limit)
    if zlib.crc32(raw) != checksum:
        raise ValueError("sieve cache checksum mismatch")
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1:] = np.frombuffer(raw, dtype="<u4")
    del raw  # the payload is not held while the tables are built
    return _tables_from_spf(limit, spf)


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n as int64, from a sieve over the odd numbers only.

    Entry i of the sieve stands for 2i + 1.  Entry 0 (the number 1) is left
    set, so the sieve's indices map in place onto the output, with 2 first.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    _check_budget(f"prime table up to {n}", n * _PRIME_BYTES_PER_ENTRY)
    odd = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n), defined for all integer pairs.

    Conventions: (a/0) = 1 iff a = +-1 else 0; (a/-1) = -1 iff a < 0;
    (a/2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8.  Completely
    multiplicative in both arguments; equals the Jacobi symbol for odd n > 0.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a/2) per a mod 8, applied once per factor of 2 in n
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi-style reciprocity loop for odd n >= 1
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _legendre_rows(values: np.ndarray, p) -> np.ndarray:
    """The Legendre symbol (values / p) elementwise as int8, for int64 values
    and p an odd prime or an int64 array of them broadcast against values; a
    p of 1 gives 1.  Euler's criterion by repeated squaring, about log2(p)
    passes.  p must be below 2^31, so that no int64 product overflows."""
    base, e = values % p, (p - 1) >> 1
    power = np.ones_like(base)
    while np.any(e):
        power = np.where(e & 1, power * base % p, power)
        base, e = base * base % p, e >> 1
    return np.where(power == p - 1, -1, power).astype(np.int8)  # 0, 1 or p - 1


@dataclass(frozen=True)
class SignedSquarefreeTriple:
    """Pairwise coprime squarefree (m1, m2, m3) with m1 > 0.

    Labels the biquadratic field generated by sqrt(m1*m2) and sqrt(m1*m3);
    at most one entry is even.  decompose_triple checks these conditions.
    """

    m1: int
    m2: int
    m3: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)


def _valid_triples(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 columns (m1, m2, m3) of every SignedSquarefreeTriple with
    |m1|, |m2|, |m3| <= bound: m1 increasing, then m2 and m3 through the
    squarefree 1, -1, 2, -2, 3, -3, 5, ...; the pairs are kept by np.gcd."""
    n = np.arange(1, max(bound, 0) + 1, dtype=np.int64)
    sf = n[(n[:, None] % np.arange(2, isqrt(len(n)) + 1) ** 2 != 0).all(axis=1)]
    signed = np.stack([sf, -sf], axis=1).ravel()
    with_m1 = np.gcd.outer(sf, signed) == 1
    i, j = np.nonzero(with_m1)  # the coprime (m1, m2), in order
    r, k = np.nonzero(with_m1[i] & (np.gcd.outer(signed, signed) == 1)[j])
    return sf[i[r]], signed[j[r]], signed[k]


@dataclass(frozen=True)
class DecomposedTriple:
    """Sign / 2-part / odd-part data of a SignedSquarefreeTriple, with its
    residue class (eps, delta, nu) as the tuples of localsolve.CLASSES.

    m1 = 2^mu * m1p, m2 = d2 * 2^alpha * m2p, m3 = d3 * 2^beta * m3p with
    m1p, m2p, m3p positive odd, delta = (d2, d3), nu = (mu, alpha, beta) and
    eps = (m1p, m2p, m3p) mod 8.  Pairwise coprimality forces
    mu + alpha + beta <= 1.  primes holds the primes of m1p, m2p and m3p,
    each tuple increasing.
    """

    m1p: int
    m2p: int
    m3p: int
    eps: tuple[int, int, int]
    delta: tuple[int, int]
    nu: tuple[int, int, int]
    primes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def reconstruct(self) -> SignedSquarefreeTriple:
        (d2, d3), (mu, alpha, beta) = self.delta, self.nu
        return SignedSquarefreeTriple(
            (1 << mu) * self.m1p, d2 * (1 << alpha) * self.m2p, d3 * (1 << beta) * self.m3p)


def decompose_triple(triple: SignedSquarefreeTriple) -> DecomposedTriple:
    """Validate a triple (InvalidTripleError names the first failure: signs,
    then squarefreeness, then coprimality) and split it into signs,
    2-exponents and odd parts, factoring each entry once."""
    m1, m2, m3 = triple.m1, triple.m2, triple.m3
    if m1 <= 0 or m2 == 0 or m3 == 0:
        raise InvalidTripleError(f"{triple}: need m1 > 0 and m2, m3 nonzero")
    vals = (m1, m2, m3)
    facs = []
    for v in vals:
        primes = _squarefree_factors(v)
        if primes is None:
            raise InvalidTripleError(f"{triple}: {v} is not squarefree")
        facs.append(primes)
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(vals[i], vals[j]) != 1:
                raise InvalidTripleError(f"{triple}: entries {i+1},{j+1} share a factor")
    nu = tuple(1 - v % 2 for v in vals)
    m1p, m2p, m3p = (abs(v) >> k for v, k in zip(vals, nu))
    return DecomposedTriple(
        m1p=m1p, m2p=m2p, m3p=m3p, eps=(m1p % 8, m2p % 8, m3p % 8),
        delta=(1 if m2 > 0 else -1, 1 if m3 > 0 else -1), nu=nu,
        # an even entry's primes start with 2, and its 2-exponent is 1
        primes=tuple(f[k:] for f, k in zip(facs, nu)),
    )


def _squarefree_factors(n: int) -> tuple[int, ...] | None:
    """Distinct prime divisors of |n| by trial division, increasing, or None
    when |n| is 0 or some prime divides it twice."""
    primes = factor_small(n)
    if n == 0 or prod(primes) != abs(n):
        return None
    return primes


def factor_small(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of |n| by trial division, increasing."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)
