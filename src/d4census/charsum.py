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
by u(k).  Both forms are computed as exact integers and must agree everywhere.

Rows.  One odd triple carries L for all 12 (delta, nu) choices (localsolve.CHOICES).
Both forms take an (n, 3) int64 array of triples and return their (n, 12)
int64 rows, read the primes off SieveTables.prime_columns, and walk the
triples in blocks of _L_BLOCK_ROWS rows, which bounds their temporaries:

  * L_product_rows evaluates the Legendre symbols of the three arguments at
    every row's primes, one prime column at a time.  At a prime of m_j' the
    arguments other than the j-th are 0 mod p, so their factors are 1 and are
    not evaluated.  Every modulus is an odd prime, so each factor 1 + (a/p)
    is read off Euler's criterion, (a^((p-1)/2) + 1) mod p, by repeated
    squaring for all 12 choices at once.
  * L_divisor_sum_rows enumerates each row's 2^omega splits k_i * l_i = m_i'
    from a bitmask over its primes and sums the Jacobi factor
    (l1/k2k3)(l2/k1k3)(l3/k1k2), which does not depend on (delta, nu), into
    64 buckets by (k1, k2, k3) mod 8; the buckets times the 64 x 12 table of
    u_weight values (u depends on k only mod 8) give the row.  Its moduli are
    products of primes, so it runs its own vectorised reciprocity loop
    (_jacobi): the two forms share no symbol code.

No int64 product overflows: every m_i' is at most the sieve limit, which the
memory budget keeps below 2^31.  Euler's criterion multiplies two residues
mod p < 2^31, and a modulus k_i * k_j of the divisor sum is at most
m_i' * m_j' < 2^62; the reciprocity loop only reduces and halves.

Class sums.  The per-class sums come in one layout, the class table: 768
exact sums, one per class of localsolve.CLASSES and in its order, entry
12 * _eps_index(*eps) + k for the class (eps, *CHOICES[k]).  The rows of
`sweep --classes`, which the CLI writes, read census.exact_class_sums, which
reduces the census's one kernel collection by (eps, delta, nu) with the
twist counts of the census's one product reduction, the same two steps
exact_census takes; localsolve.admissible_classes gives each admissible
class with its index.  class_sums is its independent oracle and returns the
same list: one walk over the box, one block per m1', with one
L_product_rows call per block and one twist count per distinct product
m1'm2'm3'.  It walks the triples and evaluates L and
non-degeneracy by its own code, calling none of the census's mask code,
so four times its sum over the admissible classes == exact_census (the
census-consistency suite) and class_sums == exact_class_sums (tier-1 tests)
cross-check the kernel.  Its twist counts come from the recursion
SieveTables.count_odd_squarefree_coprime, while the census takes them from a
divisor sum whenever X4 fits the sieve, so the check covers twist counting
too.  Every admissible class has the same main term, T_main_term.

character_sum_f evaluates the weighted squarefree character sums of the
two characters of CharacterSpec: the principal character mod q, whose main
term carries c(rad q), and a quadratic character (D / n), whose main term is
0.  All class sums are exact; floats appear only in main terms, and
the module formats no output (the CLI owns every CSV format).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, log, pi, prod, sqrt
from operator import mul

import numpy as np

from .arith import SieveTables, _legendre_rows, factor_small, kronecker
from .asymptotic import EulerProductSpec, c_constant, c_tilde
from .census import BoundBox, _live_choices, _required_symbols
from .localsolve import CHOICES, CLASSES, _eps_index, u_weight


# rows of m' per block of L_product_rows and L_divisor_sum_rows, to bound
# their int64 temporaries (a block of the divisor sum holds up to 2^omega
# splits per row)
_L_BLOCK_ROWS = 1 << 10
# At p | m_i' the factor of each choice is 1 + (a_i * (product of the other
# two m_j') / p), with a_i from census._required_symbols.  Over the 12
# choices each a_i takes the 4 values in _SIGN_VALUES, and row i of
# _SIGN_SPREAD takes their 4 columns to the 12 choices.
_SIGN_VALUES = (-2, -1, 1, 2)
_SIGN_SPREAD = np.array([[_SIGN_VALUES.index(_required_symbols(delta, nu)[i])
                          for delta, nu in CHOICES] for i in range(3)])


def _blocks(m: np.ndarray):
    """(start, stop) of each block of _L_BLOCK_ROWS rows of m."""
    return ((start, min(start + _L_BLOCK_ROWS, len(m)))
            for start in range(0, len(m), _L_BLOCK_ROWS))


def L_product_rows(m: np.ndarray, tables: SieveTables) -> np.ndarray:
    """L(m', delta, nu) over CHOICES, one row per row (m1', m2', m3') of the
    (n, 3) int64 array m of pairwise coprime odd squarefree values, from the
    literal Legendre-symbol product; (n, 12) int64.

    One pass per prime column of each m_i': Euler's criterion, by repeated
    squaring, for the arguments of all 12 choices of every row at once.
    """
    out = np.ones((len(m), len(CHOICES)), dtype=np.int64)
    signs = np.array(_SIGN_VALUES, dtype=np.int64)
    for start, stop in _blocks(m):
        block = m[start:stop]
        for i in range(3):
            others = np.delete(block, i, axis=1)
            for col in tables.prime_columns(block[:, i]).T:
                rows = np.flatnonzero(col)
                p = col[rows, None].astype(np.int64)
                rest = others[rows] % p
                base = rest[:, :1] * rest[:, 1:] % p * (signs % p)
                # 1 + (a / p) is 0 or 2: p divides none of the arguments
                out[start + rows] *= 1 + _legendre_rows(base, p)[:, _SIGN_SPREAD[i]]
    return out


def _jacobi(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Jacobi symbol (a / n) elementwise, for a >= 0 and odd n >= 1, as
    int64: the reciprocity loop of arith.kronecker on arrays, over the pairs
    not yet done, with all factors of 2 of a stripped in one step."""
    a = a % n
    out = (n == 1).astype(np.int64)  # (0 / n) = [n == 1]
    at = np.flatnonzero(a)
    a, n = a[at], n[at]
    sign = np.ones_like(a)
    while len(at):
        twos = a & -a  # the largest power of 2 dividing a
        a //= twos
        # 2^t = 2 mod 3 exactly when t is odd; (2 / n) = -1 for n = 3, 5 mod 8
        sign[(twos % 3 == 2) & ((n & 7 == 3) | (n & 7 == 5))] *= -1
        sign[(a & 3 == 3) & (n & 3 == 3)] *= -1
        a, n = n % a, a
        done = a == 0
        out[at[done]] = np.where(n[done] == 1, sign[done], 0)
        at, a, n, sign = at[~done], a[~done], n[~done], sign[~done]
    return out


@cache
def _u_table() -> np.ndarray:
    """u_weight on the 64 odd residue triples mod 8 (row _eps_index(k1, k2,
    k3)) times the 12 CHOICES (column), as int64: u of each class of
    CLASSES, in its order."""
    table = np.array([u_weight(*eps, delta, nu) for eps, delta, nu in CLASSES],
                     dtype=np.int64).reshape(-1, len(CHOICES))
    table.setflags(write=False)
    return table


def L_divisor_sum_rows(m: np.ndarray, tables: SieveTables) -> np.ndarray:
    """L(m', delta, nu) over CHOICES, one row per row (m1', m2', m3') of the
    (n, 3) int64 array m of pairwise coprime odd squarefree values, from the
    reciprocity-expanded divisor sum; (n, 12) int64.

    The primes of each row, owner by owner and padding last, are the bits of
    its 2^omega splits k_i * l_i = m_i'.  The Jacobi factor of a split does
    not depend on (delta, nu) and u depends on k only mod 8, so the factors
    are summed into 64 buckets by (k1, k2, k3) mod 8, and the buckets are
    multiplied by the 64 x 12 u table.
    """
    out = np.zeros((len(m), len(CHOICES)), dtype=np.int64)
    for start, stop in _blocks(m):
        block = m[start:stop]
        columns = [tables.prime_columns(block[:, i]) for i in range(3)]
        primes = np.concatenate(columns, axis=1).astype(np.int64)
        owner = np.repeat(np.arange(3), [c.shape[1] for c in columns])
        order = np.argsort(primes == 0, axis=1, kind="stable")  # padding last
        primes = np.take_along_axis(primes, order, axis=1)
        owner = owner[order]
        omega = np.count_nonzero(primes, axis=1)
        width = int(omega.max(initial=0))
        primes[primes == 0] = 1  # a pad stays in l_i, as the factor 1
        # every (row, split) with split < 2^omega of the row; bit j of the
        # split sends the j-th prime to k_i, else to l_i, for its owner i
        row, split = np.nonzero(np.arange(1 << width) < (1 << omega)[:, None])
        kl = np.ones((6, len(row)), dtype=np.int64)  # k1, k2, k3, l1, l2, l3
        at = np.arange(len(row))
        for j in range(width):
            to_l = 3 * (1 - (split >> j & 1))
            kl[owner[row, j] + to_l, at] *= primes[row, j]
        k, l = kl[:3], kl[3:]
        factor = (_jacobi(l[0], k[1] * k[2]) * _jacobi(l[1], k[0] * k[2])
                  * _jacobi(l[2], k[0] * k[1]))
        bucket = _eps_index(*k)
        # float64 sums of factors 0 and +-1, exact: each is at most 2^omega
        sums = np.bincount(row * 64 + bucket, weights=factor, minlength=64 * (stop - start))
        out[start:stop] = sums.astype(np.int64).reshape(-1, 64) @ _u_table()
    return out


@dataclass(frozen=True)
class CharacterSpec:
    """A completely multiplicative character for the weighted sums, zero
    exactly on gcd(n, q) > 1.

    disc = 0: the principal character mod q, n -> 1 on gcd(n, q) = 1.
    Otherwise the Kronecker symbol n -> (disc / n) of a discriminant-style
    parameter disc = 0 or 1 mod 4 that is not a square, with q = |disc|: at a
    square k^2 the symbol is the principal character mod rad(k).
    """

    q: int
    disc: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"modulus must be positive: q={self.q}")
        if self.disc and (self.disc % 4 > 1 or self.q != abs(self.disc)):
            raise ValueError(
                f"need disc = 0 or 1 mod 4 and q = |disc|, got q={self.q}, disc={self.disc}")
        if self.disc > 0 and isqrt(self.disc) ** 2 == self.disc:
            raise ValueError(f"(disc / n) is principal for the square disc = {self.disc}: "
                             "use CharacterSpec.principal")

    @classmethod
    def principal(cls, q: int) -> "CharacterSpec":
        return cls(q, 0)

    @classmethod
    def quadratic(cls, disc: int) -> "CharacterSpec":
        return cls(abs(disc), disc)

    def chi(self, n: int) -> int:
        if self.disc:
            return kronecker(self.disc, n)
        return 1 if gcd(n, self.q) == 1 else 0


@dataclass(frozen=True)
class CharacterSumReport:
    value: Fraction
    main_term: float
    deviation: float  # |S - main| / (sqrt(x) log x)
    terms: int


def character_sum_f(x: float, spec: CharacterSpec, tables: SieveTables) -> CharacterSumReport:
    """S = sum_{n <= x, squarefree} chi(n) f(n), exactly.

    The attached main term is c(rad q) * x for the principal character and 0
    otherwise; the deviation field records |S - main| normalized by
    sqrt(x) log x.  CapacityError when x passes the sieve, as for every
    reader of the tables.
    """
    top = tables._top(x)
    # index i of these masks and rows stands for n = i + 1
    keep = tables.mu[1 : top + 1] != 0
    num = tables.f_num[1 : top + 1]
    if spec.disc:
        chi = _kronecker_row(spec.disc, top)
        keep &= chi != 0
        num = num[keep] * chi[keep]
        main = 0.0
    else:
        primes = factor_small(spec.q)
        for p in primes:
            keep[p - 1 :: p] = False
        num = num[keep]
        main = c_constant(prod(primes), EulerProductSpec()).value * x
    den = tables.f_den[1 : top + 1][keep]
    value = _fraction_sum(num, den, tables)
    norm = sqrt(x) * log(x) if x > 1 else 1.0
    deviation = abs(float(value) - main) / norm
    return CharacterSumReport(value=value, main_term=main, deviation=deviation, terms=len(den))


def _kronecker_row(disc: int, top: int) -> np.ndarray:
    """kronecker(disc, n) for n = 1..top as int8.  For disc = 0 or 1 mod 4
    the symbol has period |disc| in n, so one period is evaluated and repeated."""
    period = np.array([kronecker(disc, n) for n in range(1, abs(disc) + 1)], dtype=np.int8)
    return np.resize(period, top)


# terms of one large-prime group added under one lcm of their smooth parts
_CHUNK_TERMS = 32


def _fraction_sum(num: np.ndarray, den: np.ndarray, tables: SieveTables) -> Fraction:
    """sum_i num[i] / den[i] exactly, for int64 arrays with den >= 1, as one
    big-int numerator over M * Pi, reduced once.

    1. The numerators of each distinct denominator d are summed by a float64
       np.bincount.  The sums are exact while the |num| of each d add up to
       less than 2^53: in character_sum_f both |num| and the number of terms
       are at most the sieve limit, which the memory budget keeps below
       2^25, so every bin stays below limit^2 < 2^50.  A d whose terms
       cancel drops out.
    2. Each d is split as s * P, P its prime factor above B = isqrt(max d)
       or 1 (_large_primes).  d has at most one such factor, to the first
       power, so s is B-smooth.
    3. The d of one P are taken in increasing s, _CHUNK_TERMS at a time over
       the lcm of their s, and the chunks are folded into one node
       (numerator, M, Pi) worth numerator / (M * Pi), with M the lcm of the
       group's s and Pi = P.
    4. The nodes are added pairwise in a balanced tree, two siblings over
       lcm(M1, M2) * Pi1 * Pi2.  That is a common denominator for any split
       d = s * P, and their least one: distinct groups have distinct primes
       P > B, so the Pi of two siblings are coprime to each other and to both
       B-smooth M.  Only the M (about 1.1k bits at x = 2 * 10^5, against
       45.8k for the whole denominator) need a gcd, and the Pi multiply.
       The root is reduced once, by Fraction.

    No table beyond the sieve is read, and none is kept: P comes from a walk
    down tables.spf for d <= tables.limit and from trial division above it.
    """
    sums = np.bincount(den, weights=num)
    d = np.flatnonzero(sums)
    if not len(d):
        return Fraction(0)
    a = sums[d].astype(np.int64)
    del sums
    p = _large_primes(d, tables)
    order = np.argsort(p, kind="stable")  # d is increasing, so is s in each group
    p = p[order]
    # int64 columns that iterate as Python ints, a quarter the size of lists
    s = array("q", (d[order] // p).tobytes())
    a = array("q", a[order].tobytes())
    del d, order
    bounds = [0, *(np.flatnonzero(p[1:] != p[:-1]) + 1).tolist(), len(s)]
    nodes = []
    for lo, hi, prime in zip(bounds, bounds[1:], p[bounds[:-1]].tolist()):
        n, m = 0, 1
        for start in range(lo, hi, _CHUNK_TERMS):
            stop = min(start + _CHUNK_TERMS, hi)
            chunk = s[start:stop]
            l = lcm(*chunk)
            t = sum(map(mul, a[start:stop], map(l.__floordiv__, chunk)))
            g = gcd(m, l)
            n, m = n * (l // g) + t * (m // g), m // g * l
        nodes.append((n, m, prime))
    while len(nodes) > 1:
        paired = []
        for (n1, m1, p1), (n2, m2, p2) in zip(nodes[::2], nodes[1::2]):
            g = gcd(m1, m2)
            paired.append((n1 * (m2 // g) * p2 + n2 * (m1 // g) * p1, m1 // g * m2, p1 * p2))
        nodes = paired + nodes[2 * len(paired):]
    n, m, prime = nodes[0]
    return Fraction(n, m * prime)


def _large_primes(d: np.ndarray, tables: SieveTables) -> np.ndarray:
    """The prime factor of each d above b = isqrt(max d), or 1, for an
    increasing int64 array d >= 1.  A d has at most one such factor, to the
    first power, since its square exceeds max d."""
    b = isqrt(int(d[-1]))
    out = np.ones_like(d)
    low = int(np.searchsorted(d, tables.limit, side="right"))
    # d <= limit: walk down spf until the rest is a prime or at most b
    at = np.flatnonzero(d[:low] > b)
    rest = d[at]
    while len(at):
        q = tables.spf[rest]
        prime = q == rest
        out[at[prime]] = rest[prime]
        rest //= q
        going = ~prime & (rest > b)
        at, rest = at[going], rest[going]
    # d > limit: divide out every prime up to b, leaving 1 or the factor.
    # Past the table every integer is tried: a composite divides nothing
    # once its primes are out
    rest = d[low:].copy()
    k = np.arange(2, b + 1)
    k = k[(k > tables.limit) | (tables.spf[np.minimum(k, tables.limit)] == k)]
    for q in k.tolist():
        hit = rest % q == 0
        while hit.any():
            rest[hit] //= q
            hit = rest % q == 0
    out[low:] = rest
    return out


def class_sums(box: BoundBox, tables: SieveTables) -> list[int]:
    """The exact census sum of every class (eps, delta, nu), in the layout of
    census.exact_class_sums (entry 12 * _eps_index(eps) + k for
    (delta, nu) = CHOICES[k]): over coprime odd squarefree triples with
    m1' <= X3, m2' <= X1, m3' <= X2 (invariant bounds) and m_i' = eps_i mod 8,

        L(m', delta, nu) * #{t <= X4 : t odd squarefree coprime to m'}
                         * [reconstructed signed triple non-degenerate].

    L vanishes unless the odd-prime conditions hold, and equals tau(m') when
    they do, so this is the per-class slice of the exact count.  The mod-8
    and sign conditions live on the class, not here: four times the sum over
    the admissible classes is the census, and by Hilbert reciprocity the
    other 336 entries are 0.

    One walk over the box, one block per m1': the m2' coprime to m1' and the
    m3' coprime to m1'm2' by np.gcd, one L_product_rows call, non-degeneracy
    from which m_i' equal 1 (census._live_choices), and one twist count per
    distinct product m1'm2'm3' with a nonzero row, by the recursion
    SieveTables.count_odd_squarefree_coprime, kept for the rest of the walk.
    L times the twist count is added, in Python ints, to a 64 x 12 table by
    (eps, choice).  CapacityError when tables do not reach the odd-part
    bounds, or isqrt(X4) once a triple is twist-counted, as in exact_census.
    """
    vals = np.array(tables.odd_squarefree_upto(max(box.x1, box.x2, box.x3)), dtype=np.int64)
    v2, v3 = vals[vals <= box.x1], vals[vals <= box.x2]
    sums = np.zeros((64, len(CHOICES)), dtype=object)
    twist_of = {}  # product m1'm2'm3' -> its twist count
    for m1p in vals[vals <= box.x3].tolist():
        m2p = v2[np.gcd(v2, m1p) == 1]
        i, j = np.nonzero(np.gcd.outer(m1p * m2p, v3) == 1)
        m = np.column_stack([np.full(len(i), m1p), m2p[i], v3[j]])
        rows = L_product_rows(m, tables) * _live_choices()[(m == 1) @ [4, 2, 1]]
        kept = np.flatnonzero(rows.any(axis=1))
        m, rows = m[kept], rows[kept]
        products = [m1 * m2 * m3 for m1, m2, m3 in m.tolist()]
        new = {n: k for k, n in enumerate(products) if n not in twist_of}  # n -> a row of it
        at = list(new.values())
        primes = np.concatenate([tables.prime_columns(m[at, c]) for c in range(3)], axis=1)
        for n, row in zip(new, primes.tolist()):
            twist_of[n] = tables.count_odd_squarefree_coprime(box.x4, tuple(filter(None, row)))
        np.add.at(sums, _eps_index(*m.T), rows.astype(object)
                  * np.array([twist_of[n] for n in products], dtype=object)[:, None])
    return sums.ravel().tolist()


def T_main_term(box: BoundBox, euler: EulerProductSpec) -> float:
    """Asymptotic main term of the exact census sum of each admissible class
    (an entry of class_sums or census.exact_class_sums).

    (1 + u(eps)) / 2 * prod_{p>2}(1 - 1/p^2) * c_tilde * X1 X2 X3 X4: the
    inner sums contribute u(1,1,1) + u(eps) halves, and u(eps) = +1 on every
    admissible class (the esets suite checks it), so all 432 share one main
    term.  Four times 432 of it reproduces the leading constant.
    """
    x1, x2, x3, x4 = box.as_tuple()
    # prod_{p>2} (1 - 1/p^2) = 8 / pi^2
    return 8.0 / pi**2 * c_tilde(euler).value * x1 * x2 * x3 * x4

