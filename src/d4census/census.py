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
(bit k is localsolve.CHOICES[k], the order ALL_DELTAS x ALL_NUS):

  * none for the mod-8 class at 2: by Hilbert reciprocity it follows from the
    real place (no choice has d2 = d3 = -1) and the odd-prime masks below;
  * non-degeneracy: depends only on which of m1', m2', m3' equal 1;
  * one mask per odd prime p.  The Legendre condition at p reads
      p | m1':  (m2'm3' / p) = (-d2*d3*2^(a+b) / p),
      p | m2':  (m1'm3' / p) = (d3*2^(mu+b) / p),
      p | m3':  (m1'm2' / p) = (d2*2^(mu+a) / p),
    and the right side depends only on p mod 8 and the choice.  A symbol 0
    on the left (p divides another part) allows no choice, which is the
    coprimality test.

The AND of these masks is the set of admissible choices over the odd triple,
and its popcount the number of admissible signed triples.  The masks of
every (m1', m2', m3') are computed a block at a time, in row-major order: a
block takes as many consecutive m1' as fit in _BATCH_CELLS cells, and at
least one.  Each odd squarefree value's primes sit in columns padded with 0,
and the pad allows every choice.  The primes of m2' (and of m3') are read two
columns at a time: once per census, each pair of columns gets four (m2', m3')
planes, the AND of the two columns' planes for each pair of signs of the
Legendre symbols of m1' at their primes, and a uint8 code per (m1', value)
picks one, so a block takes one row gather per pair; a lone last column gets
two planes.  A prime of m1' reads the outer product of the symbols of m2' and
m3' at it.  The planes and one block are charged against arith.MEMORY_BUDGET
before any is built.

Three readers take the census off the kernel: exact_census (the count),
exact_class_sums (the per-class sums) and census_rows (the CSV breakdown).
The twist count tau(n) * A(X4, n), A(Y, n) = #{t <= Y odd squarefree coprime
to n}, depends only on n = m1'm2'm3', so one product reduction,
_group_by_product, groups the kernel entries by n, and each entry carries
what its reader needs.  For the count and the class sums it packs each
entry into one int64 key as its block leaves the kernel, from high bits to
low:

    n (bits(X1 X2 X3)) | m1' (bits(X3)) | m2' (bits(X1)) | carried value

The count carries the popcount of the mask (4 bits), the class sums the
mask itself (12 bits).  The keys are sorted in place by ndarray.sort, a
group of equal n starts where key >> (the bits below n) changes, and its
first key gives a split of n, m3' = n // (m1' m2').  The key must fit 63
bits, which holds for symmetric boxes up to X = 3250 for the count and
X = 1023 for the class sums.  Wider boxes, and census_rows, whose rows stay
in kernel order, collect the kernel's columns (_kernel_entries) and sort
their int64 products with each entry's index in kernel order below them
(_sort_with_order): one packed key while it fits 63 bits, an argsort when
it does not.  The spf walk SieveTables.prime_columns factors each group's
split into padded prime columns; tau(n) is 2 to the number of primes, and
the twist counters take the same columns and drop the primes above Y = X4.
One call of
SieveTables.count_odd_squarefree_coprime_rows counts them all: when Y fits
the sieve, by one divisor sum A(Y, n) = sum over d | n of mu(d) * C(d) over a
table C of counts of odd squarefree t <= Y divisible by d; above it, by the
memoised recursion once per distinct product, which reads the sieve only up
to isqrt(X4).  So one sieve of max(X1, X2, X3, isqrt(X4)) entries serves the
whole census (required_sieve_limit), however large X4 is.

exact_census weights each product by the sum of its entries' popcounts and
takes the weighted sum as one int64 dot when sum(weight) * max(twists)
<= 2^63 - 1, in Python integers otherwise; exact_class_sums adds its twist
count at each entry's (eps, mask), eps read off the entry's split mod 8;
census_rows expands the set bits of the masks in one numpy step
(_signed_triples) into the signed triples, in (m1', m2', m3', delta, nu)
order, and gives each the twist count of its entry's product group, as one
more int64 column.

The class table.  The per-class sums have one layout: a list of 768 sums,
one per class of localsolve.CLASSES in its order, so entry
12 * _eps_index(m1', m2', m3') + k holds eps = the odd parts mod 8 and
(delta, nu) = CHOICES[k].  exact_class_sums and its independent oracle,
charsum.class_sums, both return it, and readers take a class by its index.

Index convention (documented on the CLI as well): the box coordinate X_i
bounds the i-th invariant, so X1 bounds m2', X2 bounds m3', X3 bounds m1',
X4 bounds the twist.  _kernel_entries performs the mapping onto the
kernel's positional bounds on (m1', m2', m3').  Symmetric boxes are
unaffected.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isfinite, isqrt
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    CapacityError,
    DecomposedTriple,
    SignedSquarefreeTriple,
    SieveTables,
    decompose_triple,
    factor_small,
    kronecker,
    primes_up_to,
    _check_budget,
    _legendre_rows,
    _squarefree_factors,
)
from .localsolve import CHOICES, UNIT_RESIDUES, _eps_index


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
    """The four multi-invariants of a pair (field, isomorphism), and the
    primes of each, increasing."""

    inv1: int
    inv2: int
    inv3: int
    inv4: int
    primes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

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


def required_sieve_limit(box: BoundBox) -> int:
    """Smallest sieve limit covering every read of a census of box: the
    odd-part bounds and isqrt(X4).

    The kernel reads the tables up to max(X1, X2, X3).  The twist counter
    needs them only up to isqrt(X4): above its table it reads mu up to
    sqrt(y) (SieveTables.count_odd_squarefree_coprime).
    """
    return max(int(max(box.x1, box.x2, box.x3)), isqrt(int(box.x4)), 1)


def _is_degenerate(m1: int, m2: int, m3: int) -> bool:
    # For pairwise coprime squarefree entries, a product m_i*m_j is a perfect
    # square only when it equals 1, so degeneracy is this sign pattern check.
    return (m1 == 1 and (m2 == 1 or m3 == 1)) or m2 * m3 == 1


# Bit k of a mask stands for CHOICES[k], the k-th (delta, nu) choice over one
# odd triple; this is also the order in which rows and triples come out.
_ALL_CHOICES = (1 << len(CHOICES)) - 1
# the factors (2^mu, d2*2^alpha, d3*2^beta) that take an odd triple to its
# signed triple, one column per choice
_CHOICE_FACTORS = np.array([(1 << mu, d2 << alpha, d3 << beta)
                            for (d2, d3), (mu, alpha, beta) in CHOICES], dtype=np.int64).T
_INT64_MAX = int(np.iinfo(np.int64).max)
# (prime, value) entries per block of _symbols_at, to bound its int64 temporaries
_SYMBOL_BLOCK = 1 << 16
# (m1', m2', m3') cells per block of the mask kernel: a block takes as many
# consecutive m1' as fit, and at least one.  Larger blocks save no time at
# X = 200 and hold more: on kernel bounds (200, 50, 100) the collected
# kernel peaked at 1.7 MB (tracemalloc) with 2^16 cells, 0.6 MB with 2^14
_BATCH_CELLS = 1 << 14
# The product reduction packs an entry into one int64 key while it fits in
# these bits, and passes over the sorted keys this many entries at a time
_KEY_BITS = 63
_KEY_CHUNK = 1 << 16
# the Legendre symbols -1, 0, +1, as a column
_SYMBOLS = np.array([[-1], [0], [1]], dtype=np.int8)


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

    nondeg[o1, o2, o3]: non-degeneracy, with o_i = [m_i' == 1].
    sign[i, p % 8, s + 1]: the odd-prime condition at p | m_(i+1)' when the
        Legendre symbol at p of the other two odd parts is s; s = 0 means p
        divides them and allows no choice.  Row p % 8 = 0 allows every choice:
        it pads m3' = 1, which has no prime.
    choice_bits[mask, k]: 1 when the mask holds CHOICES[k], as uint8.
    """

    nondeg: np.ndarray
    sign: np.ndarray
    choice_bits: np.ndarray


@lru_cache(maxsize=None)
def _live_choices() -> np.ndarray:
    """1 where the signed triple of a choice is non-degenerate, else 0, by
    which odd parts equal 1 (row 4*[m1' = 1] + 2*[m2' = 1] + [m3' = 1]) and
    choice (column, CHOICES order), as int64."""
    rows = []
    for o1, o2, o3 in itertools.product((0, 1), repeat=3):
        # an odd part other than 1 stands in as a prime of its own
        p1, p2, p3 = (1 if o1 else 3), (1 if o2 else 5), (1 if o3 else 7)
        rows.append([not _is_degenerate((1 << mu) * p1, d2 * (1 << alpha) * p2,
                                        d3 * (1 << beta) * p3)
                     for (d2, d3), (mu, alpha, beta) in CHOICES])
    table = np.array(rows, dtype=np.int64)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _mask_tables() -> _MaskTables:
    nondeg = (_live_choices() << np.arange(len(CHOICES))).sum(axis=1).reshape(2, 2, 2)
    # (a / p) for a in {+-1, +-2} depends on p mod 8 only: it is the Jacobi
    # symbol (a / r) with r = p mod 8
    sign = np.zeros((3, 8, 3), dtype=np.uint16)
    sign[:, 0, :] = _ALL_CHOICES
    for i, r, s in itertools.product(range(3), UNIT_RESIDUES, (1, -1)):
        sign[i, r, s + 1] = _choice_mask(
            lambda delta, nu: kronecker(_required_symbols(delta, nu)[i], r) == s)
    choice_bits = (np.arange(_ALL_CHOICES + 1)[:, None] >> np.arange(len(CHOICES)) & 1)
    return _MaskTables(nondeg=nondeg.astype(np.uint16), sign=sign,
                       choice_bits=choice_bits.astype(np.uint8))


# The kernel's peak in bytes.  Per (m2', m3') plane entry: 4 per prime column
# of m2' or m3' (a pair of columns holds four uint16 planes, one per pair of
# signs of the symbols of m1', and a lone column two).  Per cell of one block,
# the plane times the m1' a block takes: 48 for the non-degeneracy planes and
# the block with its temporaries.  Per (m1', m2') or (m1', m3') entry: 1 per
# prime column for the symbols and codes of m1', plus 2.  tracemalloc at
# X = 100 to 2000 read 47-74% of this charge; the 48 is kept although less
# would do, so that the boxes refused with exit 3 stay.
_PLANE_BYTES_PER_COLUMN = 4
_PLANE_BYTES = 48
_PAIR_BYTES = 2


# 3, 3*5, 3*5*7, ...: the products of the first k odd primes, past 2^63
_ODD_PRIMORIALS = tuple(itertools.accumulate(primes_up_to(60)[1:].tolist(), operator.mul))


def _most_odd_primes(bound: int) -> int:
    """The most primes of an odd squarefree value <= bound, which is the
    width of SieveTables.prime_columns over all of them: the largest k whose
    product of the first k odd primes is <= bound."""
    return bisect_right(_ODD_PRIMORIALS, bound)


def _symbols_at(values: np.ndarray, primes: np.ndarray):
    """A look-up p -> the Legendre symbols (values / p) as int8, for p in
    primes or an array of them; the pad prime 0 gives all 1.

    Euler's criterion (arith._legendre_rows), about len(values) * log p work
    per odd prime, for a block of primes at a time.  p is below the sieve
    limit, which the memory budget keeps under 2^31.
    """
    # a presence table, not np.unique or np.union1d: those import numpy.ma
    seen = np.zeros(int(primes.max(initial=0)) + 1, dtype=bool)
    seen[primes] = seen[0] = True
    distinct = np.flatnonzero(seen)
    rows = np.ones((len(distinct), len(values)), dtype=np.int8)
    step = max(1, _SYMBOL_BLOCK // max(len(values), 1))
    for start in range(1, len(distinct), step):
        rows[start:start + step] = _legendre_rows(values, distinct[start:start + step, None])
    return lambda p: rows[np.searchsorted(distinct, p)]


def _paired_planes(sign: np.ndarray, primes: np.ndarray, symbols, width: int, at1, n1: int):
    """The sign planes of one odd part, precombined over its prime columns two
    at a time (the last alone when their number is odd).

    primes holds the part's n values' prime columns, and symbols(p) the
    Legendre symbols at each p of the other part's width values.  Each group
    of w columns gives (planes, codes).  planes is (2^w, n, width) uint16:
    row [c, j] holds the choices at the group's primes of value j, for
    the symbols of m1' read off c: bit w - 1 - i of c is set when the symbol
    of m1' at the group's i-th prime is +1, clear when -1 or 0.  codes is
    (n1, n) uint8, the c of each m1' and value.  Each column is folded into
    its group's planes as it is built, so a pair holds the bytes of the four
    planes, two per sign of each column, that it replaces.
    """
    n = len(primes)
    for k in range(0, primes.shape[1], 2):
        group = primes[:, k:k + 2].T
        planes = np.empty((2,) * len(group) + (n, width), dtype=np.uint16)
        codes = np.zeros((n1, n), dtype=np.uint8)
        for i, p in enumerate(group):
            s = symbols(p)
            for bit in (0, 1):
                plane = sign[p[:, None] % 8, (2 * bit - 1) * s + 1]
                if i:
                    planes[:, bit] &= plane
                else:
                    planes[bit] = plane
            codes <<= 1
            codes |= at1(p).T > 0
        yield planes.reshape(-1, n, width), codes


def _block_entries(block: np.ndarray, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray):
    """(m1', m2', m3', masks) of the nonzero cells of a kernel block
    [m1', m2', m3'] over the values v1, v2 and v3, in row-major order."""
    # flatnonzero of a bool array runs without branches, of the uint16 block not
    j3 = np.flatnonzero(block != 0)
    masks = block.ravel()[j3]
    j2 = j3 // len(v3)
    j3 -= j2 * len(v3)  # in place, as below: a cell's indices take 8 bytes each
    m3 = v3[j3]
    del j3
    i1 = j2 // len(v2)
    j2 -= i1 * len(v2)
    return v1[i1], v2[j2], m3, masks


def _mask_blocks(
    bound1: float, bound2: float, bound3: float, tables: SieveTables,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The mask kernel: yield (m1', m2', m3', masks), the triples of
    m1' <= bound1, m2' <= bound2 and m3' <= bound3 that admit some choice,
    in row-major (m1', m2', m3') order, and their nonzero choice masks, a
    block of consecutive m1' at a time.  CapacityError, in this order, when
    the products may overflow int64, when a bound is past the sieve, or when
    the kernel's tables do not fit arith.MEMORY_BUDGET: all three before any
    of the kernel's inputs, the value lists and prime columns, is built."""
    tops = tuple(int(max(b, 0)) for b in (bound1, bound2, bound3))
    if tops[0] * tops[1] * tops[2] > _INT64_MAX:
        raise CapacityError(f"odd-part bounds {tops}: the product m1'*m2'*m3' may overflow int64")
    n1, n2, n3 = map(tables.odd_squarefree_count, tops)
    k2, k3 = map(_most_odd_primes, tops[1:])  # the most primes of an m2' and an m3'
    batch = max(1, _BATCH_CELLS // max(n2 * n3, 1))  # the m1' of one block
    _check_budget(f"mask kernel of {n1} x {n2} x {n3} odd parts",
                  n2 * n3 * (_PLANE_BYTES_PER_COLUMN * (k2 + k3) + _PLANE_BYTES * min(batch, n1))
                  + n1 * (n2 * (k2 + _PAIR_BYTES) + n3 * (k3 + _PAIR_BYTES)))
    if not (n1 and n2 and n3):
        return
    v1, v2, v3 = (np.array(tables.odd_squarefree_upto(b), dtype=np.int64) for b in tops)
    p1, p2, p3 = map(tables.prime_columns, (v1, v2, v3))
    masks = _mask_tables()
    at1, at2, at3 = (_symbols_at(v1, np.append(p2, p3)), _symbols_at(v2, np.append(p1, p3)),
                     _symbols_at(v3, np.append(p1, p2)))
    # the groups of m2' read rows (m2', m3'); those of m3' read rows (m3', m2')
    groups2 = list(_paired_planes(masks.sign[1], p2, at3, n3, at1, n1))
    groups3 = list(_paired_planes(masks.sign[2], p3, at2, n2, at1, n1))
    one2, one3 = (v2[:, None] == 1).astype(np.intp), (v3 == 1).astype(np.intp)
    nondeg = np.stack([masks.nondeg[o][one2, one3] for o in (0, 1)])
    one1 = (v1 == 1).astype(np.intp)
    rows2, rows3 = np.arange(n2), np.arange(n3)
    for start in range(0, n1, batch):
        stop = min(start + batch, n1)
        block = nondeg[one1[start:stop]]  # [m1', m2', m3']
        for planes, codes in groups2:
            block &= planes[codes[start:stop], rows2]
        for planes, codes in groups3:
            block &= planes[codes[start:stop], rows3].transpose(0, 2, 1)
        for p in p1[start:stop].T:
            if not p.any():
                break  # a value's primes come first in its row, then the pad 0
            # the choices at p over m3', one row per symbol -1, 0, +1 of m2'
            rows = masks.sign[0][p[:, None, None] % 8, at3(p)[:, None] * _SYMBOLS + 1]
            block &= rows[np.arange(len(p))[:, None], at2(p) + 1]
        if block.any():
            yield _block_entries(block, v1[start:stop], v2, v3)


def _signed_triples(m1p: np.ndarray, m2p: np.ndarray, m3p: np.ndarray, masks: np.ndarray):
    """(entry, m1, m2, m3) as int64 arrays, one row per choice set in masks[entry],
    in (entry, delta, nu) order; the odd parts m_i' hold one value per entry."""
    # flat, so that entry and k are two arrays and not views of one (rows, 2)
    # buffer, and k is freed on return; the bits are 0 or 1, so a bool view
    # lets flatnonzero run without branches
    k = np.flatnonzero(_mask_tables().choice_bits[masks].view(bool))
    entry = k // len(CHOICES)
    k -= entry * len(CHOICES)
    return (entry, *(m[entry] * factor[k] for m, factor in zip((m1p, m2p, m3p), _CHOICE_FACTORS)))


def _kernel_entries(box: BoundBox, tables: SieveTables):
    """The kernel over box, collected once for a census reader: per entry, in
    kernel order, the columns m1', m2' and m3', each in the smallest unsigned
    type that holds its bound, and the masks as uint16."""
    # X3 bounds m1', X1 bounds m2', X2 bounds m3'
    bounds = (box.x3, box.x1, box.x2)
    types = [np.min_scalar_type(int(b)) for b in bounds] + [np.uint16]
    parts = [[np.zeros(0, dtype=t)] for t in types]
    for columns in _mask_blocks(*bounds, tables):
        for column_parts, column, t in zip(parts, columns, types):
            column_parts.append(column.astype(t, copy=False))
    # one column at a time, its parts freed before the next is joined
    return tuple(np.concatenate(parts.pop(0)) for _ in types)


def _key_layout(box: BoundBox, carry: np.ndarray) -> tuple[int, int, int] | None:
    """(b1, b2, bc): the bits of m1' (bits(X3)), m2' (bits(X1)) and the
    carried value (those of carry's largest value) in the packed key of box's
    kernel entries; None when the key, bits(X1 X2 X3) + b1 + b2 + bc bits,
    is wider than _KEY_BITS."""
    tops = [int(max(b, 0)) for b in (box.x3, box.x1, box.x2)]
    b1, b2, bc = tops[0].bit_length(), tops[1].bit_length(), int(carry.max()).bit_length()
    width = (tops[0] * tops[1] * tops[2]).bit_length() + b1 + b2 + bc
    return (b1, b2, bc) if width <= _KEY_BITS else None


def _group_starts(keys: np.ndarray, shift: int) -> np.ndarray:
    """Where each run of equal keys >> shift starts in the sorted int64
    keys, compared a chunk at a time."""
    parts = [np.zeros(min(len(keys), 1), dtype=np.intp)]
    for lo in range(1, len(keys), _KEY_CHUNK):
        n = keys[lo - 1:lo + _KEY_CHUNK] >> shift
        part = np.flatnonzero(n[1:] != n[:-1])
        part += lo
        parts.append(part)
    return np.concatenate(parts)


def _sort_with_order(products: np.ndarray) -> np.ndarray:
    """Sort the int64 products in place and return the order that sorts
    them: through one packed key, the product over the entry's index, sorted
    in place while it fits _KEY_BITS, and an argsort otherwise."""
    bits = len(products).bit_length()
    if int(products.max(initial=0)).bit_length() + bits > _KEY_BITS:
        order = np.argsort(products)
        products.sort()
        return order
    products <<= bits
    for lo in range(0, len(products), _KEY_CHUNK):
        products[lo:lo + _KEY_CHUNK] |= np.arange(lo, min(lo + _KEY_CHUNK, len(products)))
    products.sort()
    order = products & ((1 << bits) - 1)
    products >>= bits
    return order


class _Groups(NamedTuple):
    """The kernel entries grouped by their product n = m1'*m2'*m3', in
    product order (_group_by_product)."""

    starts: np.ndarray  # where each distinct n's entries start, n increasing
    head: tuple  # (m1', m2', m3') of one entry of each distinct n: a split of it
    size: int  # the number of entries
    carried: Callable[[int, int], np.ndarray]  # (lo, hi) -> what entries lo..hi carry
    # (lo, hi) -> (m1', m2', m3') of entries lo..hi; None when they carry their index
    split: Callable[[int, int], tuple] | None

    def chunks(self) -> Iterator[tuple[int, int, int, int]]:
        """(g0, g1, lo, hi): the products g0..g1-1 and their entries lo..hi,
        whole groups of about _KEY_CHUNK entries at a time."""
        g0 = 0
        while g0 < len(self.starts):
            lo = int(self.starts[g0])
            g1 = int(np.searchsorted(self.starts, lo + _KEY_CHUNK))
            yield g0, g1, lo, int(self.starts[g1]) if g1 < len(self.starts) else self.size
            g0 = g1


def _group_by_product(box: BoundBox, tables: SieveTables, carry: np.ndarray | None,
                      columns: tuple | None = None) -> _Groups:
    """The census's product reduction: group the kernel entries of box by
    their product n = m1'*m2'*m3', in increasing n; _twist_counts then
    counts each distinct n's twists once, from its head's split.

    Each entry carries carry[mask], from a table over the 12-bit masks; or,
    when carry is None, its index in kernel order.  columns are the kernel's
    entry columns (m1', m2', m3') when the caller has collected them; else
    the kernel runs here.

    The packed key.  When the caller passes no columns and _key_layout fits,
    each entry is packed into one int64 key, from high bits to low: n, m1',
    m2' and what it carries.  The keys are built a kernel block at a time,
    as the blocks leave the kernel, and sorted in place by ndarray.sort; the
    groups start where key >> (the bits below n) changes, and a group's head
    gives a split of n, with m3' = n // (m1' m2').  Otherwise the entry
    columns are grouped by their int64 products (_sort_with_order), and each
    group's head entry gives the split.
    """
    layout = None if columns is not None else _key_layout(box, carry)
    if layout is not None:
        b1, b2, bc = layout
        shift = b1 + b2 + bc  # the bits below n

        def pack(m1, m2, m3, masks):
            key = m1 * m2
            key *= m3
            for value, bits in ((m1, b1), (m2, b2), (carry[masks], bc)):
                key <<= bits
                key |= value
            return key

        blocks = _mask_blocks(box.x3, box.x1, box.x2, tables)
        keys = np.concatenate([np.zeros(0, dtype=np.int64)] + [pack(*b) for b in blocks])
        keys.sort()  # in place: numpy's SIMD sort on int64
        starts = _group_starts(keys, shift)

        def split(k):
            m2 = (k >> bc) & ((1 << b2) - 1)
            m1 = (k >> (b2 + bc)) & ((1 << b1) - 1)
            return m1, m2, (k >> shift) // (m1 * m2)

        size, head = len(keys), split(keys[starts])
        carried = lambda lo, hi: keys[lo:hi] & ((1 << bc) - 1)
        split_of = lambda lo, hi: split(keys[lo:hi])
    else:
        m1, m2, m3, masks = _kernel_entries(box, tables) if columns is None else (*columns, None)
        values = None if carry is None else carry[masks]
        del masks
        products = m1.astype(np.int64)
        products *= m2
        products *= m3
        order = _sort_with_order(products)
        size, starts = len(products), _group_starts(products, 0)
        del products
        head = order[starts]
        head = tuple(m[head] for m in (m1, m2, m3))
        if values is None:  # the caller holds the columns, so no split of them is kept
            carried, split_of = (lambda lo, hi: order[lo:hi]), None
        else:
            carried = lambda lo, hi: values[order[lo:hi]]
            split_of = lambda lo, hi: tuple(m[order[lo:hi]] for m in (m1, m2, m3))
    return _Groups(starts, head, size, carried, split_of)


def _twist_counts(head: tuple, x4: float, tables: SieveTables) -> np.ndarray:
    """tau(n) * A(X4, n) for each n = m1'*m2'*m3' split by the columns of
    head, as int64, in one call of SieveTables.count_odd_squarefree_coprime_rows."""
    # the twist step reads only the primes of a split, so any split will do
    columns = np.concatenate([tables.prime_columns(m) for m in head], axis=1)
    # A counts t <= X4 only, so it is at most (X4 + 1) / 2 < 5e14 (the budget
    # keeps isqrt(X4) under 31.6M); tau(n) = 2^omega(n) <= 2^14 for n < 2^63,
    # so tau * A < 2^14 * 5e14 fits int64
    return ((1 << np.count_nonzero(columns, axis=1))
            * tables.count_odd_squarefree_coprime_rows(x4, columns))


def exact_census(box: BoundBox, tables: SieveTables) -> CensusReport:
    """Exact count of pairs with invariants in the box, in integers only: the
    predicted main term and its ratio are the caller's (asymptotic.predicted_count).

    Deterministic: the kernel runs once, and each distinct product
    n = m1'*m2'*m3' is twist-counted once and weighted by the popcounts its
    entries carry (_group_by_product).  The weighted sum is one int64 dot
    when sum(weight) * max(twists) <= 2^63 - 1: every term is non-negative,
    so that bounds every partial sum.  Otherwise it is taken in Python ints.
    """
    popcounts = _mask_tables().choice_bits.sum(axis=1, dtype=np.uint8)
    groups = _group_by_product(box, tables, popcounts)
    weight = np.zeros(len(groups.starts), dtype=np.int64)
    for g0, g1, lo, hi in groups.chunks():
        weight[g0:g1] = np.add.reduceat(groups.carried(lo, hi), groups.starts[g0:g1] - lo,
                                        dtype=np.int64)
    head = groups.head
    del groups  # the keys are freed before the twist step
    twists = _twist_counts(head, box.x4, tables)
    triples_visited = int(weight.sum())
    if triples_visited * int(twists.max(initial=0)) <= _INT64_MAX:
        total = int(np.dot(weight, twists))
    else:
        total = sum(w * t for w, t in zip(weight.tolist(), twists.tolist()))
    return CensusReport(exact=4 * total, triples_visited=triples_visited)


def census_rows(box: BoundBox, tables: SieveTables,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The admissible signed triples of the box and their twist counts: the
    rows of the CSV breakdown, in kernel order, (m1', m2', m3', delta, nu).

    Admissible means: pairwise coprime squarefree with m1 > 0, the governing
    conic locally (hence globally) soluble, and non-degenerate (no product of
    two entries a perfect square, so the biquadratic field is genuine).

    Returns (m1, m2, m3, twists): the triples and tau(n) * A(X4, n),
    n = m1'*m2'*m3', per row, as int64 columns.  Four times the sum of the
    twists is exact_census(box, tables).exact; the sum itself may pass 2^63,
    so the CLI's writer carries it in two limbs (cli.breakdown_csv).
    """
    m1, m2, m3, masks = _kernel_entries(box, tables)
    row_entry, *signed = _signed_triples(m1, m2, m3, masks)
    del masks
    # the rows stay in kernel order: each entry carries its index in it
    groups = _group_by_product(box, tables, None, (m1, m2, m3))
    del m1, m2, m3
    group = np.empty(groups.size, dtype=np.intp)  # each entry's product, among the distinct ones
    for g0, g1, lo, hi in groups.chunks():
        group[groups.carried(lo, hi)] = np.repeat(np.arange(g0, g1),
                                                  np.diff(groups.starts[g0:g1], append=hi))
    head = groups.head
    del groups  # and with it the order and the columns it reads
    row_group = group[row_entry]
    del row_entry, group
    return (*signed, _twist_counts(head, box.x4, tables)[row_group])


def exact_class_sums(box: BoundBox, tables: SieveTables) -> list[int]:
    """The exact census sum of every residue class (eps, delta, nu), read off
    the mask kernel: the sum of tau(n) * A(X4, n), n = m1'*m2'*m3', over the
    admissible signed triples of the box in the class.

    The sums come in the layout of the class table (module docstring):
    entry 12 * _eps_index(m1', m2', m3') + k for (delta, nu) = CHOICES[k],
    equal to charsum.class_sums entry by entry.  Four times the total is
    exact_census.  The kernel builds no class mask at 2; by
    Hilbert reciprocity its triples fall in admissible classes only, so the
    336 inadmissible entries are 0.

    Each entry carries its mask through the census's product reduction, and
    its twist count is added at (eps index of its own split, mask); one
    product with the table of choice bits spreads each mask over its
    choices.  The sum is in int64 while the number of entries times the
    largest twist stays below 2^63, so that no partial sum can overflow, and
    in Python ints otherwise.
    """
    groups = _group_by_product(box, tables, np.arange(_ALL_CHOICES + 1, dtype=np.uint16))
    twists = _twist_counts(groups.head, box.x4, tables)
    exact = groups.size * int(twists.max(initial=0)) <= _INT64_MAX
    sums = np.zeros((len(UNIT_RESIDUES) ** 3, _ALL_CHOICES + 1), np.int64 if exact else object)
    for g0, g1, lo, hi in groups.chunks():
        twist = np.repeat(twists[g0:g1], np.diff(groups.starts[g0:g1], append=hi))
        np.add.at(sums, (_eps_index(*groups.split(lo, hi)), groups.carried(lo, hi)),
                  twist if exact else twist.astype(object))
    return (sums @ _mask_tables().choice_bits).ravel().tolist()


def invariants_of(triple: SignedSquarefreeTriple | DecomposedTriple, t: int) -> InvariantVector:
    """Invariant vector (m2', m3', m1', t) of the octic labeled by triple and
    twist t; a triple given already decomposed is not factored again."""
    dec = triple if isinstance(triple, DecomposedTriple) else decompose_triple(triple)
    if t <= 0 or t % 2 == 0:
        raise ValueError(f"twist must be a positive odd integer, got {t}")
    t_primes = _squarefree_factors(t)
    if t_primes is None:
        raise ValueError(f"twist {t} is not squarefree")
    for p in t_primes:
        if (dec.m1p * dec.m2p * dec.m3p) % p == 0:
            raise ValueError(f"twist {t} shares the factor {p} with the triple")
    m1_primes, m2_primes, m3_primes = dec.primes
    return InvariantVector(inv1=dec.m2p, inv2=dec.m3p, inv3=dec.m1p, inv4=t,
                           primes=(m2_primes, m3_primes, m1_primes, t_primes))


def inertia_class(p: int, vec: InvariantVector) -> InertiaClass:
    """Inertia class of the odd prime p in the octic with invariants vec.

    p = 2 is rejected: when 2 ramifies it does so wildly and carries no class
    here.
    """
    if p == 2:
        raise ValueError("2 ramifies wildly; no tame inertia class")
    if p < 3 or factor_small(p) != (p,):
        raise ValueError(f"{p} is not an odd prime")
    # the invariants are pairwise coprime, so p divides at most one of them
    for i, primes in enumerate(vec.primes, 1):
        if p in primes:
            return INERTIA_CLASS_OF_INVARIANT[i]
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
