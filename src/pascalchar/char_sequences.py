"""Character-twisted row sums over Pascal's triangle mod p.

T(n) sums chi over the entries of row n; phi(n) sums T over all rows
below n. Both are fully determined by the first p rows: T is a digitwise
product over the base-p digits of n, and phi obeys the block identity

    phi(m*p^j + r) = phi(m)*phi(p)^j + T(m)*phi(r),  r < p^j,

with T(m*p^j + r) = T(m)*T(r). So a block r of j digits acts on the
state (phi, T) as one lower-triangular matrix [[phi(p)^j, 0],
[phi(r), T(r)]]. phi_and_T cuts the digit string into leaf blocks of
b digits, b the most for which (p(p+1)/2)^b < 2^63, and computes every
leaf exactly in int64 in one vectorised pass of one-digit steps: every
coefficient counts triangle entries below p^b, so none can overflow.
It then joins the leaves up a balanced tree (binary splitting), so the
halves of every join have about equal length. phi_chi and T_chi keep
the one-digit recursion (the case j = 1) on CycInt values as its
oracles. Everything here stays exact (int64 only under that bound, then
CycInt coefficient vectors of arbitrary-size integers); numeric
embeddings happen only at the reporting edge.

Residue counts need no characters at all. CycInt multiplication is
convolution in the group ring Z[C_{p-1}], so for the generator character
chi(g) = zeta the same recursions carry dlog histograms: T(n) tallies
row n and phi(n) tallies rows 0..n-1 by discrete log.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characters import Character, CycInt, _cyclic_convolve
from .core_arith import ROW_ORACLE_LIMIT, PrimeContext, to_digits
from .errors import IndexOutOfRange, LimitExceeded


@dataclass(frozen=True, eq=False)
class FundamentalTables:
    """Exact T and phi values over the first p rows for one character.

    layout is the int64 (2p+1, order) coefficient array of table_layout:
    rows 0..p-1 hold T(b) for b < p, and rows p..2p hold phi(m) for
    m <= p. phi_and_T reads it directly; T_table and phi_table are the
    same rows as CycInt values, for the oracles and the reporting edge.
    """

    chi: Character
    layout: np.ndarray

    @property
    def p(self) -> int:
        return self.chi.ctx.p

    @cached_property
    def T_table(self) -> tuple[CycInt, ...]:
        return tuple(CycInt(self.chi.order, tuple(row)) for row in self.layout[: self.p].tolist())

    @cached_property
    def phi_table(self) -> tuple[CycInt, ...]:
        return tuple(CycInt(self.chi.order, tuple(row)) for row in self.layout[self.p :].tolist())

    @property
    def phi_p(self) -> CycInt:
        return self.phi_table[self.p]


def pushforward(hist: np.ndarray, chi: Character) -> np.ndarray:
    """Coefficients of chi's sums over the dlog tallies hist[..., e]: each
    tally scattered along e -> (k*e) mod order, collisions accumulated."""
    n = hist.shape[-1]
    coeff = np.zeros(hist.shape, dtype=np.int64)
    np.add.at(coeff, (..., (chi.k * np.arange(n)) % n), hist)
    return coeff


def tally_sum(tally: np.ndarray, chi: Character) -> CycInt:
    """The exact sum of chi over the entries that one dlog tally counts."""
    return CycInt(chi.order, tuple(pushforward(tally, chi).tolist()))


def table_layout(rows: np.ndarray) -> np.ndarray:
    """rows[b] for b < p, then their prefix sums over b < m for m <= p: over
    the domain rows' dlog tallies, T(b) and then phi(m), the tables' layout."""
    return np.vstack([rows, np.zeros_like(rows[:1]), np.cumsum(rows, axis=0)])


def build_tables(chi: Character) -> FundamentalTables:
    return FundamentalTables(chi, table_layout(pushforward(chi.ctx.row_dlog_hist, chi)))


def _leaf_digits(p: int) -> int:
    """The most digits b with (p(p+1)/2)^b < 2^63, the leaf size of
    phi_and_T (at least 1 for every p below 4*10^9)."""
    tri = p * (p + 1) // 2
    b = 1
    while tri ** (b + 1) < 1 << 63:
        b += 1
    return b


def _leaf_blocks(chunks: np.ndarray, tables: FundamentalTables) -> tuple[np.ndarray, np.ndarray]:
    """int64 phi and T of every row of chunks (C, b), digits most
    significant first, and then phi(p)^b in an extra last row.

    With g = gcd(order, k) every table row vanishes off the multiples of
    g, so the states keep only those m = order/g coefficients, and the
    product with a fixed row is a matmul with its (m, m) circulant, a
    strided view of the row written out twice. One append-a-digit step
    multiplies every phi by phi(p) at once and every chunk with digit d
    by the rows of d; digit 0 leaves a state as it is (phi(0) = 0 and
    T(0) = 1), so the zero padding of the top chunk costs nothing. The
    extra row starts at (phi(p), 0) and meets only zeros.
    """
    p, order = tables.p, tables.chi.order
    lay = tables.layout[:, :: math.gcd(order, tables.chi.k)]
    m = lay.shape[1]
    # circ[i][x, y] = lay[i, (y - x) % m], so that v @ circ[i] = v * row i mod x^m - 1
    circ = sliding_window_view(np.concatenate([lay[:, 1:], lay], axis=1), m, axis=1)[:, ::-1]
    phi = np.vstack([lay[p + chunks[:, 0]], lay[2 * p]])
    t = np.vstack([lay[chunks[:, 0]], np.zeros(m, dtype=np.int64)])
    for column in chunks[:, 1:].T:
        phi = phi @ circ[2 * p]
        for d in set(column.tolist()) - {0}:
            rows = (column == d).nonzero()[0]
            t_rows = t[rows]
            phi[rows] += t_rows @ circ[p + d]
            t[rows] = t_rows @ circ[d]
    return phi, t


def phi_and_T(n: int, tables: FundamentalTables) -> tuple[CycInt, CycInt]:
    """(phi(n), T(n)) by halving the base-p digits of n recursively,
    down to leaf blocks of b digits computed exactly in int64.

    The digits split, from the low end, into C = ceil(L/b) chunks of b
    digits, the top one padded with leading zeros. A run of C > 1 chunks
    splits into its high C - C//2 and its low j = C//2 chunks, and the
    halves join by the block identity with phi(p)^(j*b); the halves of
    every join have about equal length, so wide values meet wide values.
    Each phi(p)^(j*b) is formed once per call, from phi(p)^((j//2)*b) and
    phi(p)^((j - j//2)*b), and phi(p)^b comes from the leaf pass. All the
    leaves come from one vectorised pass (_leaf_blocks); each becomes a
    CycInt when the recursion reaches it.

    Why int64 is exact: b is the largest integer with (p(p+1)/2)^b < 2^63.
    Every coefficient of the tables is a nonnegative count of entries
    (pushforward only adds tallies), so every coefficient of phi(r),
    T(r) and phi(p)^s built from them is a sum of products of
    nonnegative counts, and every partial sum of a convolution that forms
    one is at most the finished coefficient, whatever the summation
    order. The coefficients of phi(r) add up to the number of nonzero
    entries in rows 0..r-1, those of T(r) to the number in row r, and
    those of phi(p)^s to (p(p+1)/2)^s, the number in rows below p^s. For
    r < p^b and s <= b all of these are at most (p(p+1)/2)^b < 2^63.
    """
    if n < 0:
        raise IndexOutOfRange(f"n={n} negative")
    order, b = tables.chi.order, _leaf_digits(tables.p)
    digits = to_digits(n, tables.p).digits
    count = -(-len(digits) // b)
    chunks = np.array(digits + (0,) * (count * b - len(digits)))[::-1].reshape(count, b)
    phi_rows, t_rows = (x.tolist() for x in _leaf_blocks(chunks, tables))
    g = order // len(phi_rows[0])

    def value(row: list[int]) -> CycInt:
        coeffs = [0] * order
        coeffs[::g] = row
        return CycInt(order, tuple(coeffs))

    def leaf(c: int) -> tuple[CycInt, CycInt]:
        return value(phi_rows[c]), value(t_rows[c])

    return _join(0, count, leaf, {1: value(phi_rows[count])})


# _join and _power recurse at module level: a nested function that calls
# itself is a reference cycle, which would keep every value it held,
# phi(p)^(j*b) included, alive until the cycle collector runs


def _join(
    lo: int, hi: int, leaf: Callable[[int], tuple[CycInt, CycInt]], powers: dict[int, CycInt]
) -> tuple[CycInt, CycInt]:
    """(phi, T) of the chunks lo..hi-1 taken as one number; powers maps
    j to phi(p)^(j*b)."""
    if hi - lo == 1:
        return leaf(lo)
    j = (hi - lo) // 2
    phi_hi, t_hi = _join(lo, hi - j, leaf, powers)
    phi_lo, t_lo = _join(hi - j, hi, leaf, powers)
    return phi_hi * _power(j, powers) + t_hi * phi_lo, t_hi * t_lo


def _power(j: int, powers: dict[int, CycInt]) -> CycInt:
    if j not in powers:
        powers[j] = _power(j // 2, powers) * _power(j - j // 2, powers)
    return powers[j]


def _times_row(x: CycInt, row: CycInt) -> CycInt:
    """x * row for a fixed table row. Kronecker packs the row into slots
    as wide as x's coefficients; the schoolbook loop (row outer) makes one
    pass over x per nonzero row term instead, and is the cheaper once a
    single coefficient of x holds more bits than the whole row."""
    if max(map(abs, x.coeffs)).bit_length() < sum(c.bit_length() for c in row.coeffs):
        return x * row
    return CycInt(x.order, _cyclic_convolve(row.coeffs, x.coeffs, x.order))


def T_chi(n: int, tables: FundamentalTables) -> CycInt:
    """Row sum at n: the plain product of T over the base-p digits of n
    (the oracle for phi_and_T's T, independent of its recursion)."""
    if n < 0:
        raise IndexOutOfRange(f"n={n} negative")
    out = CycInt.one(tables.chi.order)
    for d in to_digits(n, tables.p).digits:
        out = _times_row(out, tables.T_table[d])
    return out


def phi_chi(n: int, tables: FundamentalTables) -> CycInt:
    """Cumulative sum of T over rows 0..n-1, read one digit at a time
    (the sequential oracle for phi_and_T).

    With state (phi, T) of the prefix m, appending digit d sends m to
    m*p + d, and phi(m*p + d) = phi(m)*phi(p) + T(m)*phi(d).
    """
    if n < 0:
        raise IndexOutOfRange(f"n={n} negative")
    acc = CycInt.zero(tables.chi.order)
    t = CycInt.one(tables.chi.order)
    for d in reversed(to_digits(n, tables.p).digits):
        acc = _times_row(acc, tables.phi_p) + _times_row(t, tables.phi_table[d])
        t = _times_row(t, tables.T_table[d])
    return acc


@dataclass(frozen=True)
class CountVector:
    """Occurrence counts per residue 0..p-1 over rows 0..n-1."""

    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, r: int) -> int:
        return self.counts[r]

    @property
    def total(self) -> int:
        return sum(self.counts)


def _residue_counts(hist: CycInt, entries: int, ctx: PrimeContext) -> CountVector:
    """Counts per residue from the dlog histogram of the nonzero entries
    among `entries` entries; the zeros are what remains."""
    counts = [entries - sum(hist.coeffs)] + [0] * (ctx.p - 1)
    for r in range(1, ctx.p):
        counts[r] = hist.coeffs[ctx.dlog[r]]
    return CountVector(tuple(counts))


def a_row(n: int, ctx: PrimeContext) -> CountVector:
    """Residue counts within the single row n, exactly.

    Nonzero entries factor through base-p digits, so their discrete-log
    histogram is T(n) of the generator character, the group-ring product
    of the per-digit row histograms.
    """
    return _residue_counts(phi_and_T(n, ctx.group_ring_tables)[1], n + 1, ctx)


def A_count_bruteforce(n: int, ctx: PrimeContext, limit: int = ROW_ORACLE_LIMIT) -> CountVector:
    """Oracle: tally residues over rows 0..n-1 by the additive recurrence.

    Deliberately independent of a_row and of the character formula; used
    to cross-check both. Costs O(n^2) and refuses n beyond `limit`.
    """
    if n < 0:
        raise IndexOutOfRange(f"n={n} negative")
    if n > limit:
        raise LimitExceeded(f"n={n} exceeds brute-force limit {limit}")
    p = ctx.p
    counts = np.zeros(p, dtype=np.int64)
    row = np.zeros(n + 1, dtype=np.int64)
    row[0] = 1
    for u in range(n):
        counts += np.bincount(row[: u + 1], minlength=p)
        row[1 : u + 2] += row[: u + 1].copy()
        row %= p
    return CountVector(tuple(int(c) for c in counts))


def A_count_formula(n: int, r: int, ctx: PrimeContext) -> int:
    """Count occurrences of residue r in rows 0..n-1.

    The character-sum inversion A(r) = (1/(p-1)) * sum over all
    characters of conj(chi)(r) * phi_chi(n) reads one coefficient of a
    single group-ring element: phi(n) of the generator character is the
    dlog histogram of rows 0..n-1, and every other phi_chi(n) is its
    image under e -> k*e. So A(r) is that histogram at dlog r, from one
    digit recursion with exact integer coefficients.
    """
    p = ctx.p
    if not 1 <= r % p <= p - 1:
        raise IndexOutOfRange(f"r={r} is divisible by p={p}")
    return phi_and_T(n, ctx.group_ring_tables)[0].coeffs[ctx.dlog[r % p]]


def A_count_formula_all(n: int, ctx: PrimeContext) -> CountVector:
    """Counts for every residue at once, from the same single histogram.

    The zero count is recovered by conservation: rows 0..n-1 hold
    n(n+1)/2 entries in total.
    """
    return _residue_counts(phi_and_T(n, ctx.group_ring_tables)[0], n * (n + 1) // 2, ctx)
