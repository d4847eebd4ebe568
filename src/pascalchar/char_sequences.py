"""Character-twisted row sums over Pascal's triangle mod p.

T(n) sums chi over the entries of row n; phi(n) sums T over all rows
below n. Both are fully determined by the first p rows: T is a digitwise
product over the base-p digits of n, and phi obeys the block identity

    phi(m*p^j + r) = phi(m)*phi(p)^j + T(m)*phi(r),  r < p^j,

with T(m*p^j + r) = T(m)*T(r). So a block r of j digits acts on the
state (phi, T) as one lower-triangular matrix [[phi(p)^j, 0],
[phi(r), T(r)]]. phi_and_T halves the digit string recursively down to
single digits, which read the tables, and joins the halves back up this
balanced tree (binary splitting), so the halves of every join have
about equal length. phi_chi and T_chi keep the one-digit recursion
(the case j = 1) as its oracles. Everything here stays exact (CycInt
coefficient vectors, arbitrary-size integers); numeric embeddings happen
only at the reporting edge.

Residue counts need no characters at all. CycInt multiplication is
convolution in the group ring Z[C_{p-1}], so for the generator character
chi(g) = zeta the same recursions carry dlog histograms: T(n) tallies
row n and phi(n) tallies rows 0..n-1 by discrete log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import Character, CycInt, _cyclic_convolve
from .core_arith import ROW_ORACLE_LIMIT, PrimeContext, to_digits
from .errors import IndexOutOfRange, LimitExceeded


@dataclass(frozen=True, eq=False)
class FundamentalTables:
    """Exact T and phi values over the first p rows for one character.

    T_table[b] = T(b) for 0 <= b < p; phi_table[m] = phi(m) for
    0 <= m <= p. These two vectors drive every larger evaluation.
    """

    chi: Character
    T_table: tuple[CycInt, ...]
    phi_table: tuple[CycInt, ...]

    @property
    def p(self) -> int:
        return self.chi.ctx.p

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
    p = chi.ctx.p
    coeff = table_layout(pushforward(chi.ctx.row_dlog_hist, chi)).tolist()
    T_table = tuple(CycInt(chi.order, tuple(row)) for row in coeff[:p])
    phi_table = tuple(CycInt(chi.order, tuple(row)) for row in coeff[p:])
    return FundamentalTables(chi, T_table, phi_table)


def phi_and_T(n: int, tables: FundamentalTables) -> tuple[CycInt, CycInt]:
    """(phi(n), T(n)) by halving the base-p digits of n recursively.

    A digit string of length L > 1 splits into its high L - L//2 digits
    and its low j = L//2 digits, and the halves join by the block
    identity; one digit d reads the tables. The halves of every join have
    about equal length, so wide values meet wide values. Each phi(p)^j is
    formed once per call, from phi(p)^(j//2) and phi(p)^(j - j//2).
    """
    if n < 0:
        raise IndexOutOfRange(f"n={n} negative")
    digits = to_digits(n, tables.p).digits[::-1]
    powers = {1: tables.phi_p}

    def power(j: int) -> CycInt:
        if j not in powers:
            powers[j] = power(j // 2) * power(j - j // 2)
        return powers[j]

    def block(lo: int, hi: int) -> tuple[CycInt, CycInt]:
        if hi - lo == 1:
            return tables.phi_table[digits[lo]], tables.T_table[digits[lo]]
        j = (hi - lo) // 2
        phi_hi, t_hi = block(lo, hi - j)
        phi_lo, t_lo = block(hi - j, hi)
        return phi_hi * power(j) + t_hi * phi_lo, t_hi * t_lo

    return block(0, len(digits))


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
