"""Prime-field groundwork: primality, primitive roots, base-p digits,
Pascal rows mod p, and Lucas-theorem binomial evaluation.

Everything downstream hangs off a PrimeContext, which eagerly stores the
first p rows of the triangle (the fundamental domain) as one (p, p)
array, together with a discrete-log table for the chosen generator.
Contexts are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import LimitExceeded, NotPrime

if TYPE_CHECKING:
    from .char_sequences import FundamentalTables

# Witnesses making Miller-Rabin deterministic for all inputs below 3.3e24,
# which covers every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

ROW_ORACLE_LIMIT = 10**4


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-sized inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def least_primitive_root(p: int) -> int:
    """Smallest generator of (Z/pZ)^x; canonical so labels are stable."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise NotPrime(f"{p} has no primitive root; not prime?")


@dataclass(frozen=True)
class DigitString:
    """Base-p digits of a nonnegative integer, least-significant first.

    No trailing most-significant zero except for the single digit of 0.
    """

    digits: tuple[int, ...]
    value: int


def to_digits(n: int, p: int) -> DigitString:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return DigitString((0,), 0)
    digits = []
    v = n
    while v:
        v, d = divmod(v, p)
        digits.append(d)
    return DigitString(tuple(digits), n)


@dataclass(eq=False)
class PrimeContext:
    """A prime p with its least primitive root, dlog table, and the
    fundamental domain (rows 0..p-1 of Pascal's triangle mod p):
    domain[n, m] = C(n, m) mod p, zero above the diagonal (m > n).

    Not frozen only so cached_property can attach derived arrays; treat as
    immutable.
    """

    p: int
    g: int
    dlog: tuple[int, ...]
    domain: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        """Order of the character group, p - 1."""
        return self.p - 1

    @cached_property
    def row_dlog_hist(self) -> np.ndarray:
        """hist[b, e] = entries in fundamental-domain row b with dlog e.

        Rows inside the domain have no zeros, so every entry contributes.
        Shape (p, p-1); the workhorse behind vectorized character sums.
        """
        n = max(self.order, 1)
        dlog = np.asarray(self.dlog, dtype=np.int64)
        hist = np.empty((self.p, n), dtype=np.int64)
        for b in range(self.p):
            hist[b] = np.bincount(dlog[self.domain[b, : b + 1]], minlength=n)
        return hist

    @cached_property
    def group_ring_tables(self) -> FundamentalTables:
        """Fundamental tables of the generator character chi(g) = zeta.

        Its exponent map e -> e is the identity, so the exact T and phi
        values are the dlog histograms themselves, as elements of the
        group ring Z[C_{p-1}]: phi_chi(n) over these tables tallies every
        nonzero entry of rows 0..n-1 by discrete log, and T_chi(n) does
        the same for row n. At p = 2 the group is trivial and k = 0.
        """
        from .char_sequences import build_tables
        from .characters import character

        return build_tables(character(self, 1 % self.order))


def make_context(p: int) -> PrimeContext:
    """Build the context for a prime p. O(p^2) time and space."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    g = least_primitive_root(p)
    dlog = [0] * p
    x = 1
    for e in range(p - 1):
        dlog[x] = e
        x = x * g % p
    # row n is (row[n-1][:-1] + row[n-1][1:]) % p inside the ones; row n-1's zero past
    # the diagonal makes the last sum the closing 1
    domain = np.zeros((p, p), dtype=np.int64)
    domain[:, 0] = 1
    for n in range(1, p):
        domain[n, 1 : n + 1] = (domain[n - 1, :n] + domain[n - 1, 1 : n + 1]) % p
    return PrimeContext(p=p, g=g, dlog=tuple(dlog), domain=domain)


def lucas_binom(n: int, m: int, ctx: PrimeContext) -> int:
    """C(n, m) mod p via the digitwise product over base-p digits.

    C(a, b) reads as 0 whenever b > a, so any digit of m exceeding the
    matching digit of n annihilates the product.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    p = ctx.p
    out = 1
    while n or m:
        n, nd = divmod(n, p)
        m, md = divmod(m, p)
        if md > nd:
            return 0
        out = out * int(ctx.domain[nd, md]) % p
    return out


def row_mod_p(n: int, ctx: PrimeContext, limit: int = ROW_ORACLE_LIMIT) -> list[int]:
    """Row n of the triangle mod p by the additive recurrence.

    A test oracle, not a production path; refuses rows beyond `limit`.
    """
    if n > limit:
        raise LimitExceeded(f"row {n} exceeds the oracle limit {limit}")
    if n < ctx.p:
        return ctx.domain[n, : n + 1].tolist()
    p = ctx.p
    row = np.zeros(n + 1, dtype=np.int64)
    row[0] = 1
    for _ in range(n):
        # row <- row + shifted row, elementwise mod p
        row[1:] += row[:-1].copy()
        row %= p
    return row.tolist()
