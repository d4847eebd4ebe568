"""Exact oracles that the benchmark checks pascalchar's answers against.

Residue counts come from the group-ring digit recursion in Z[C_{p-1}]:
the dlog histogram of rows 0..n-1 obeys the same leading-digit
recursion as phi, with each fundamental-domain row replaced by its
histogram of discrete logs. It never touches characters, so it checks
the character-inversion formula rather than repeating it. The Pascal
rows and discrete logs are rebuilt here from scratch, not taken from
pascalchar.core_arith.

phi(n) for a character chi(g) = zeta^k is the image of that histogram
under e -> k*e mod p-1. The CLI's exact phi(n) is checked through the
block identity phi(m*p^j + r) = phi(m)*phi(p)^j + T(m)*phi(r) for
0 <= r < p^j, at a split point the CLI never sees, evaluated in the
image of Z[zeta] modulo the prime Q = 2^31 - 1 so that the check costs
a small share of the computation it checks. A wrong canonical form passes
only if every wrong coefficient is off by a multiple of Q. Printed
numbers are checked against a high-precision embedding of the exact
canonical form.

The random model's sample means are checked against the model's exact
moments, counted here from its cell layout.
"""

from __future__ import annotations

import re
from functools import lru_cache

import mpmath
import numpy as np


def _least_primitive_root(p: int) -> int:
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % s for s in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


class GroupRing:
    """Row histograms of the fundamental domain as elements of Z[C_{p-1}]."""

    def __init__(self, p: int):
        self.p = p
        self.n = n = p - 1
        g = _least_primitive_root(p)
        self.dlog = [0] * p
        x = 1
        for e in range(n):
            self.dlog[x] = e
            x = x * g % p
        self.rows = []  # rows[b][e]: entries of Pascal row b mod p with dlog e
        row = [1]
        for _ in range(p):
            hist = [0] * n
            for v in row:
                hist[self.dlog[v]] += 1
            self.rows.append(hist)
            row = [1] + [(row[i - 1] + row[i]) % p for i in range(1, len(row))] + [1]
        self.prefix = [[0] * n]  # prefix[d] = rows 0..d-1 summed, d = 0..p
        for hist in self.rows:
            self.prefix.append([a + b for a, b in zip(self.prefix[-1], hist)])

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        n = self.n
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[(i + j) % n] += x * y
        return out

    def rows_below(self, n: int) -> list[int]:
        """Dlog histogram of all nonzero entries in rows 0..n-1."""
        p = self.p
        digits = []
        while n:
            n, d = divmod(n, p)
            digits.append(d)
        acc = [0] * self.n
        t = [1] + [0] * (self.n - 1)
        for d in reversed(digits):
            acc = [a + b for a, b in zip(self.mul(acc, self.prefix[p]), self.mul(t, self.prefix[d]))]
            t = self.mul(t, self.rows[d])
        return acc

    def count(self, n: int, r: int) -> int:
        """Occurrences of residue r (not divisible by p) in rows 0..n-1."""
        return self.rows_below(n)[self.dlog[r % self.p]]


@lru_cache(maxsize=None)
def group_ring(p: int) -> GroupRing:
    return GroupRing(p)


# ---------------------------------------------------------------------------
# phi(n) through the block identity, modulo Q

Q = 2**31 - 1


def _divexact(a: list[int], b: tuple[int, ...]) -> list[int]:
    """a / b for a monic b that divides a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = a[i + len(b) - 1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    if any(a):
        raise ArithmeticError("inexact division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending: x^n - 1
    divided by the cyclotomic polynomials of the proper divisors of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divexact(poly, cyclotomic(d))
    return tuple(poly)


class CharacterModQ:
    """T and phi of the character chi(g) = zeta^k in (Z/Q)[C_{p-1}]."""

    def __init__(self, p: int, k: int):
        ring = group_ring(p)
        self.p = p
        self.n = n = p - 1
        idx = (k * np.arange(n)) % n

        def push(v):
            out = np.zeros(n, dtype=np.int64)
            np.add.at(out, idx, np.array(v, dtype=np.int64))
            return out % Q

        self.T = [push(row) for row in ring.rows]
        self.phi = [push(v) for v in ring.prefix]
        self._sums = ((np.arange(n)[:, None] + np.arange(n)[None, :]) % n).ravel()
        self.one = push([1] + [0] * (n - 1))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # products are below 2^62; sums of p-1 reduced products stay exact in a double
        prod = (a[:, None] * b[None, :]) % Q
        return np.bincount(self._sums, weights=prod.ravel().astype(np.float64), minlength=self.n).astype(np.int64) % Q

    def pow(self, x: np.ndarray, e: int) -> np.ndarray:
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            e >>= 1
        return out

    def values(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(T(x), phi(x)) by the leading-digit recursion."""
        p = self.p
        digits = []
        while x:
            x, d = divmod(x, p)
            digits.append(d)
        acc, t = np.zeros(self.n, dtype=np.int64), self.one
        for d in reversed(digits):
            acc = (self.mul(acc, self.phi[p]) + self.mul(t, self.phi[d])) % Q
            t = self.mul(t, self.T[d])
        return t, acc

    def split_values(self, n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(T(n), phi(n)) from the split n = m*p^j + r, 0 <= r < p^j."""
        m, r = divmod(n, self.p**j)
        t_m, phi_m = self.values(m)
        t_r, phi_r = self.values(r)
        phi = (self.mul(phi_m, self.pow(self.phi[self.p], j)) + self.mul(t_m, phi_r)) % Q
        return self.mul(t_m, t_r), phi



@lru_cache(maxsize=None)
def character_mod_q(p: int, k: int) -> CharacterModQ:
    return CharacterModQ(p, k)


def reduce_cyclotomic(v, order: int, modulus: int | None = None) -> tuple[int, ...]:
    """Coefficients of v in 1, zeta, ... reduced modulo the cyclotomic
    polynomial of the given order; also modulo `modulus` when given."""
    phi = cyclotomic(order)
    deg = len(phi) - 1
    r = [int(c) for c in v]
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        for j in range(deg + 1):
            r[i - deg + j] -= c * phi[j]
    return tuple(c % modulus for c in r[:deg]) if modulus else tuple(r[:deg])


_TERM = re.compile(r"^(\d+)?\*?(zeta(?:\^(\d+))?)?$")


def parse_sparse(text: str, degree: int) -> tuple[int, ...]:
    """Canonical coefficients from the CLI's 'c0 + c1*zeta - zeta^2' form."""
    coeffs = [0] * degree
    if text == "0":
        return tuple(coeffs)
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        m = _TERM.match(tok)
        if not m or not tok:
            raise ValueError(f"unparseable term {tok!r}")
        c = int(m.group(1)) if m.group(1) else 1
        e = 0 if not m.group(2) else int(m.group(3) or 1)
        coeffs[e] += sign * c
        sign = 1
    return tuple(coeffs)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
_COMPLEX = re.compile(rf"^({_NUM})({_NUM})i$")


def parse_complex(text: str) -> mpmath.mpc:
    m = _COMPLEX.match(text.strip())
    if not m:
        raise ValueError(f"unparseable value {text!r}")
    return mpmath.mpc(mpmath.mpf(m.group(1)), mpmath.mpf(m.group(2)))


def embed(coeffs: tuple[int, ...], order: int) -> mpmath.mpc:
    """sum c_j exp(2 pi i j/order), with enough bits to survive cancellation."""
    l1 = sum(abs(c) for c in coeffs)
    with mpmath.workprec(l1.bit_length() + order.bit_length() + 96):
        return +mpmath.fsum(
            c * mpmath.expjpi(mpmath.mpf(2 * j) / order) for j, c in enumerate(coeffs) if c
        )


def close(got, want, rel: float) -> bool:
    """|got - want| <= rel * |want|, exact zero only for exact zero."""
    with mpmath.workprec(128):
        return abs(mpmath.mpc(got) - want) <= rel * abs(want)


def psi_value(phi_m: tuple[int, ...], phi_p: tuple[int, ...], m: int, p: int, order: int):
    """phi(m) / m^theta with theta = log_p phi(p), principal branch."""
    val = embed(phi_m, order)
    with mpmath.workprec(128):
        theta = mpmath.log(embed(phi_p, order)) / mpmath.log(p)
        return val / mpmath.exp(theta * mpmath.log(m))


# ---------------------------------------------------------------------------
# exact moments of the random fundamental-domain model


def model_moments(p: int, target: str) -> tuple[float, float]:
    """Exact mean and variance of one sample of Ycount:R or Ychar:even|odd.

    Rows 2..p-2 hold the interior: mirror pairs (m, n-m) share one uniform
    draw on 1..p-1, and a centre cell m = n/2 has its own. Every other cell
    is 1 or p-1: rows 0 and 1, the borders, and row p-1, which alternates
    1, p-1, 1, ... A character sample puts a uniform root of unity on each
    draw, so its interior has mean 0 and each draw adds 1 to the variance,
    4 for a pair.
    """
    pairs = sum((n - 1) // 2 for n in range(2, p - 1))
    centres = sum(1 for n in range(2, p - 1) if n % 2 == 0)
    weight = 4 * pairs + centres
    kind, _, arg = target.partition(":")
    if kind == "Ycount":
        return (2 * pairs + centres) / (p - 1), weight * (p - 2) / (p - 1) ** 2
    ones = 1 + 2 + 2 * (p - 3) + (p + 1) // 2
    minus = (p - 1) // 2
    return float(ones + minus if arg == "even" else ones - minus), float(weight)
