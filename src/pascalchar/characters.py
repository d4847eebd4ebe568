"""Dirichlet characters mod p and exact cyclotomic-integer arithmetic.

A character is a single exponent index k with chi(g) = zeta^k for the
context's canonical generator g, where zeta = exp(2 pi i/(p-1)). Values of
character sums live in CycInt: an integer coefficient vector over the
powers of zeta, added and multiplied exactly, with no canonical reduction
during accumulation. Every numeric value reads a midpoint-radius
enclosure with one proven error bound, _ball_radius: _embed_ball for one
value, character_balls for the sums of chosen characters over a whole
stack of dlog tallies at once (the all-character transform).
embed_value escalates _embed_ball until the value is accurate to a
requested relative precision. abs_compare decides |a| vs |b| from one
double ball per operand, or else from the sign of the exact real
|a|^2 - |b|^2, so strict inequalities are decided soundly even at
genuine ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress

import mpmath
import numpy as np

from .core_arith import PrimeContext
from .errors import IndexOutOfRange, OrderMismatch

# ---------------------------------------------------------------------------
# polynomial helpers for cyclotomic reduction


def _poly_divexact(a: list[int], b: tuple[int, ...]) -> list[int]:
    """Quotient of a by monic b; remainder must vanish."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = a[i + len(b) - 1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    x^n - 1 is the product of the d-th cyclotomic polynomials over the
    divisors d of n, so exact division by those of the proper divisors
    leaves the n-th.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic_coeffs(d))
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs: tuple[int, ...], order: int) -> tuple[int, ...]:
    phi = cyclotomic_coeffs(order)
    deg = len(phi) - 1
    r = list(coeffs)
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            base = i - deg
            for j in range(deg + 1):
                r[base + j] -= c * phi[j]
    return tuple(r[:deg])


def _cyclic_convolve(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Schoolbook product mod x^n - 1; the reference for every other path."""
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return tuple(out)


# CycInt products take the Kronecker path when both operands have at
# least _KRONECKER_MIN_TERMS nonzero coefficients; with fewer, packing
# every slot costs more than the schoolbook loop, which skips zeros,
# spends (orders below 16, the unit, table rows of small digits).
_KRONECKER_MIN_TERMS = 16


def _coeff_bits(c: tuple[int, ...]) -> int:
    """Bit length of the largest |coefficient|."""
    return max(max(c).bit_length(), (-min(c)).bit_length())


def _support_stride(a: tuple[int, ...], b: tuple[int, ...], n: int) -> int:
    """gcd of n and every exponent where a or b is nonzero.

    A character whose index shares a factor g with n has tables supported
    on the multiples of g, and so has every product of them.
    """
    idx = range(n)
    return math.gcd(n, *compress(idx, a), *compress(idx, b))


def _kronecker_pack(c: tuple[int, ...], width: int) -> int:
    """sum_i c[i] * 2^(8*width*i) for signed c[i] that fit width signed bytes."""
    packed = int.from_bytes(
        b"".join([x.to_bytes(width, "little", signed=True) for x in c]), "little"
    )
    if min(c) < 0:
        # a negative slot reads 2^(8*width) too high in two's complement,
        # which the slot above it pays back
        shift = 8 * width
        for i, x in enumerate(c):
            if x < 0:
                packed -= 1 << (shift * (i + 1))
    return packed


def _kronecker_convolve(
    a: tuple[int, ...], b: tuple[int, ...], n: int, g: int
) -> tuple[int, ...]:
    """Product mod x^n - 1 as one big-integer product (Kronecker substitution).

    g divides n, and a and b vanish off the multiples of g. Only those m =
    n/g slots are packed, each operand evaluated at x = 2^B as one integer,
    so CPython's Karatsuba multiplication does the convolution. The slot
    width B leaves two bits of headroom over the largest possible |output
    coefficient|, so folding mod 2^(B*m) - 1 (the wrap x^m = 1) and a
    balanced signed read of the slots recover every coefficient exactly.
    """
    a, b = a[::g], b[::g]
    m = n // g
    width = (_coeff_bits(a) + _coeff_bits(b) + m.bit_length() + 2 + 7) // 8
    shift = 8 * width * m
    mod = (1 << shift) - 1
    prod = _kronecker_pack(a, width) * _kronecker_pack(b, width)
    # the high half of the 2m-1 slots is far below 2^(B*m-1) in magnitude,
    # so one subtraction brings the fold into the balanced range
    folded = (prod & mod) + (prod >> shift)
    if folded > mod >> 1:
        folded -= mod
    raw = folded.to_bytes(width * m, "little", signed=True)
    slots = [
        int.from_bytes(raw[i : i + width], "little", signed=True)
        for i in range(0, width * m, width)
    ]
    if min(slots) < 0:
        # a slot read as negative lent 2^B to the slot above it
        slots[1:] = [s + (below < 0) for below, s in zip(slots, slots[1:])]
    out = [0] * n
    out[::g] = slots
    return tuple(out)


def _convolve(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Product mod x^n - 1 by the path that is faster for these operands."""
    zeros_a, zeros_b = a.count(0), b.count(0)
    if n - max(zeros_a, zeros_b) >= _KRONECKER_MIN_TERMS:
        return _kronecker_convolve(a, b, n, _support_stride(a, b, n))
    # the schoolbook loop skips the zeros of its outer operand
    if zeros_a < zeros_b:
        a, b = b, a
    return _cyclic_convolve(a, b, n)


# ---------------------------------------------------------------------------
# exact values


@dataclass(frozen=True)
class UnityOrZero:
    """Exact value of chi(r): zero, or the root of unity zeta^exponent."""

    order: int
    exponent: int | None  # None encodes zero

    @classmethod
    def zero(cls, order: int) -> "UnityOrZero":
        return cls(order, None)

    @classmethod
    def root(cls, order: int, exponent: int) -> "UnityOrZero":
        return cls(order, exponent % order)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __mul__(self, other: "UnityOrZero") -> "UnityOrZero":
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order}")
        if self.exponent is None or other.exponent is None:
            return UnityOrZero.zero(self.order)
        return UnityOrZero.root(self.order, self.exponent + other.exponent)

    def conjugate(self) -> "UnityOrZero":
        if self.exponent is None:
            return self
        return UnityOrZero.root(self.order, -self.exponent)

    def value(self) -> complex:
        if self.exponent is None:
            return 0j
        return complex(np.exp(2j * np.pi * self.exponent / self.order))


_ROOT_CACHE: dict[int, np.ndarray] = {}


def _mp_roots(order: int, bits: int) -> list:
    """zeta^j for 0 <= j < order, each within 22 * 2^-bits of the true
    root (the bound _ball_radius assumes), from one expjpi and order - 1
    products at bits + g bits of precision, g = order.bit_length() + 1.

    Write u' = 2^-(bits + g). The computed zeta' is within 22u' of zeta,
    as is any root _ball_radius counts. A complex product rounds within
    3u' of the exact one in modulus: mpmath rounds each of its two parts
    once from exact real products (sqrt(2)u'), and 3u' also covers
    rounding each real product too (sqrt(5)u', Brent, Percival and
    Zimmermann 2007). With w_0 = 1 and w_j = fl(w_(j-1) * zeta'), every
    |w_j| <= r^j for r = (1 + 22u')(1 + 3u'), and E_j = |w_j - zeta^j|
    obeys

        E_j <= |w_(j-1)| |zeta' - zeta| + E_(j-1) + 3u' |w_(j-1) zeta'|
            <= 22u' r^(j-1) + E_(j-1) + 3u' r^j,

    so E_j <= 25 j u' r^j. As j < order < 2^(g-1), j u' < 2^-(bits + 1),
    and r^j <= exp(26 j u') < 1.001 for bits >= 14, so
    E_j < 12.6 * 2^-bits, inside the 22 * 2^-bits budget. Without the g
    guard bits the same bound reads 25 (order - 1) 2^-bits, past the
    budget for every order above 1.
    """
    with mpmath.workprec(bits + order.bit_length() + 1):
        zeta = mpmath.expjpi(mpmath.mpf(2) / order)
        roots = [mpmath.mpc(1)]
        for _ in range(order - 1):
            roots.append(roots[-1] * zeta)
    return roots


def _roots(order: int) -> np.ndarray:
    table = _ROOT_CACHE.get(order)
    if table is None:
        table = np.exp(2j * np.pi * np.arange(order) / order)
        _ROOT_CACHE[order] = table
    return table


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_order] as the coefficient vector of 1..zeta^{order-1}.

    The representation is deliberately non-canonical: sums accumulate by
    bumping coefficients and multiplication is plain cyclic convolution.
    Canonical form (reduction mod the cyclotomic polynomial) is computed
    only where equality must be decided.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise OrderMismatch(
                f"coefficient vector length {len(self.coeffs)} != order {self.order}"
            )

    @classmethod
    def zero(cls, order: int) -> "CycInt":
        return cls(order, (0,) * order)

    @classmethod
    def one(cls, order: int) -> "CycInt":
        return cls.from_exponent(order, 0)

    @classmethod
    def from_exponent(cls, order: int, e: int, weight: int = 1) -> "CycInt":
        c = [0] * order
        c[e % order] = weight
        return cls(order, tuple(c))

    @classmethod
    def from_int(cls, order: int, value: int) -> "CycInt":
        return cls.from_exponent(order, 0, value)

    def _check(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.order, _convolve(self.coeffs, other.coeffs, self.order))

    def scale(self, m: int) -> "CycInt":
        return CycInt(self.order, tuple(m * a for a in self.coeffs))

    def shift(self, e: int) -> "CycInt":
        """Multiplication by zeta^e: a cyclic shift of the coefficients."""
        n = self.order
        e %= n
        return CycInt(n, self.coeffs[n - e :] + self.coeffs[: n - e])

    def conjugate(self) -> "CycInt":
        n = self.order
        return CycInt(n, tuple(self.coeffs[(-j) % n] for j in range(n)))

    def canonical(self) -> tuple[int, ...]:
        """Coefficients reduced mod the cyclotomic polynomial; unique."""
        return _reduce_mod_cyclotomic(self.coeffs, self.order)

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def equals(self, other: "CycInt") -> bool:
        self._check(other)
        return (self - other).is_zero()

    def coeff_l1(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def embed(self) -> complex:
        """Numeric value under zeta -> exp(2 pi i/order), double precision.

        Raises OverflowError when coefficients exceed float range;
        _embed_ball catches that and reports no ball.
        """
        n = self.order
        roots = _roots(n)
        return complex(sum(float(c) * roots[j] for j, c in enumerate(self.coeffs) if c))

    def embed_mpc(self, bits: int) -> mpmath.mpc:
        """Numeric value under zeta -> exp(2 pi i/order) at `bits` of
        precision, summing c_j * zeta^j over roots from _mp_roots."""
        roots = _mp_roots(self.order, bits)
        with mpmath.workprec(bits):
            total = mpmath.mpc(0)
            for c, root in zip(self.coeffs, roots):
                if c:
                    total += c * root
            return total


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True, eq=False)
class Character:
    """Dirichlet character mod ctx.p with chi(g) = zeta_{p-1}^k."""

    ctx: PrimeContext
    k: int

    @property
    def order(self) -> int:
        return self.ctx.order

    @property
    def is_principal(self) -> bool:
        return self.k == 0

    @property
    def parity(self) -> str:
        """'even' when chi(-1) = 1, else 'odd'."""
        return "even" if self(self.ctx.p - 1).exponent == 0 else "odd"

    def __call__(self, r: int) -> UnityOrZero:
        p = self.ctx.p
        r %= p
        if r == 0:
            return UnityOrZero.zero(self.order)
        return UnityOrZero.root(self.order, self.k * self.ctx.dlog[r])

    @property
    def label(self) -> str:
        """Exponential-form label, e.g. chi(2)=e^{20pi i/36}."""
        return f"chi({self.ctx.g})=e^{{{2 * self.k}pi i/{self.order}}}"


def character(ctx: PrimeContext, k: int) -> Character:
    if not 0 <= k < ctx.order:
        raise IndexOutOfRange(f"k={k} outside [0, {ctx.order})")
    return Character(ctx, k)


def conjugate(chi: Character) -> Character:
    return Character(chi.ctx, (-chi.k) % chi.order)


def group(ctx: PrimeContext) -> list[Character]:
    """All p-1 characters in index order, principal first."""
    return [Character(ctx, k) for k in range(ctx.order)]


# ---------------------------------------------------------------------------
# magnitude comparison


class Comparison(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"


def _mass_bits(l1: int) -> int:
    """Starting mpmath precision for a value of coefficient mass l1."""
    return max(128, l1.bit_length() + 96)


def _ball_radius(l1, order: int, bits: int = 53):
    """Error radius (l1 + 1) * order * 2^(5 - bits) of a sum of `order`
    terms c_j * zeta^j of mass l1 = sum |c_j| at `bits` of precision.

    With u = 2^-bits (2^-53 for doubles; fewer bits only widen the ball),
    a computed root zeta^j is off by under 22u (three roundings of an
    angle below 2 pi, then an ulp in cos and in sin); rounding c_j and the
    product c_j * zeta^j add u|c_j| each, so term j is off by under
    24u|c_j|; each of the under `order` additions adds u times a partial
    sum of modulus at most l1 * (1 + 24u). The total is below
    26 * order * l1 * u; the rest of the radius covers rounding |mid| and
    the difference of two moduli when balls are compared.
    """
    if bits > 53:
        return mpmath.ldexp((l1 + 1) * order, 5 - bits)
    return (l1 + 1) * order * 2.0 ** (5 - bits)


def _embed_ball(x: CycInt, bits: int) -> tuple | None:
    """embed(x) at `bits` of working precision as a ball (mid, rad) with
    |embed(x) - mid| <= rad, or None when the doubles overflow. Up to 53
    bits mid is the complex `x.embed()` and rad a float; above, mid is
    `x.embed_mpc(bits)` and rad an mpf.
    """
    l1 = x.coeff_l1()
    if bits > 53:
        return x.embed_mpc(bits), _ball_radius(l1, x.order, bits)
    try:
        mid, rad = x.embed(), _ball_radius(l1, x.order, bits)
    except OverflowError:
        return None
    return (mid, rad) if math.isfinite(abs(mid)) else None


def character_balls(tally, ks) -> tuple[np.ndarray, np.ndarray]:
    """53-bit balls (mid, rad) of sum_e tally[..., e] * zeta^(k*e) for
    k = ks[i] (mid[..., i]), from one matrix product.

    tally is an integer array over the exponents e along its last axis:
    a count of entries by discrete log, whose sums over chi_k for every
    k form an inverse DFT (Garfield-Wilf's group-ring view), or the signed
    coefficient vector of a CycInt. mid = tally @ Z with
    Z[e, i] = zeta^(ks[i]*e), and rad = _ball_radius of the mass
    |tally|.sum(-1). The derivation holds for any summation order the
    BLAS picks: a sum of n terms, however blocked and associated, is off
    by under n*u times the terms' total modulus (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3). The entries are integers
    below 2^53 with zero imaginary part, so zgemm's product
    (c + 0i)(x + iy) rounds only c*x and c*y, once each (0*y and 0*x are
    exact zeros, fused or not), as _ball_radius allows.
    """
    tally = np.asarray(tally)
    n = tally.shape[-1]
    zeta = _roots(n)[np.outer(np.arange(n), np.asarray(ks, dtype=np.int64)) % n]
    return tally.astype(np.float64) @ zeta, _ball_radius(np.abs(tally).sum(axis=-1), n)


def _tight(ball: tuple, rel_bits: int) -> bool:
    mid, rad = ball
    return rad < abs(mid) * 2.0**-rel_bits


def embed_value(x: CycInt, rel_bits: int = 53) -> tuple:
    """The first ball (mid, rad) of embed(x) with rad below 2^-rel_bits |mid|.

    Tries the doubles, then mpmath from `_mass_bits` of the coefficient
    mass up, doubling the precision until the ball is tight enough. An
    exact zero, certified by canonical reduction once the doubles fail
    (far cheaper than an mpmath rung at the mass), comes back as
    (0j, 0.0). The loop ends for every nonzero x: its norm is a nonzero
    integer and each of its conjugates has modulus at most l1, so
    |embed(x)| >= l1^(1 - order) > 0.
    """
    ball = _embed_ball(x, 53)
    if ball is not None and _tight(ball, rel_bits):
        return ball
    if x.is_zero():
        return 0j, 0.0
    bits = _mass_bits(x.coeff_l1())
    ball = _embed_ball(x, bits)
    while not _tight(ball, rel_bits):
        bits *= 2
        ball = _embed_ball(x, bits)
    return ball


def abs_compare(a: CycInt, b: CycInt) -> Comparison:
    """Compare |embed(a)| with |embed(b)|; always LESS, GREATER or EQUAL.

    One 53-bit ball per operand decides once the moduli differ by more
    than the two radii. Otherwise the exact real diff = |a|^2 - |b|^2
    decides: embed_value(diff, rel_bits=1) is (0j, 0.0) exactly when diff
    is zero (EQUAL), and else a ball with rad < |mid|/2. As diff is real,
    |Im mid| <= rad < |mid|/2, so |Re mid| > |mid|/2 > |Re mid - diff| and
    Re mid has the sign of diff.
    """
    if a.order != b.order:
        raise OrderMismatch(f"orders {a.order} and {b.order}")
    ball_a, ball_b = _embed_ball(a, 53), _embed_ball(b, 53)
    if ball_a is not None and ball_b is not None:
        (va, ra), (vb, rb) = ball_a, ball_b
        da, db = abs(va), abs(vb)
        if abs(da - db) > ra + rb:
            return Comparison.GREATER if da > db else Comparison.LESS
    mid, _ = embed_value(a * a.conjugate() - b * b.conjugate(), rel_bits=1)
    if mid == 0:
        return Comparison.EQUAL
    return Comparison.GREATER if mid.real > 0 else Comparison.LESS
