"""Exact cyclotomic arithmetic, Dirichlet characters, and modulus comparison."""

from __future__ import annotations

import functools
import math
import random

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalchar import characters
from pascalchar.characters import (
    Comparison,
    CycInt,
    UnityOrZero,
    _convolve,
    _cyclic_convolve,
    _embed_ball,
    _kronecker_convolve,
    _mass_bits,
    _mp_roots,
    _support_stride,
    abs_compare,
    character,
    character_balls,
    cyclotomic_coeffs,
    embed_value,
)
from pascalchar.char_sequences import build_tables
from pascalchar.core_arith import is_prime, make_context
from pascalchar.errors import IndexOutOfRange, OrderMismatch

ORDERS = [1, 2, 4, 6, 12, 36]


def _cyc(order, coeffs):
    return CycInt(order, tuple(coeffs) + (0,) * (order - len(coeffs)))


small_cyc = st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
    )
).map(lambda t: CycInt(t[0], tuple(t[1])))


# ---------------------------------------------------------------------------
# cyclotomic polynomial


def test_cyclotomic_coeffs_against_sympy():
    x = sympy.symbols("x")
    for n in [*range(1, 61), 96, 100, 228]:
        ours = cyclotomic_coeffs(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == list(reversed(theirs)), n


def test_cyclotomic_36_frozen():
    assert cyclotomic_coeffs(36) == (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# ring structure


@given(small_cyc)
def test_add_commutes_with_embed(a):
    b = a.shift(1)
    assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-9


@given(st.data())
def test_ring_laws(data):
    n = data.draw(st.sampled_from(ORDERS))
    coeff = st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n)
    a = CycInt(n, tuple(data.draw(coeff)))
    b = CycInt(n, tuple(data.draw(coeff)))
    c = CycInt(n, tuple(data.draw(coeff)))
    assert (a * b).equals(b * a)
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a + b).equals(b + a)
    assert (a - a).is_zero()
    assert (a * CycInt.one(n)).equals(a)
    assert (a * CycInt.zero(n)).is_zero()


@given(st.data())
def test_embed_is_ring_homomorphism(data):
    n = data.draw(st.sampled_from(ORDERS))
    coeff = st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=n, max_size=n)
    a = CycInt(n, tuple(data.draw(coeff)))
    b = CycInt(n, tuple(data.draw(coeff)))
    # error scales with coefficient mass (same model the comparison ladder uses)
    tol = float((a.coeff_l1() * b.coeff_l1() + a.coeff_l1() + b.coeff_l1() + 1) * n) * 2.0**-48
    assert abs((a * b).embed() - a.embed() * b.embed()) < tol
    assert abs((a + b).embed() - (a.embed() + b.embed())) < tol


def _strided_coeffs(draw, n, bits, signed):
    """A coefficient vector supported on the multiples of a divisor of n,
    with entries of at most `bits` bits, or all zero."""
    stride = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    if draw(st.booleans()) and draw(st.booleans()):
        return (0,) * n
    bound = 1 << bits
    entry = st.integers(min_value=-bound if signed else 0, max_value=bound)
    m = n // stride
    values = draw(st.lists(st.one_of(st.just(0), entry), min_size=m, max_size=m))
    out = [0] * n
    out[::stride] = values
    return tuple(out)


# the edges of a byte-rounded slot, and wide coefficients
_PRODUCT_BITS = [0, 1, 7, 8, 63, 64, 384, 385, 1000]
# the product tree's operands: balanced joins, a wide value times a narrow
# table entry, and uneven joins on both sides of a width ratio of 2
_TREE_PRODUCT_BITS = [
    (2000, 2000),
    (6000, 6000),
    (6000, 40),
    (6000, 3000),
    (6000, 2999),
]


@given(st.data())
def test_kronecker_product_equals_schoolbook(data):
    n = data.draw(st.sampled_from([1, 2, 36, 96, 228]))
    signed = data.draw(st.booleans())
    bits = data.draw(st.one_of(
        st.tuples(st.sampled_from(_PRODUCT_BITS), st.sampled_from(_PRODUCT_BITS)),
        st.sampled_from(_TREE_PRODUCT_BITS + [(b, a) for a, b in _TREE_PRODUCT_BITS]),
    ))
    a, b = (_strided_coeffs(data.draw, n, w, signed) for w in bits)
    stride = _support_stride(a, b, n)
    assert all(c == 0 for i, c in enumerate(a + b) if i % n % stride)
    # any common stride will do, the gcd being only the sparsest
    g = data.draw(st.sampled_from([d for d in range(1, stride + 1) if stride % d == 0]))
    want = _cyclic_convolve(a, b, n)
    assert _kronecker_convolve(a, b, n, g) == want
    assert _convolve(a, b, n) == want


@pytest.mark.parametrize("n", [36, 228])
def test_kronecker_product_at_full_slot_magnitude(n):
    # every output coefficient at the bound m * max|a| * max|b| that sizes the
    # slot, for every stride and for magnitudes on both sides of byte edges
    for stride in (d for d in range(1, n + 1) if n % d == 0):
        for k in range(1, 20):
            for x, y in ((2**k - 1, 2**k - 1), (-(2**k), 2**k - 1), (-(2**k), -(2**k))):
                a = tuple(x if i % stride == 0 else 0 for i in range(n))
                b = tuple(y if i % stride == 0 else 0 for i in range(n))
                want = _cyclic_convolve(a, b, n)
                assert _kronecker_convolve(a, b, n, stride) == want, (stride, x, y)


@pytest.mark.parametrize("n", [4, 36])
@pytest.mark.parametrize("bits", [1, 384, 385])
def test_product_matches_schoolbook_across_selection(n, bits):
    a = tuple((-1) ** i << bits if i % 3 else 0 for i in range(n))
    b = tuple(-(1 << bits) + i for i in range(n))
    assert _convolve(a, b, n) == _cyclic_convolve(a, b, n)
    assert (CycInt(n, a) * CycInt(n, b)).coeffs == _cyclic_convolve(a, b, n)


@pytest.mark.parametrize(
    "bits_a, bits_b",
    [(8, 8), (384, 8), (385, 8), (2000, 2000), (6000, 3000), (6000, 2999), (6000, 40),
     # the widest T(m)*phi(r) join of phi_and_T at p = 97, k = 22, 1000 digits
     (1319, 3058)],
)
@pytest.mark.parametrize("n", [4, 36])
def test_product_path_follows_term_count(monkeypatch, n, bits_a, bits_b):
    calls = []
    kronecker_convolve = characters._kronecker_convolve

    def spy(*args):
        calls.append(args)
        return kronecker_convolve(*args)

    monkeypatch.setattr(characters, "_kronecker_convolve", spy)
    for terms_a in sorted({1, min(n, 15), min(n, 16), n}):
        for terms_b in sorted({1, min(n, 15), min(n, 16), n}):
            # coefficients exactly bits_a and bits_b bits wide, the first
            # operand signed, on the first terms_a and the last terms_b slots
            a = tuple((-1) ** i * ((1 << bits_a) - 1 - i) if i < terms_a else 0
                      for i in range(n))
            b = tuple((1 << bits_b) - 1 - i if i >= n - terms_b else 0 for i in range(n))
            want = _cyclic_convolve(a, b, n)
            for x, y in ((a, b), (b, a)):
                calls.clear()
                assert _convolve(x, y, n) == want
                # Kronecker iff both operands have 16 or more nonzero terms
                assert bool(calls) == (min(terms_a, terms_b) >= 16), (terms_a, terms_b)


@given(small_cyc, st.integers(min_value=-80, max_value=80))
def test_shift_is_root_multiplication(a, e):
    shifted = a.shift(e)
    by_mul = a * CycInt.from_exponent(a.order, e)
    assert shifted.equals(by_mul)
    expected = a.embed() * complex(
        math.cos(2 * math.pi * e / a.order), math.sin(2 * math.pi * e / a.order)
    )
    assert abs(shifted.embed() - expected) < 1e-9 * max(1.0, abs(expected))


@given(small_cyc)
def test_conjugate_matches_complex_conjugate(a):
    assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-9
    # norm a*conj(a) embeds to |a|^2, a nonnegative real
    norm = (a * a.conjugate()).embed()
    assert abs(norm.imag) < 1e-6
    assert norm.real > -1e-6


def test_canonical_reduces_high_powers():
    # zeta^6 - zeta^0 has canonical form dictated by Phi_36 relations
    a = CycInt.from_exponent(36, 36)
    assert a.equals(CycInt.one(36))
    b = CycInt.from_exponent(12, 14)
    assert b.equals(CycInt.from_exponent(12, 2))


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        CycInt.one(4) + CycInt.one(6)
    with pytest.raises(OrderMismatch):
        abs_compare(CycInt.one(4), CycInt.one(6))


def test_scale_and_from_int():
    a = CycInt.from_int(12, 7)
    assert a.embed() == pytest.approx(7.0)
    assert a.scale(-3).embed() == pytest.approx(-21.0)


# ---------------------------------------------------------------------------
# UnityOrZero


def test_unity_or_zero_group_law():
    z = UnityOrZero.root(12, 5)
    w = UnityOrZero.root(12, 9)
    assert (z * w).exponent == 2
    assert UnityOrZero.zero(12).is_zero
    assert (z * UnityOrZero.zero(12)).is_zero
    assert z.conjugate().exponent == 7
    assert abs(z.value() - complex(math.cos(10 * math.pi / 12), math.sin(10 * math.pi / 12))) < 1e-12
    with pytest.raises(OrderMismatch):
        z * UnityOrZero.root(6, 1)


# ---------------------------------------------------------------------------
# characters


def test_character_is_multiplicative(contexts):
    for p, ctx in contexts.items():
        for k in range(p - 1):
            chi = character(ctx, k)
            for a in range(1, p):
                for b in range(1, p):
                    lhs = chi(a) * chi(b)
                    rhs = chi(a * b % p)
                    assert lhs.order == rhs.order and lhs.exponent == rhs.exponent


def test_character_values_and_parity(ctx37):
    chi = character(ctx37, 10)
    assert chi(1).exponent == 0
    assert chi(0).is_zero
    assert chi.order == 36
    assert not chi.is_principal
    assert chi.parity == "even"  # chi(-1) = zeta^{10*18} = zeta^0
    assert character(ctx37, 9).parity == "odd"
    assert chi.label == "chi(2)=e^{20pi i/36}"
    # chi(g) = zeta^k by construction
    assert chi(ctx37.g).exponent == 10


def test_principal_character(contexts):
    ctx = contexts[7]
    chi0 = character(ctx, 0)
    assert chi0.is_principal
    assert all(chi0(r).exponent == 0 for r in range(1, 7))
    assert chi0(0).is_zero


def test_character_index_out_of_range(contexts):
    with pytest.raises(IndexOutOfRange):
        character(contexts[7], 6)
    with pytest.raises(IndexOutOfRange):
        character(contexts[7], -1)


def test_character_group_and_conjugates(contexts):
    from pascalchar.characters import conjugate, group

    ctx = contexts[11]
    chars = group(ctx)
    assert len(chars) == 10
    chi = chars[3]
    bar = conjugate(chi)
    for r in range(1, 11):
        assert (chi(r) * bar(r)).exponent == 0


# ---------------------------------------------------------------------------
# modulus comparison


def test_abs_compare_decides_integers():
    a = CycInt.from_int(12, 5)
    b = CycInt.from_int(12, -7)
    assert abs_compare(a, b) is Comparison.LESS
    assert abs_compare(b, a) is Comparison.GREATER


def test_abs_compare_proves_ties():
    # same modulus, different value: both are roots of unity
    a = CycInt.from_exponent(36, 1)
    b = CycInt.from_exponent(36, 17)
    assert abs_compare(a, b) is Comparison.EQUAL
    # conjugates always tie
    c = _cyc(36, [3, -2, 0, 5, 1])
    assert abs_compare(c, c.conjugate()) is Comparison.EQUAL


def test_abs_compare_tiny_gap_needs_escalation():
    # x and x + 1 differ by 1 at 10^20, far inside the 53-bit radius of
    # about 4e6, so only the exact sign of x^2 - (x + 1)^2 decides
    x = CycInt.from_int(12, 10**20)
    y = x + CycInt.one(12)
    assert abs_compare(x, y) is Comparison.LESS


def test_abs_compare_survives_coefficient_cancellation(ctx37):
    # products of many table entries: coefficient mass ~1e34 versus a true
    # modulus ~5e18; doubles alone would report garbage
    from pascalchar.char_sequences import build_tables

    tables = build_tables(character(ctx37, 10))
    acc = CycInt.one(36)
    for _ in range(12):
        acc = acc * tables.phi_p
    big = CycInt.from_int(36, 37**12)
    # |phi(p)^12| = 33.877^12 < 37^12
    assert abs_compare(acc, big) is Comparison.LESS
    assert abs_compare(big, acc) is Comparison.GREATER


@pytest.mark.parametrize(
    "j, want", [(80, Comparison.GREATER), (120, Comparison.LESS), (200, Comparison.GREATER)]
)
def test_abs_compare_decides_below_double_resolution(j, want):
    # a = (1 - zeta)^j in order 36 has modulus (2 sin(pi/36))^j, about
    # 1e-61 at j = 80, far inside the 53-bit radius of its own coefficients
    n = 36
    one, zero = CycInt.one(n), CycInt.zero(n)
    a = one
    for _ in range(j):
        a = a * (one - CycInt.from_exponent(n, 1))
    assert abs_compare(a, zero) is Comparison.GREATER
    assert abs_compare(zero, a) is Comparison.LESS
    assert abs_compare(a, a.shift(5)) is Comparison.EQUAL
    with mpmath.workprec(3000):
        gap = abs(1 + (1 - mpmath.expjpi(mpmath.mpf(2) / n)) ** j) - 1
    assert (Comparison.GREATER if gap > 0 else Comparison.LESS) is want
    assert abs_compare(one + a, one) is want


def test_abs_compare_beyond_double_range(ctx37):
    # phi(10^400) has coefficients far past float range, and a coefficient
    # mass whose rounding noise swamps fixed 256-bit precision
    from pascalchar.char_sequences import build_tables, phi_chi

    x = phi_chi(10**400, build_tables(character(ctx37, 10)))
    assert abs_compare(x, CycInt.zero(36)) is Comparison.GREATER
    assert abs_compare(CycInt.zero(36), x) is Comparison.LESS


# ---------------------------------------------------------------------------
# certified embedding


def _planted(y, power, shift):
    """y^power minus the Gaussian integer nearest to it, plus shift: the
    shape of phi(p)^j - round(|phi(p)|^j), a value of modulus at most a
    few units under coefficients as wide as y^power's."""
    n = y.order
    x = CycInt.one(n)
    for _ in range(power):
        x = x * y
    bits = x.coeff_l1().bit_length() + 64
    with mpmath.workprec(bits):
        v = x.embed_mpc(bits)
        x = x - CycInt.from_int(n, int(mpmath.nint(v.real)) - shift)
        if n % 4 == 0:  # zeta^(n/4) = i
            x = x - CycInt.from_exponent(n, n // 4, int(mpmath.nint(v.imag)))
    return x


@st.composite
def _planted_cancellation(draw):
    n = draw(st.sampled_from([1, 2, 36, 96, 100, 228]))
    bits = draw(st.sampled_from([1, 8, 40, 100, 200]))
    terms = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-(1 << bits), 1 << bits)),
        min_size=1, max_size=6,
    ))
    y = CycInt.zero(n)
    for e, c in terms:
        y = y + CycInt.from_exponent(n, e, c)
    return _planted(y, draw(st.integers(1, 8)), draw(st.integers(-3, 3)))


def _reference_embed(x, bits):
    """embed(x) from its canonical form, summed exactly and rounded once."""
    with mpmath.workprec(bits):
        return mpmath.fsum(
            c * mpmath.expjpi(mpmath.mpf(2 * j) / x.order) for j, c in enumerate(x.canonical()) if c
        )


# past double range: the 53-bit rung overflows and only mpmath rungs remain
_BEYOND_DOUBLES = _planted(CycInt(36, (3 << 200, -(5 << 190)) + (0,) * 33 + (7 << 199,)), 6, 1)


def _wide(n):
    """A planted cancellation at order n with coefficients of about 6200
    bits, the width of a 1000-digit phi at p = 97 and 101."""
    rng = random.Random(n)
    y = CycInt.zero(n)
    for _ in range(6):
        y = y + CycInt.from_exponent(n, rng.randrange(n), rng.randrange(-(1 << 775), 1 << 775))
    return _planted(y, 8, 1)


@settings(max_examples=100)
@given(_planted_cancellation())
@example(_BEYOND_DOUBLES)
@example(_wide(96))
@example(_wide(100))
def test_embed_ball_encloses_reference(x):
    l1 = x.coeff_l1()
    rungs = (53, 128, 256, _mass_bits(l1))
    mass = max(l1, sum(abs(c) for c in x.canonical()))
    ref_bits = mass.bit_length() + 4 * max(rungs)
    want = _reference_embed(x, ref_bits)
    balls = [_embed_ball(x, bits) for bits in rungs]
    value, value_rad = embed_value(x)
    with mpmath.workprec(ref_bits):
        for bits, ball in zip(rungs, balls):
            if ball is None:  # doubles overflow only past float range
                assert bits == 53 and ((l1 + 1) * x.order).bit_length() > 1020
                continue
            mid, rad = ball
            assert abs(mpmath.mpc(mid) - want) <= rad
        assert abs(mpmath.mpc(value) - want) <= mpmath.ldexp(abs(want), -53)
        assert value_rad <= mpmath.ldexp(abs(value), -53)


@pytest.mark.parametrize("bits", [128, 256, 6300])
@pytest.mark.parametrize("order", [1, 2, 36, 96, 100, 228])
def test_powered_roots_within_the_root_budget(order, bits):
    # every root within the 22 * 2^-bits that _ball_radius assumes of a root
    roots = _mp_roots(order, bits)
    assert len(roots) == order
    with mpmath.workprec(bits + 64):
        for j, root in enumerate(roots):
            assert abs(root - mpmath.expjpi(mpmath.mpf(2 * j) / order)) <= mpmath.ldexp(22, -bits), j


def test_embed_mpc_matches_embed():
    a = _cyc(36, [77, 0, -18, 0, -21, 0, -8, 0, -3, 0, 33])
    v53 = a.embed()
    v200 = a.embed_mpc(200)
    with mpmath.workprec(200):
        assert abs(complex(float(v200.real), float(v200.imag)) - v53) < 1e-9


# ---------------------------------------------------------------------------
# all-character transform


def _direct_character_sums(hist):
    """sum_e hist[..., e] * zeta^(k*e), one character at a time."""
    n = hist.shape[-1]
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    base = np.arange(n)
    return np.stack([hist @ roots[(k * base) % n] for k in range(n)], axis=-1)


def _domain_tally(ctx):
    """The dlog tallies of rows 0..p-1, then of their union (phi(p))."""
    hist = ctx.row_dlog_hist
    return np.vstack([hist, hist.sum(axis=0)])


@pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)])
def test_character_sums_match_direct_sum(p):
    tally = _domain_tally(make_context(p))
    ks = range(p - 1)
    for t in (tally, tally[p]):
        mid, rad = character_balls(t, ks)
        want = _direct_character_sums(t)
        assert mid.shape == t.shape and np.shape(rad) == t.shape[:-1]
        assert np.allclose(mid, want, rtol=0, atol=1e-9)
        # both sums carry the proven error, so they are within two radii
        assert (np.abs(mid - want) <= 2 * np.expand_dims(rad, -1)).all()


@functools.lru_cache(maxsize=None)
def _fixed_point_roots(n):
    """2^80 times (Re, Im) of every zeta_n^j, rounded from 100-bit mpmath."""
    with mpmath.workprec(100):
        zeta = [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]
        re = [int(mpmath.nint(mpmath.ldexp(z.real, 80))) for z in zeta]
        im = [int(mpmath.nint(mpmath.ldexp(z.imag, 80))) for z in zeta]
    return re, im


def _exact_product(rows, fixed, idx):
    """rows @ fixed[idx] over the integers, exactly, by int64 limbs.

    fixed + 2^81 is split into limbs narrow enough that no int64 sum of
    products overflows; each limb product is then exact."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[-1]
    width = 62 - int(np.abs(rows).max(initial=1)).bit_length() - n.bit_length()
    offset = [z + (1 << 81) for z in fixed]
    out = -(rows.sum(axis=-1).astype(object)[..., None] << 81)
    for shift in range(0, 82, width):
        limb = np.array([(z >> shift) & ((1 << width) - 1) for z in offset], dtype=np.int64)
        out = out + ((rows @ limb[idx]).astype(object) << shift)
    return out


def _ball_errors(rows, ks, mid):
    """|mid - exact| of sum_e rows[..., e] * zeta^(k*e) for each k in ks,
    against the exact sums over _fixed_point_roots, which are within
    (l1 + 1) * 2^-80 of the true sums."""
    n = rows.shape[-1]
    idx = np.outer(np.arange(n), ks) % n
    re, im = _fixed_point_roots(n)

    def err(part, fixed):
        scaled = np.array([int(math.ldexp(v, 80)) for v in part.ravel()], dtype=object)
        return (scaled.reshape(part.shape) - _exact_product(rows, fixed, idx)).astype(float)

    return np.ldexp(np.hypot(err(mid.real, re), err(mid.imag, im)), -80)


def test_character_balls_enclose_exact_sums():
    # each midpoint lies within its radius of the exact sum: every T_k(b),
    # phi_k(m) for m < p and phi_k(p) of every prime p <= 61; at p = 997
    # seeded (b, k) and every Weil column tally at every k; and signed
    # coefficient vectors at k = 1, whose radius needs the mass of the
    # absolute values
    for p in filter(is_prime, range(2, 62)):
        ctx, ks = make_context(p), np.arange(p - 1)
        for tally in (_domain_tally(ctx), np.cumsum(ctx.row_dlog_hist, axis=0)[:-1]):
            mid, rad = character_balls(tally, ks)
            assert (_ball_errors(tally, ks, mid) <= rad[:, None]).all(), p
    p = 997
    ctx = make_context(p)
    tally = _domain_tally(ctx)
    rng = random.Random(5)
    for _ in range(40):
        rows, k = tally[[rng.randrange(p), p]], rng.randrange(p - 1)
        mid, rad = character_balls(rows, [k])
        assert (_ball_errors(rows, [k], mid)[:, 0] <= rad).all(), (rows, k)
    cols = np.array(
        [np.bincount([ctx.dlog[math.comb(m, n) % p] for m in range(n, p)], minlength=p - 1)
         for n in range(2, math.isqrt(p) + 1)]
    )
    mid, rad = character_balls(cols, range(p - 1))
    assert (_ball_errors(cols, range(p - 1), mid) <= rad[:, None]).all()
    chi = character(make_context(37), 10)
    tables = build_tables(chi)
    norms = [x * x.conjugate() for x in tables.T_table + tables.phi_table]
    signed = [(a - b).coeffs for a, b in zip(norms, norms[1:])]
    signed += [[rng.randrange(-(1 << 30), 1 << 30) for _ in range(36)] for _ in range(20)]
    signed = np.array(signed)
    mid, rad = character_balls(signed, [1])
    assert (_ball_errors(signed, [1], mid)[:, 0] <= rad).all()
