"""Row sums, cumulative sums, and residue counting against direct oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalchar.char_sequences import (
    A_count_bruteforce,
    A_count_formula,
    A_count_formula_all,
    CountVector,
    T_chi,
    _leaf_digits,
    a_row,
    build_tables,
    phi_and_T,
    phi_chi,
)
from pascalchar.characters import CycInt, character, group
from pascalchar.core_arith import make_context, row_mod_p
from pascalchar.errors import IndexOutOfRange, LimitExceeded


def _direct_T(chi, n, ctx):
    """Row sum by evaluating the character on every entry of row n."""
    total = CycInt.zero(chi.order)
    for entry in row_mod_p(n, ctx):
        v = chi(entry)
        if not v.is_zero:
            total = total + CycInt.from_exponent(chi.order, v.exponent)
    return total


# ---------------------------------------------------------------------------
# fundamental tables


def test_tables_match_direct_row_sums(contexts):
    for p, ctx in contexts.items():
        for k in range(max(p - 1, 1)):
            chi = character(ctx, k)
            tables = build_tables(chi)
            assert len(tables.T_table) == p
            assert len(tables.phi_table) == p + 1
            acc = CycInt.zero(chi.order)
            for b in range(p):
                direct = _direct_T(chi, b, ctx)
                assert tables.T_table[b].equals(direct), (p, k, b)
                assert tables.phi_table[b].equals(acc), (p, k, b)
                acc = acc + direct
            assert tables.phi_table[p].equals(acc)
            assert tables.phi_p.equals(acc)


def test_phi_p_for_principal_is_triangle_number(contexts):
    for p, ctx in contexts.items():
        tables = build_tables(character(ctx, 0))
        assert tables.phi_p.embed() == pytest.approx(p * (p + 1) / 2)


# ---------------------------------------------------------------------------
# digit-product identity for T and the phi recursion


def test_T_digit_product_equals_direct(contexts):
    for p in (3, 7, 13):
        ctx = contexts[p]
        for k in range(p - 1):
            chi = character(ctx, k)
            tables = build_tables(chi)
            for n in list(range(0, 60)) + [p**2, p**2 + 3, 7 * p + 1, 400]:
                assert T_chi(n, tables).equals(_direct_T(chi, n, ctx)), (p, k, n)


def test_phi_is_prefix_sum_of_T(contexts):
    ctx = contexts[7]
    for k in range(6):
        chi = character(ctx, k)
        tables = build_tables(chi)
        acc = CycInt.zero(chi.order)
        for n in range(90):
            assert phi_chi(n, tables).equals(acc), (k, n)
            acc = acc + T_chi(n, tables)


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.data(),
)
def test_phi_product_and_shift_identities(p, data):
    ctx = make_context(p)
    k = data.draw(st.integers(min_value=0, max_value=max(p - 2, 0)))
    chi = character(ctx, k)
    tables = build_tables(chi)
    m = data.draw(st.integers(min_value=0, max_value=p**3))
    j = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=0, max_value=p**j - 1))
    # phi(m p^j) = phi(m) phi(p)^j
    lhs = phi_chi(m * p**j, tables)
    rhs = phi_chi(m, tables)
    for _ in range(j):
        rhs = rhs * tables.phi_p
    assert lhs.equals(rhs)
    # phi(m p^j + n) = phi(m p^j) + T(m) phi(n) for n < p^j
    lhs2 = phi_chi(m * p**j + n, tables)
    rhs2 = phi_chi(m * p**j, tables) + T_chi(m, tables) * phi_chi(n, tables)
    assert lhs2.equals(rhs2)


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5, 37, 97, 101, 229]), st.data())
def test_product_tree_equals_sequential_recursion(p, data):
    ctx = make_context(p)
    order = ctx.order
    # k = 0 and every k sharing a factor with p - 1 leave tables on a
    # support stride above 1, so the leaf pass keeps fewer coefficients
    shared = [k for k in range(order) if math.gcd(k, order) > 1] or [0]
    k = data.draw(st.one_of(
        st.none(), st.just(0), st.sampled_from(shared), st.integers(min_value=0, max_value=order - 1)
    ))
    tables = ctx.group_ring_tables if k is None else build_tables(character(ctx, k))
    # digit counts at and either side of the halving's powers of two and
    # of the first three multiples of the leaf size; the oracle's dense
    # products at orders past 100 keep those primes to shorter n
    b = _leaf_digits(p)
    j = data.draw(st.sampled_from(
        [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] + [63, 64, 65] * (p < 100)
        + [c * b + e for c in (1, 2, 3) for e in (-1, 0, 1)]
    ))
    n = data.draw(st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=p - 1),
        st.sampled_from([p**j, p**j - 1]),
        st.integers(min_value=p ** (j - 1), max_value=p**j - 1),
        st.integers(min_value=1, max_value=300 if p < 100 else 60).flatmap(
            lambda d: st.integers(min_value=10 ** (d - 1), max_value=10**d - 1)
        ),
    ))
    assert phi_and_T(n, tables) == (phi_chi(n, tables), T_chi(n, tables))


@pytest.mark.parametrize("p, k", [
    (2, 0), (3, 1), (5, 2), (37, None), (37, 10), (61, None),
    (101, 0), (101, 28), (229, None), (229, 12),
])
def test_product_tree_at_leaf_boundaries(p, k):
    ctx = make_context(p)
    tables = ctx.group_ring_tables if k is None else build_tables(character(ctx, k))
    b = _leaf_digits(p)
    rng = random.Random(p)
    for c in (1, 2, 3):
        ns = [rng.randrange(p ** (length - 1), p**length) for length in (c * b - 1, c * b, c * b + 1)]
        # every digit p - 1: the largest coefficients c full leaves hold
        for n in ns + [p ** (c * b) - 1]:
            assert phi_and_T(n, tables) == (phi_chi(n, tables), T_chi(n, tables)), (p, k, n)


@pytest.mark.parametrize("p", [2, 3, 5, 37, 61, 101, 229])
def test_leaf_size_at_its_bound(p):
    # rows below p^b hold (p(p+1)/2)^b nonzero entries, the most that any
    # coefficient sum in one leaf reaches; b is the most digits under 2^63
    tables = make_context(p).group_ring_tables
    b, tri = _leaf_digits(p), p * (p + 1) // 2
    assert tri**b < 2**63 <= tri ** (b + 1)
    # phi(p^b) = phi(p)^b, from the leaf pass's extra row
    assert sum(phi_and_T(p**b, tables)[0].coeffs) == tri**b
    # one full leaf of digits p - 1: phi(p^b - 1) + T(p^b - 1) = phi(p^b),
    # and no entry of row p^b - 1 vanishes mod p
    phi, t = phi_and_T(p**b - 1, tables)
    assert sum(phi.coeffs) + sum(t.coeffs) == tri**b
    assert sum(t.coeffs) == p**b


@pytest.mark.parametrize("j", [1, 2, 3, 64, 65, 3000])
def test_product_tree_closed_forms_at_p2(j):
    # mod 2 every entry is 0 or 1 and chi = 1 on 1, so T(n) = 2^(ones of n)
    # and phi(2^j) = 3^j; 2^j - 1 has j ones and phi(2^j - 1) = 3^j - 2^j
    tables = build_tables(character(make_context(2), 0))
    assert phi_and_T(2**j, tables) == (CycInt(1, (3**j,)), CycInt(1, (2,)))
    assert phi_and_T(2**j - 1, tables) == (CycInt(1, (3**j - 2**j,)), CycInt(1, (2**j,)))


@pytest.mark.parametrize("j", [2, 3, 63, 64, 65])
def test_product_tree_powers_of_p(j):
    # p^j is a one followed by j zeros, and phi(p^j) = phi(p)^j
    tables = make_context(37).group_ring_tables
    power = tables.phi_p
    for _ in range(j - 1):
        power = power * tables.phi_p
    assert phi_and_T(37**j, tables)[0] == power


# ---------------------------------------------------------------------------
# residue counts


def _character_inversion_count(n, r, ctx):
    """Oracle: the paper's counting formula, summed exactly.

    A_n(r) = (1/(p-1)) * sum over all p-1 characters of conj(chi)(r) *
    phi_chi(n), with each phi_chi(n) from its own tables and the sum
    reduced to canonical form in Z[zeta_{p-1}], where it must be a
    nonnegative integer multiple of p-1.
    """
    order = ctx.order
    e = ctx.dlog[r % ctx.p]
    total = CycInt.zero(order)
    for chi in group(ctx):
        total = total + phi_chi(n, build_tables(chi)).shift(-chi.k * e)
    reduced = total.canonical()
    assert not any(reduced[1:]) and reduced[0] >= 0 and reduced[0] % order == 0, reduced
    return reduced[0] // order


def _brute_row_counts(n, p):
    row = [math.comb(n, m) % p for m in range(n + 1)]
    counts = [0] * p
    for v in row:
        counts[v] += 1
    return counts


def test_a_row_matches_direct_row(contexts):
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 11, 13):
        ctx = contexts[p]
        for n in [0, 1, 2, p - 1, p, p + 1, p * p] + [rng.randrange(2000) for _ in range(6)]:
            got = a_row(n, ctx)
            expected = _brute_row_counts(n, p)
            assert list(got.counts) == expected, (p, n)
            assert got.total == n + 1


def test_count_vector_api():
    v = CountVector((3, 1, 2))
    assert len(v) == 3
    assert v[2] == 2
    assert v.total == 6


def test_bruteforce_small_hand_cases(contexts):
    ctx = contexts[5]
    # rows 0..4: 1 / 1,1 / 1,2,1 / 1,3,3,1 / 1,4,1,4,1  (mod 5: 6 is 1)
    counts = A_count_bruteforce(5, ctx)
    assert list(counts.counts) == [0, 10, 1, 2, 2]
    assert A_count_bruteforce(0, ctx).total == 0


def test_bruteforce_respects_limit(contexts):
    with pytest.raises(LimitExceeded):
        A_count_bruteforce(10_001, contexts[5])
    assert A_count_bruteforce(10_001, contexts[5], limit=10_001) is not None


def test_formula_r_divisible_by_p_rejected(contexts):
    with pytest.raises(IndexOutOfRange):
        A_count_formula(10, 5, contexts[5])
    with pytest.raises(IndexOutOfRange):
        A_count_formula(10, 0, contexts[5])


def test_formula_matches_bruteforce_random(contexts):
    rng = random.Random(20260816)
    for p in (2, 3, 5, 7, 11, 13):
        ctx = contexts[p]
        ns = [0, 1, 2, p, p + 1, p**2 - 1] + [rng.randrange(1500) for _ in range(5)]
        for n in ns:
            brute = A_count_bruteforce(n, ctx)
            formula = A_count_formula_all(n, ctx)
            assert list(formula.counts) == list(brute.counts), (p, n)


def test_formula_agrees_with_character_inversion(contexts):
    for p in (3, 7, 13):
        ctx = contexts[p]
        for n in (1, 9, 100, 999):
            for r in range(1, p):
                assert A_count_formula(n, r, ctx) == _character_inversion_count(n, r, ctx), (p, n, r)


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=0, max_value=1500), st.data())
def test_group_ring_count_equals_character_inversion_and_bruteforce(contexts, p, n, data):
    ctx = contexts[p]
    r = data.draw(st.integers(min_value=1, max_value=p - 1))
    got = A_count_formula(n, r, ctx)
    assert got == _character_inversion_count(n, r, ctx)
    assert got == A_count_bruteforce(n, ctx)[r]


def test_formula_agrees_with_character_inversion_at_30_digits(ctx37):
    n = 738_205_916_473_020_581_364_992_017_455
    for r in (1, 5, 36):
        assert A_count_formula(n, r, ctx37) == _character_inversion_count(n, r, ctx37)


def test_formula_agrees_with_character_inversion_at_p229():
    # the largest order in the scan table, on the Kronecker product path
    ctx = make_context(229)
    n = 738_205_916_473_020_581_364_992_017_455
    assert A_count_formula(n, 5, ctx) == _character_inversion_count(n, 5, ctx)


def test_formula_counts_p2_all_entries_nonzero(contexts):
    # at p=2 every nonzero entry is 1 and zeros follow the digit rule
    ctx = contexts[2]
    for n in (0, 1, 2, 3, 8, 100):
        counts = A_count_formula_all(n, ctx)
        assert counts[1] + counts[0] == n * (n + 1) // 2
        assert counts[1] == sum(
            np.prod([d + 1 for d in _base_digits(m, 2)]) for m in range(n)
        )


def _base_digits(n, p):
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def test_count_conservation(contexts):
    ctx = contexts[7]
    for n in (1, 10, 50, 343):
        counts = A_count_formula_all(n, ctx)
        assert counts.total == n * (n + 1) // 2
