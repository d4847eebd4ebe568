"""Primality, digit strings, Lucas binomials, and prime contexts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalchar.core_arith import (
    DigitString,
    is_prime,
    least_primitive_root,
    lucas_binom,
    make_context,
    row_mod_p,
    to_digits,
)
from pascalchar.errors import NotPrime


def _sieve(limit: int) -> set[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return {int(i) for i in np.nonzero(flags)[0]}


def test_is_prime_matches_sieve():
    primes = _sieve(10_000)
    for n in range(10_000 + 1):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (2**61 - 1, True),
        (10**18 + 9, True),
        (10**18 + 7, False),
    ],
)
def test_is_prime_large_cases(n, expected):
    assert is_prime(n) is expected


def test_least_primitive_root_generates():
    for p in [3, 5, 7, 11, 13, 37, 101, 199]:
        g = least_primitive_root(p)
        n = p - 1
        prime_factors = {q for q in range(2, n + 1) if n % q == 0 and is_prime(q)}
        for q in prime_factors:
            assert pow(g, n // q, p) != 1, (p, g, q)
        # least: no smaller generator
        for h in range(2, g):
            assert any(pow(h, n // q, p) == 1 for q in prime_factors), (p, h)


@given(st.integers(min_value=0, max_value=10**12), st.sampled_from([2, 3, 5, 7, 13, 37]))
def test_to_digits_round_trip(n, p):
    ds = to_digits(n, p)
    assert isinstance(ds, DigitString)
    assert ds.value == n
    assert all(0 <= d < p for d in ds.digits)
    # LSB first, no leading zero except for n = 0
    if n == 0:
        assert ds.digits == (0,)
    else:
        assert ds.digits[-1] != 0
        assert sum(d * p**j for j, d in enumerate(ds.digits)) == n


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.sampled_from([2, 3, 5, 13]),
)
def test_lucas_binom_matches_comb(n, m, p):
    assert lucas_binom(n, m, make_context(p)) == math.comb(n, m) % p


def test_row_mod_p_matches_comb(contexts):
    for p in (3, 7, 13):
        for n in (0, 1, 5, 12, 40):
            row = row_mod_p(n, contexts[p])
            assert list(row) == [math.comb(n, m) % p for m in range(n + 1)]


def test_make_context_rejects_composites():
    for n in (0, 1, 4, 6, 100):
        with pytest.raises(NotPrime):
            make_context(n)


def test_context_dlog_inverts_power(contexts):
    for p, ctx in contexts.items():
        if p == 2:
            assert ctx.dlog[1] == 0
            continue
        for r in range(1, p):
            assert pow(ctx.g, ctx.dlog[r], p) == r


def test_context_fundamental_rows(contexts):
    for p, ctx in contexts.items():
        assert ctx.domain.shape == (p, p)
        for n in range(p):
            assert ctx.domain[n, : n + 1].tolist() == [math.comb(n, m) % p for m in range(n + 1)]
            assert not ctx.domain[n, n + 1 :].any()


def _loop_row_dlog_hist(ctx):
    """Oracle: tally each fundamental-domain entry C(b, m) mod p one at a
    time, from math.comb rather than the context's rows."""
    hist = np.zeros((ctx.p, max(ctx.order, 1)), dtype=np.int64)
    for b in range(ctx.p):
        for m in range(b + 1):
            hist[b, ctx.dlog[math.comb(b, m) % ctx.p]] += 1
    return hist


@pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)] + [997])
def test_row_dlog_hist_matches_loop(p):
    ctx = make_context(p)
    hist = ctx.row_dlog_hist
    assert hist.dtype == np.int64
    assert np.array_equal(hist, _loop_row_dlog_hist(ctx))


def test_row_dlog_hist_counts_nonzeros(contexts):
    # row n < p has n+1 entries, all nonzero; histogram is over dlog classes
    for p, ctx in contexts.items():
        hist = ctx.row_dlog_hist
        assert hist.shape == (p, max(p - 1, 1))
        for n in range(p):
            assert hist[n].sum() == n + 1
        # dlog-0 column counts entries equal to 1; row 1 is (1, 1)
        if p > 2:
            assert hist[1, 0] == 2
