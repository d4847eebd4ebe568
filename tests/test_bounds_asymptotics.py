"""Growth exponents, band maxima, psi, witness certificates, and bounds."""

from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalchar import bounds_asymptotics
from pascalchar.bounds_asymptotics import (
    alpha_sequence,
    bound_report,
    bounded_growth_check,
    convergence_ratio,
    growth_profile,
    psi,
    row_dominant_witness,
    sup_ratio,
    vartheta,
    vartheta_report,
)
from pascalchar.char_sequences import FundamentalTables, build_tables, phi_and_T, phi_chi, tally_sum
from pascalchar.characters import CycInt, character, embed_value
from pascalchar.core_arith import make_context
from pascalchar.errors import (
    LimitExceeded,
    NotPrime,
    NotRowDominant,
    UndefinedTheta,
    WeilViolation,
)

_37_12 = 37**12


def test_growth_profile_principal(contexts):
    # chi_0 gives T(b) = b+1 and phi(p) = p(p+1)/2, so q = 2/(p+1)
    for p in (3, 5, 7, 13):
        prof = growth_profile(character(contexts[p], 0))
        assert prof.abs_phi == pytest.approx(p * (p + 1) / 2, rel=1e-12)
        assert prof.q == pytest.approx(2 / (p + 1), rel=1e-12)
        assert prof.theta.imag == pytest.approx(0.0, abs=1e-12)
        assert prof.theta.real == pytest.approx(math.log(p * (p + 1) / 2) / math.log(p), rel=1e-12)
        assert prof.max_abs_T == pytest.approx(float(p), rel=1e-12)
        assert prof.rho == pytest.approx(1.0, rel=1e-12)
        assert 0 < prof.omega <= 1


def test_growth_profile_row_dominant_has_negative_omega(ctx37):
    prof = growth_profile(character(ctx37, 10))
    assert prof.q > 1
    assert prof.omega < 0
    assert prof.abs_phi == pytest.approx(33.876926902327896, rel=1e-12)
    assert prof.max_abs_T == pytest.approx(37.0, rel=1e-12)


def test_growth_profile_rejects_zero_phi():
    # no character mod a prime below 400 has phi(p) = 0, so plant one: a
    # tally with equal columns makes every phi_k(p) with k != 0 exactly 0
    ctx = make_context(37)
    ctx.__dict__["row_dlog_hist"] = np.ones((37, 36), dtype=np.int64)
    with pytest.raises(UndefinedTheta, match="is zero"):
        growth_profile(character(ctx, 10))


def test_psi_rejects_zero_phi(ctx37):
    # the zero test comes before the shortcut psi(p^j) = 1
    chi = character(ctx37, 10)
    layout = build_tables(chi).layout.copy()
    layout[2 * 37] = 0  # phi(p), the last row of the layout
    zero = FundamentalTables(chi, layout)
    for x in (3, 37**2):
        with pytest.raises(UndefinedTheta, match="is zero"):
            psi(x, chi, zero)


def test_alpha_sequence_golden_and_invariants(contexts):
    seq = alpha_sequence(character(contexts[5], 1), 6)
    expected = [
        1.22668690829452,
        1.28504273988781,
        1.30199359405658,
        1.31510105431167,
        1.31510105431167,
        1.31574878822911,
    ]
    assert list(seq.alphas) == pytest.approx(expected, rel=1e-10)
    for a, b in zip(seq.alphas, seq.alphas[1:]):
        assert b >= a  # nondecreasing by definition of nested maxima


def test_alpha_sequence_paper_command_golden():
    # the paper's `alpha --p 7 --k 1 --kmax 8`; bands 3, 6 and 8 add no new
    # maximum, so every step must be >= 0 with no rounding below zero
    seq = alpha_sequence(character(make_context(7), 1), 8)
    expected = [
        1.31061470491312,
        1.32652893021523,
        1.32652893021523,
        1.32661228935138,
        1.32661804903576,
        1.32661804903576,
        1.32661942793611,
        1.32661942793611,
    ]
    assert list(seq.alphas) == pytest.approx(expected, rel=1e-13)
    steps = [b - a for a, b in zip(seq.alphas, seq.alphas[1:])]
    assert all(step >= 0 for step in steps)
    # bands 3, 6 and 8 sweep only n that 7 does not divide, so rounding
    # of |phi(7n)|/(7n)^sigma against |phi(n)|/n^sigma adds no step
    assert steps[1] == steps[4] == steps[6] == 0.0


def test_alpha_sequence_steps_shrink_geometrically(contexts):
    for p, k in ((3, 1), (5, 2), (7, 3)):
        chi = character(contexts[p], k)
        prof = growth_profile(chi)
        seq = alpha_sequence(chi, 6)
        for i in range(1, len(seq.alphas)):
            delta = seq.alphas[i] - seq.alphas[i - 1]
            bound = prof.abs_phi * seq.alphas[0] * prof.q ** i
            assert delta <= bound + 1e-12


def test_alpha_sequence_limit_guard(contexts):
    with pytest.raises(LimitExceeded):
        alpha_sequence(character(contexts[7], 1), 12)
    with pytest.raises(ValueError):
        alpha_sequence(character(contexts[7], 1), 0)
    seq = alpha_sequence(character(contexts[7], 1), 9, limit=7**9)
    assert len(seq.alphas) == 9


def test_sup_ratio_consistent_with_alpha(contexts):
    chi = character(contexts[5], 1)
    prof = growth_profile(chi)
    seq = alpha_sequence(chi, 4)
    sup, arg = sup_ratio(chi, prof.theta.real, 5**4)
    assert sup == pytest.approx(max(seq.alphas), rel=1e-12)
    assert 2 <= arg <= 5**4


def test_psi_prime_powers_are_exactly_one(contexts):
    chi = character(contexts[5], 2)
    for x in (1, 5, 5**4, Fraction(1, 5), Fraction(1, 125)):
        assert psi(x, chi) == 1.0 + 0j


def test_psi_scale_invariance_exact(contexts):
    chi = character(contexts[7], 1)
    base = psi(11, chi)
    assert psi(Fraction(11, 7), chi) == base
    assert psi(11 * 7, chi) == base
    assert psi(11 * 7**3, chi) == base


def test_psi_rejects_bad_inputs(contexts):
    chi = character(contexts[5], 1)
    with pytest.raises(ValueError):
        psi(Fraction(1, 3), chi)
    with pytest.raises(ValueError):
        psi(0, chi)
    with pytest.raises(ValueError):
        psi(Fraction(-2, 5), chi)


def _psi_reference(m, chi):
    """phi(m)/m^theta from the canonical form of phi(m), embedded with
    enough bits to survive cancellation, and theta at 256 bits."""
    tables = build_tables(chi)

    def embed(x):
        coeffs = x.canonical()
        bits = sum(abs(c) for c in coeffs).bit_length() + 128
        with mpmath.workprec(bits):
            return +mpmath.fsum(
                c * mpmath.expjpi(mpmath.mpf(2 * j) / x.order) for j, c in enumerate(coeffs) if c
            )

    val = embed(phi_chi(m, tables))
    with mpmath.workprec(256):
        theta = mpmath.log(embed(tables.phi_p)) / mpmath.log(chi.ctx.p)
        return val / mpmath.exp(theta * mpmath.log(m))


@pytest.mark.parametrize("digits", [400, 1000])
def test_psi_beyond_double_range(ctx37, digits):
    # phi(m) and m^theta both pass 10^308 here; only their quotient is O(1)
    chi = character(ctx37, 10)
    m = int("7" * digits)
    got = psi(m, chi)
    assert cmath.isfinite(got)
    want = _psi_reference(m, chi)
    assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want)
    assert psi(Fraction(m * 37, 37**5), chi) == got


def test_psi_continuity_probe(contexts):
    # approach x = 2 through x_b = 2 + p^-b; the gap should shrink
    chi = character(contexts[5], 1)
    target = psi(2, chi)
    gaps = []
    for b in (2, 4, 6):
        x = Fraction(2) + Fraction(1, 5**b)
        gaps.append(abs(psi(x, chi) - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_row_dominant_witness_golden(ctx37):
    rows = row_dominant_witness(character(ctx37, 10), 40)
    assert [k for k, _, _ in rows] == list(range(1, 41))
    n1 = rows[0][1]
    assert n1 == 36
    assert rows[1][1] == 36 * 37 + 36
    ratios = [r for _, _, r in rows]
    assert ratios[1] == pytest.approx(1.271398, abs=1e-5)
    assert ratios[39] == pytest.approx(35.971604, abs=1e-4)
    for a, b in zip(ratios, ratios[1:]):
        assert b > a  # strictly increasing certificate


def test_row_dominant_witness_closed_form(ctx37):
    # with b = p-1 the certificate collapses to 1 + |1 - w^k| for
    # w = T(b)/phi(p), since phi(n_k) = phi(p)^k - T(b)^k exactly
    from pascalchar.char_sequences import build_tables

    chi = character(ctx37, 10)
    tables = build_tables(chi)
    w = tables.T_table[36].embed() / tables.phi_p.embed()
    rows = row_dominant_witness(chi, 25)
    for k in (2, 7, 10, 12, 25):
        expected = 1.0 + abs(1.0 - w**k)
        assert rows[k - 1][2] == pytest.approx(expected, rel=1e-9)


def test_row_dominant_witness_rejects_row_regular(contexts):
    with pytest.raises(NotRowDominant):
        row_dominant_witness(character(contexts[5], 1), 5)


def test_embed_value_survives_catastrophic_cancellation(ctx37):
    # phi(p)^12 - 37^12 has coefficient mass ~1e34 but value ~5e18;
    # a double embed of the difference is pure rounding noise
    from pascalchar.char_sequences import build_tables

    tables = build_tables(character(ctx37, 10))
    diff = tables.phi_p
    for _ in range(11):
        diff = diff * tables.phi_p
    diff = diff + CycInt.from_int(36, -_37_12)
    got = complex(embed_value(diff)[0])
    with mpmath.workprec(400):
        z = mpmath.expjpi(mpmath.mpf(2) / 36)
        acc = mpmath.mpc(0)
        for e, c in enumerate(diff.canonical()):
            acc += int(c) * z**e
        want = complex(float(acc.real), float(acc.imag))
    assert got.real == pytest.approx(want.real, rel=1e-9)
    assert got.imag == pytest.approx(want.imag, rel=1e-9)
    assert abs(got) == pytest.approx(abs(want), rel=1e-9)


def test_embed_value_exact_zero(ctx37):
    x = CycInt.from_int(36, 5) + CycInt.from_int(36, -5)
    assert embed_value(x) == (0j, 0.0)


def test_bound_report_golden_37():
    rep = bound_report(37)
    assert rep.trivial == 703
    assert (rep.weil_A, rep.weil_B) == (1004, 40)
    assert rep.weil == pytest.approx(623.655250605964, rel=1e-12)
    assert rep.weil_simple == pytest.approx(661.427511924334, rel=1e-12)
    assert rep.max_abs_phi == pytest.approx(143.815854480652, rel=1e-10)
    assert rep.columns_checked == 5
    assert rep.max_abs_phi < rep.weil < rep.weil_simple < rep.trivial


def test_bound_report_ordering_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53):
        rep = bound_report(p)
        assert rep.max_abs_phi < rep.trivial
        # weil bound touches the max exactly at p=3, hence <=
        assert rep.max_abs_phi <= rep.weil + 1e-9
        assert rep.weil <= rep.trivial


def test_bound_report_p3_equality():
    rep = bound_report(3)
    assert rep.weil == pytest.approx(4.0, abs=1e-12)
    assert rep.max_abs_phi == pytest.approx(4.0, abs=1e-12)


def test_bound_report_weil_check_reads_the_balls(monkeypatch):
    # a violation needs the whole ball above n*sqrt(p): midpoints scaled
    # by 10 break the bound, a radius widened past them hides any excess
    want = bound_report(37)
    real = bounds_asymptotics.character_balls

    def scaled(tally, ks):
        mid, rad = real(tally, ks)
        return mid * 10, rad

    def wide(tally, ks):
        mid, rad = real(tally, ks)
        return mid, rad * 1e30

    monkeypatch.setattr(bounds_asymptotics, "character_balls", scaled)
    with pytest.raises(WeilViolation, match="column 2 "):
        bound_report(37)
    monkeypatch.setattr(bounds_asymptotics, "character_balls", wide)
    assert bound_report(37) == want


def test_bound_report_rejects_bad_p():
    with pytest.raises(NotPrime):
        bound_report(35)
    with pytest.raises(ValueError):
        bound_report(2)


def test_vartheta_report_consistency():
    for p in (5, 7, 13, 37):
        rep = vartheta_report(p, 0.05)
        assert rep.value == max(rep.max_re_theta, 1.05)
        assert rep.value == vartheta(p, 0.05)
        assert rep.skipped >= 0
        assert rep.max_re_theta < 2.0  # theta is bounded by the trivial exponent
    with pytest.raises(ValueError):
        vartheta_report(5, 0.0)


def _vartheta_by_profiles(p, eps):
    """(skipped, max Re theta, max rho + eps) from one growth_profile per
    nonprincipal character, the loop vartheta_report replaced."""
    ctx = make_context(p)
    re_thetas, rhos, skipped = [], [], 0
    for k in range(1, ctx.order):
        try:
            profile = growth_profile(character(ctx, k))
        except UndefinedTheta:
            skipped += 1
            continue
        re_thetas.append(profile.theta.real)
        rhos.append(profile.rho)
    return skipped, max(re_thetas, default=-math.inf), max(rhos, default=-math.inf) + eps


@pytest.mark.parametrize("p", [2, 5, 7, 13, 37, 101])
def test_vartheta_report_matches_per_character_profiles(monkeypatch, p):
    skipped, max_re, max_rho_plus_eps = _vartheta_by_profiles(p, 0.05)
    rep = vartheta_report(p, 0.05)
    assert rep.skipped == skipped
    assert rep.max_rho_plus_eps == max_rho_plus_eps
    assert rep.max_re_theta == pytest.approx(max_re, rel=1e-12)
    # balls widened past 0 send every phi(p) to the exact zero test,
    # which must skip none of these nonzero values
    real = bounds_asymptotics.character_balls

    def wide_balls(tally, ks):
        mid, rad = real(tally, ks)
        return mid, rad * 1e30

    monkeypatch.setattr(bounds_asymptotics, "character_balls", wide_balls)
    wide = vartheta_report(p, 0.05)
    assert wide.max_re_theta_rad == (math.inf if p > 2 else 0.0)
    assert dataclasses.replace(wide, max_re_theta_rad=rep.max_re_theta_rad) == rep


def test_vartheta_report_radius_encloses_exact_max_re_theta():
    # the midpoint max Re theta at p = 997 is off by about 1e-15; the true
    # max |phi_k(p)| is among the k whose midpoints lie within two radii
    # of the top one, evaluated here at 100 bits
    p = 997
    rep = vartheta_report(p, 0.05)
    ctx = make_context(p)
    totals = ctx.row_dlog_hist.sum(axis=0)
    mid, rad = bounds_asymptotics.character_balls(totals, range(p - 1))
    near = np.flatnonzero(np.abs(mid) >= np.abs(mid[1:]).max() - 2 * rad)
    with mpmath.workprec(100):
        top = max(abs(tally_sum(totals, character(ctx, int(k))).embed_mpc(100)) for k in near if k)
        exact = mpmath.log(top) / mpmath.log(p)
        assert 0 < rep.max_re_theta_rad < 1e-9
        assert abs(rep.max_re_theta - exact) <= rep.max_re_theta_rad


def test_bounded_growth_check_fields(ctx37, contexts):
    # the premise |phi(p)| <= p^(rho+eps) holds exactly when the single-row
    # maximum dominates, i.e. for row-dominant characters
    rep = bounded_growth_check(character(ctx37, 10), eps=0.05, n_max=2 * 10**4)
    assert rep.p == 37 and rep.k == 10
    assert rep.hypothesis_ok
    assert rep.rho == pytest.approx(1.0, rel=1e-12)
    assert 0 < rep.sup < 10.0
    assert 2 <= rep.arg_n <= 2 * 10**4

    weak = bounded_growth_check(character(contexts[5], 1), eps=0.05, n_max=10**4)
    assert not weak.hypothesis_ok  # row-regular: |phi(p)| strictly beats max |T|


def _digit_pass_sweep(lo, hi, sigma, p, emb, coprime=False):
    """Max of |phi(n)|/n^sigma over lo <= n <= hi (with coprime, only the
    n that p does not divide) with its first argmax, by a full digit pass
    for every n: the sweep the block sweep replaced."""
    f_p = emb[2 * p]
    ndigits = 1
    while p**ndigits <= hi:
        ndigits += 1
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    if coprime:
        ns = ns[ns % p != 0]
    acc = np.zeros(len(ns), dtype=np.complex128)
    t = np.ones(len(ns), dtype=np.complex128)
    for j in range(ndigits - 1, -1, -1):
        d = (ns // p**j) % p
        acc = acc * f_p + t * emb[p + d]
        t = t * emb[d]
    ratios = np.abs(acc) / ns.astype(np.float64) ** sigma
    i = int(np.argmax(ratios))
    return float(ratios[i]), int(ns[i])


_SWEEP_LIMIT = 5000


@st.composite
def _sweep_ranges(draw):
    """(p, block, lo, hi) with 2 <= lo <= hi <= 5000, where block = p^e is
    the sweep chunk the test sets, so S = block once hi >= p^(e-1). The
    shapes cover hi below the block, lo and hi inside one block, lo on a
    block boundary, and any range."""
    p = draw(st.sampled_from([2, 3, 5, 7, 37]))
    e_max = 1
    while p ** (e_max + 1) <= _SWEEP_LIMIT // 2:
        e_max += 1
    block = p ** draw(st.integers(1, e_max))
    shape = draw(st.sampled_from(["below", "inside", "boundary", "any"]))
    m = draw(st.integers(1, _SWEEP_LIMIT // block - 1))
    if shape == "below":
        lo, hi = sorted(draw(st.lists(st.integers(2, max(2, block - 1)), min_size=2, max_size=2)))
    elif shape == "inside":
        r0, r1 = sorted(draw(st.lists(st.integers(0, block - 1), min_size=2, max_size=2)))
        lo, hi = m * block + r0, m * block + r1
    elif shape == "boundary":
        lo = m * block
        hi = draw(st.integers(lo, _SWEEP_LIMIT))
    else:
        lo, hi = sorted(draw(st.lists(st.integers(2, _SWEEP_LIMIT), min_size=2, max_size=2)))
    return p, block, lo, hi


@given(case=_sweep_ranges(), k=st.integers(0, 35), sigma=st.floats(0.5, 2.0), coprime=st.booleans())
def test_ratio_sweep_matches_digit_pass(contexts, ctx37, case, k, sigma, coprime):
    p, block, lo, hi = case
    # the coprime sweep needs one n that p does not divide
    coprime = coprime and (hi > lo or lo % p != 0)
    ctx = ctx37 if p == 37 else contexts[p]
    chi = character(ctx, k % ctx.order)
    emb = bounds_asymptotics._tally_balls(chi)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds_asymptotics, "_SWEEP_CHUNK", block)
        best, arg = bounds_asymptotics._ratio_sweep_max(lo, hi, sigma, p, emb, _coprime=coprime)
    # n and p*n have equal ratios in exact arithmetic, so the argmax
    # itself may differ from the oracle's; its ratio may not
    assert best == pytest.approx(_digit_pass_sweep(lo, hi, sigma, p, emb, coprime)[0], rel=1e-12)
    assert lo <= arg <= hi
    assert not coprime or arg % p != 0
    assert _digit_pass_sweep(arg, arg, sigma, p, emb)[0] == pytest.approx(best, rel=1e-12)


def test_sup_ratio_matches_exact_phi(contexts):
    # every |phi(n)| for n <= 300 from the exact recursion, embedded once
    for k in range(4):
        chi = character(contexts[5], k)
        sigma = growth_profile(chi).theta.real
        tables = build_tables(chi)
        exact = {n: abs(complex(embed_value(phi_and_T(n, tables)[0])[0])) / n**sigma
                 for n in range(2, 301)}
        sup, arg = sup_ratio(chi, sigma, 300)
        assert sup == pytest.approx(max(exact.values()), rel=1e-12)
        assert exact[arg] == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("n_max", [1, 0, -5])
def test_sweep_rejects_empty_range(ctx37, n_max):
    # 1 < n <= n_max is empty: no sup and no argmax inside the swept range
    chi = character(ctx37, 10)
    with pytest.raises(ValueError, match="n_max"):
        sup_ratio(chi, 1.0, n_max)
    with pytest.raises(ValueError, match="n_max"):
        bounded_growth_check(chi, n_max=n_max)


def test_convergence_ratio_exact_golden():
    rows = convergence_ratio(5, 2, 6)
    by_k = {k: (a, phi0, ratio) for k, _, a, phi0, ratio in rows}
    assert by_k[0] == (0, 1, 0.0)
    assert by_k[1][:2] == (1, 15)
    assert by_k[2][:2] == (28, 225)
    assert by_k[2][2] == pytest.approx(0.497777777777778, rel=1e-12)
    assert by_k[6][:2] == (2621588, 11390625)
    assert by_k[6][2] == pytest.approx(0.920612521262003, rel=1e-12)


def test_convergence_ratio_tightens():
    for p in (3, 5, 7):
        for scale in (1.0, 1.7):
            rows = convergence_ratio(p, 1, 8, scale=scale)
            final = rows[-1][4]
            early = rows[2][4]
            assert abs(final - 1.0) < abs(early - 1.0)
