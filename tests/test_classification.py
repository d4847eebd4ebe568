"""Verdicts, the prime scan, scatter data, and parity means."""

from __future__ import annotations

import numpy as np
import pytest

from pascalchar import classification
from pascalchar.characters import character, character_balls
from pascalchar.classification import (
    ClassificationRecord,
    Verdict,
    classify,
    format_scan_table,
    fundamental_scatter,
    mean_report,
    scan,
)
from pascalchar.core_arith import is_prime, make_context


def test_classify_row_dominant_golden(ctx37):
    rec = classify(character(ctx37, 10))
    assert rec.verdict is Verdict.ROW_DOMINANT
    assert (rec.p, rec.k) == (37, 10)
    assert rec.witness_b == 36
    assert rec.parity == "even"
    assert rec.label == "chi(2)=e^{20pi i/36}"
    assert rec.abs_phi == pytest.approx(33.876926902327896, rel=1e-12)
    assert rec.max_T_abs == pytest.approx(37.0, rel=1e-12)
    assert rec.max_T_b == 36
    assert rec.phi_value.real == pytest.approx(33.7472651243456, abs=1e-9)
    assert rec.phi_value.imag == pytest.approx(2.96112697681136, abs=1e-9)


def test_classify_conjugate_pair_agrees(ctx37):
    a = classify(character(ctx37, 10))
    b = classify(character(ctx37, 26))
    assert b.verdict is a.verdict
    assert b.abs_phi == pytest.approx(a.abs_phi, rel=1e-12)
    assert b.witness_b == a.witness_b
    assert b.phi_value.imag == pytest.approx(-a.phi_value.imag, abs=1e-9)


def test_classify_principal_is_row_regular(contexts):
    for p in (3, 5, 7, 13):
        rec = classify(character(contexts[p], 0))
        assert rec.verdict is Verdict.ROW_REGULAR
        assert rec.witness_b is None


def test_classify_small_primes_all_row_regular(contexts):
    for p in (3, 5, 7, 11, 13):
        for k in range(p - 1):
            assert classify(character(contexts[p], k)).verdict is Verdict.ROW_REGULAR


def test_scan_orders_and_representatives():
    recs = scan(50)
    assert [(r.p, r.k) for r in recs] == [(37, 10), (47, 16)]
    for r in recs:
        assert 1 <= r.k <= (r.p - 1) // 2  # one representative per conjugate pair
        assert r.verdict is Verdict.ROW_DOMINANT


def test_scan_empty_below_37():
    assert scan(36) == []
    assert scan(2) == []


def test_scan_classifies_only_flagged_characters(monkeypatch):
    # flagged: some row's ball is not proven strictly below phi(p)'s
    flagged = []
    for p in filter(is_prime, range(3, 121)):
        ks = range(1, (p - 1) // 2 + 1)
        hist = make_context(p).row_dlog_hist
        mid, rad = character_balls(np.vstack([hist, hist.sum(axis=0)]), ks)
        for i, k in enumerate(ks):
            if (np.abs(mid[:p, i]) + rad[:p] + rad[p] >= np.abs(mid[p, i])).any():
                flagged.append((p, k))
    real, called = classification.classify, []

    def counting(chi):
        called.append((chi.ctx.p, chi.k))
        return real(chi)

    monkeypatch.setattr(classification, "classify", counting)
    recs = scan(120)
    assert called == flagged
    assert flagged == [(r.p, r.k) for r in recs]


@pytest.mark.parametrize("p, k", [(37, 10), (47, 16), (37, 1), (13, 0)])
def test_overlapping_rows_go_to_the_exact_comparator(monkeypatch, p, k):
    # widened balls overlap phi(p)'s on every row, so abs_compare decides
    # all p rows, and must reach the verdict the balls reach
    chi = character(make_context(p), k)
    want = classify(chi)
    real_balls, real_compare, compared = character_balls, classification.abs_compare, []

    def wide_balls(tally, ks):
        mid, rad = real_balls(tally, ks)
        return mid, rad * 1e30

    def counting(a, b):
        compared.append(a)
        return real_compare(a, b)

    monkeypatch.setattr(classification, "character_balls", wide_balls)
    monkeypatch.setattr(classification, "abs_compare", counting)
    got = classify(chi)
    assert len(compared) == p
    assert (got.verdict, got.witness_b, got.max_T_b) == (want.verdict, want.witness_b, want.max_T_b)


def test_format_scan_table_lists_labels():
    table = format_scan_table(scan(40))
    assert "37" in table and "chi(2)=e^{20pi i/36}" in table
    assert "(none)" in format_scan_table([])


def test_scatter_point_for_p3_exact():
    rows = fundamental_scatter(3)
    assert len(rows) == 1
    p, k, parity, re, im = rows[0]
    assert (p, k, parity) == (3, 1, "odd")
    # rows 0..2 of the triangle mod 3 hold six entries: five 1s and one 2,
    # so phi(3) = 5 + chi(2) = 4 and the plotted point is (4/3, 0)
    assert re == pytest.approx(4 / 3, rel=1e-12)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_scatter_counts_and_parity(contexts):
    rows = fundamental_scatter(30)
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(rows) == sum(p - 2 for p in odd_primes)
    for p, k, parity, re, im in rows:
        assert 1 <= k <= p - 2
        assert parity == ("even" if k % 2 == 0 else "odd")
        assert (re * re + im * im) ** 0.5 < (p + 1) / 2


def test_mean_report_hand_values():
    # p=5: the only even nonprincipal character is the quadratic one, with
    # phi(5) = 9; odd characters are the conjugate pair with Re phi(5) = 8
    rep = mean_report(5)
    assert rep.mu_even.real == pytest.approx(9.0, abs=1e-9)
    assert rep.mu_odd.real == pytest.approx(8.0, abs=1e-9)
    assert rep.ratio_even == pytest.approx(1.8, abs=1e-9)
    assert rep.ratio_odd == pytest.approx(1.6, abs=1e-9)
    # imaginary parts cancel within conjugate pairs
    assert abs(rep.mu_odd.imag) < 1e-9


def test_mean_report_p3_has_no_even_characters():
    rep = mean_report(3)
    assert rep.mu_even == 0
    assert rep.ratio_even == 0
    assert rep.ratio_odd == pytest.approx(4 / 3, rel=1e-12)
