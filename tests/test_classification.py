"""Verdicts, the prime scan, scatter data, and CSV emission."""

from __future__ import annotations

import csv
import io
import random

import mpmath
import numpy as np
import pytest

from pascalchar.characters import character, character_sums
from pascalchar.classification import (
    PREFILTER_MARGIN,
    ClassificationRecord,
    Verdict,
    classify,
    format_scan_table,
    fundamental_scatter,
    mean_report,
    scan,
    write_classification_csv,
    write_scatter_csv,
)
from pascalchar.core_arith import make_context


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


def test_scan_parallel_matches_serial():
    serial = scan(120)
    parallel = scan(120, jobs=4)
    assert [(r.p, r.k, r.verdict) for r in parallel] == [
        (r.p, r.k, r.verdict) for r in serial
    ]


def test_classification_csv_format(tmp_path):
    recs = scan(40)
    out = tmp_path / "t.csv"
    write_classification_csv(recs, str(out))
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "p,k,paper_label,parity,re_phi,im_phi,abs_phi,max_T_b,max_T_abs,verdict"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    row = rows[0]
    assert row["p"] == "37"
    assert row["k"] == "10"
    assert row["paper_label"] == "chi(2)=e^{20pi i/36}"
    assert row["verdict"] == "RowDominant"
    assert float(row["abs_phi"]) == pytest.approx(33.8769269023279)


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


def test_scatter_csv(tmp_path):
    out = tmp_path / "s.csv"
    write_scatter_csv(fundamental_scatter(10), str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,k,parity,re_phi_over_p,im_phi_over_p"
    assert len(lines) == 1 + (3 - 2) + (5 - 2) + (7 - 2)


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


def test_prefilter_error_below_margin():
    # the scan's T_k(b) and phi_k(p) = sum_b T_k(b) in doubles, against an
    # 80-bit sum at seeded (b, k): rounding must sit at least a million
    # times below the margin the scan allows character k
    p = 997
    ctx = make_context(p)
    n = ctx.order
    hist = ctx.row_dlog_hist
    t_vals = character_sums(hist)
    phis = t_vals.sum(axis=0)
    max_t = np.abs(t_vals).max(axis=0)
    margins = PREFILTER_MARGIN * np.maximum(1.0, np.maximum(np.abs(phis), max_t))
    totals = hist.sum(axis=0)
    rng = random.Random(5)
    worst = 0.0
    with mpmath.workprec(80):
        zeta = [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]

        def exact(row, k):
            return mpmath.fsum(int(c) * zeta[k * e % n] for e, c in enumerate(row) if c)

        for _ in range(40):
            b, k = rng.randrange(p), rng.randrange(n)
            err = max(abs(exact(hist[b], k) - t_vals[b, k]), abs(exact(totals, k) - phis[k]))
            worst = max(worst, err / margins[k])
    assert worst < 1e-6
