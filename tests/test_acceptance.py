"""Acceptance gate: one test per release criterion, frozen oracle values.

Each test is self-contained, carries its own runtime ceiling where one is
required, and asserts exact or tolerance-tagged values that were derived
from independent computations (digit recursion vs direct summation,
formula vs brute force, Monte Carlo vs closed form).
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np
import pytest

from pascalchar.bounds_asymptotics import (
    alpha_sequence,
    bound_report,
    convergence_ratio,
    growth_profile,
    psi,
    row_dominant_witness,
)
from pascalchar.char_sequences import (
    A_count_bruteforce,
    A_count_formula,
    A_count_formula_all,
    T_chi,
    build_tables,
    phi_chi,
)
from pascalchar.characters import CycInt, character
from pascalchar.classification import Verdict, fundamental_scatter, mean_report, scan
from pascalchar.cli import main
from pascalchar.core_arith import is_prime, make_context

SMALL = (2, 3, 5, 7, 11, 13)

SCAN_GOLDEN = [
    (37, 10), (47, 16), (97, 22), (97, 46), (101, 28), (109, 48), (113, 8),
    (131, 24), (137, 12), (139, 26), (139, 32), (149, 26), (149, 60), (149, 68),
    (151, 12), (157, 30), (157, 32), (163, 26), (173, 76), (199, 58),
    (223, 28), (223, 38), (229, 10), (229, 24), (229, 80), (229, 100),
]


def test_criterion_01_p37_counterexample_exact_value():
    started = time.perf_counter()
    ctx = make_context(37)
    chi = character(ctx, 10)
    tables = build_tables(chi)
    phi_val = phi_chi(37, tables)
    emb = phi_val.embed()
    assert emb.real == pytest.approx(33.7472651243456, abs=1e-9)
    assert emb.imag == pytest.approx(2.96112697681136, abs=1e-9)
    # canonical exact form: 77 - 18 w - 21 w^2 - 8 w^3 - 3 w^4 + 33 w^5
    # in w = zeta_36^2, a 6-term expression
    coeffs = [0] * 36
    for e, c in zip((0, 2, 4, 6, 8, 10), (77, -18, -21, -8, -3, 33)):
        coeffs[e] = c
    assert phi_val.equals(CycInt(36, tuple(coeffs)))
    assert T_chi(36, tables).equals(CycInt.from_int(36, 37))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 01 PASS: phi(37) = {emb:.13g}, T(36) = 37 exact, {elapsed:.3f}s")


def test_criterion_02_full_table_scan(tmp_path, capsys):
    out = tmp_path / "scan230.csv"
    started = time.perf_counter()
    assert main(["scan", "--pmax", "230", "--out", str(out)]) == 0
    serial_s = time.perf_counter() - started
    capsys.readouterr()
    assert serial_s < 600.0

    lines = out.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == SCAN_GOLDEN
    assert all(r[-1] == "RowDominant" for r in rows)
    by_pk = {(int(r[0]), int(r[1])): r[2] for r in rows}
    assert by_pk[(37, 10)] == "chi(2)=e^{20pi i/36}"
    assert by_pk[(47, 16)] == "chi(5)=e^{32pi i/46}"

    # truncating the range just below the largest listed prime leaves the
    # 22-entry table that older summaries quote
    assert [(r.p, r.k) for r in scan(228)] == SCAN_GOLDEN[:22]
    print(
        f"criterion 02 PASS: 26 entries at pmax 230 ({serial_s:.2f}s serial), "
        f"22 at pmax 228"
    )


def test_criterion_03_formula_equals_bruteforce():
    started = time.perf_counter()
    checked = 0
    for p in SMALL:
        ctx = make_context(p)
        cum = np.zeros(p, dtype=np.int64)
        row = np.array([1], dtype=np.int64)
        for n in range(1, 1001):
            counts = np.bincount(row, minlength=p)
            cum += counts
            got = A_count_formula_all(n, ctx)
            assert tuple(int(c) for c in cum) == got.counts, (p, n)
            checked += p - 1
            row = np.concatenate(([1], (row[1:] + row[:-1]) % p, [1]))
        # spot-check the named brute-force oracle against the same tallies
        for n in (1, 7, 113, 1000):
            assert A_count_bruteforce(n, ctx).counts == A_count_formula_all(n, ctx).counts
        # and the single-residue entry point against the vector one
        rng = random.Random(1000 + p)
        for _ in range(25):
            n = rng.randint(1, 1000)
            r = rng.randint(1, p - 1)
            assert A_count_formula(n, r, ctx) == A_count_formula_all(n, ctx)[r]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 03 PASS: {checked} (p, n, r) counts match exactly, {elapsed:.1f}s")


def test_criterion_04_recursion_identities_randomized():
    started = time.perf_counter()
    rng = random.Random(20260816)
    tables_cache = {}
    contexts = {p: make_context(p) for p in SMALL}
    cases = 10_000
    for _ in range(cases):
        p = rng.choice(SMALL)
        ctx = contexts[p]
        k = rng.randrange(ctx.order)
        key = (p, k)
        if key not in tables_cache:
            tables_cache[key] = build_tables(character(ctx, k))
        tables = tables_cache[key]
        m = rng.randrange(0, 10**6)
        d = rng.randrange(0, p)
        n = rng.randrange(0, 10**6)
        # prefix-sum recursion phi(mp + d) = phi(m) phi(p) + T(m) phi(d)
        lhs = phi_chi(m * p + d, tables)
        rhs = phi_chi(m, tables) * tables.phi_p + T_chi(m, tables) * phi_chi(d, tables)
        assert lhs.equals(rhs), (p, k, m, d)
        # single-step difference phi(n+1) - phi(n) = T(n)
        step = phi_chi(n + 1, tables) + phi_chi(n, tables).scale(-1)
        assert step.equals(T_chi(n, tables)), (p, k, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 04 PASS: {cases} randomized cases, both identities exact, {elapsed:.1f}s")


def test_criterion_05_digit_product_vs_direct_rows():
    started = time.perf_counter()
    checked = 0
    for p in SMALL:
        ctx = make_context(p)
        order = ctx.order
        dlog = np.array(ctx.dlog, dtype=np.int64)
        all_tables = [build_tables(character(ctx, k)) for k in range(order)]
        row = np.array([1], dtype=np.int64)
        for n in range(0, 2001):
            nz = row[row > 0]
            hist = np.bincount(dlog[nz], minlength=order)
            for k in range(order):
                coeffs = [0] * order
                for e in range(order):
                    if hist[e]:
                        coeffs[(k * e) % order] += int(hist[e])
                direct = CycInt(order, tuple(coeffs))
                assert T_chi(n, all_tables[k]).equals(direct), (p, k, n)
                checked += 1
            row = np.concatenate(([1], (row[1:] + row[:-1]) % p, [1]))
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 05 PASS: {checked} row sums match the digit product, {elapsed:.1f}s")


def test_criterion_06_bounds_sweep():
    started = time.perf_counter()
    primes = [p for p in range(3, 201) if is_prime(p)]
    for p in primes:
        rep = bound_report(p)  # raises WeilViolation on any column failure
        assert rep.max_abs_phi < rep.trivial, p
        assert rep.max_abs_phi <= rep.weil + 1e-9, p
        assert rep.columns_checked == math.isqrt(p) - 1, p
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"criterion 06 PASS: bounds hold for all {len(primes)} primes <= 200, {elapsed:.1f}s")


def test_criterion_07_band_maxima_bracket():
    started = time.perf_counter()
    for p in (3, 5, 7):
        ctx = make_context(p)
        k_max = int(math.log(10**6) / math.log(p))
        for k in range(ctx.order):
            chi = character(ctx, k)
            tables = build_tables(chi)
            prof = growth_profile(chi)
            assert prof.q < 1.0, (p, k)  # row-regular throughout this range
            seq = alpha_sequence(chi, k_max)
            for i in range(1, len(seq.alphas)):
                assert seq.alphas[i] >= seq.alphas[i - 1] - 1e-12, (p, k, i)
                delta = seq.alphas[i] - seq.alphas[i - 1]
                assert delta < prof.abs_phi * seq.alphas[0] * prof.q**i, (p, k, i)
            for j in range(0, 5):
                assert psi(p**j, chi, tables) == 1.0 + 0j, (p, k, j)
    elapsed = time.perf_counter() - started
    print(f"criterion 07 PASS: bracket and psi(p^k) = 1 for p in (3,5,7), {elapsed:.1f}s")


def test_criterion_08_unbounded_witness_sequence(ctx37):
    rows = row_dominant_witness(character(ctx37, 10), 40)
    ratios = {k: ratio for k, _, ratio in rows}
    for k in range(3, 41):
        assert ratios[k] > ratios[k - 1], k
    assert ratios[40] > 10.0 * ratios[2]
    assert ratios[2] == pytest.approx(1.271398, abs=1e-5)
    assert ratios[40] == pytest.approx(35.971604, abs=1e-4)
    print(
        f"criterion 08 PASS: witness ratio grows {ratios[40] / ratios[2]:.2f}x "
        "from k=2 to k=40, strictly increasing"
    )


def test_criterion_09_count_ratio_trend(tmp_path, capsys):
    for p in (3, 5, 7):
        for r in range(1, p):
            for scale in (1.0, 1.7):
                rows = convergence_ratio(p, r, 8, scale=scale)
                by_k = {k: ratio for k, _, _, _, ratio in rows}
                assert abs(by_k[8] - 1.0) < abs(by_k[2] - 1.0), (p, r, scale)
    # deviations get recorded as manifest calibration data by the CLI
    out = tmp_path / "ratio.csv"
    assert main(["ratio", "--p", "5", "--r", "2", "--kmax", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    cal = json.loads((tmp_path / "ratio.csv.manifest.json").read_text())["calibration"]
    assert cal["final_abs_ratio_minus_1"] == cal["abs_ratio_minus_1_by_k"]["8"]
    assert cal["abs_ratio_minus_1_by_k"]["8"] < cal["abs_ratio_minus_1_by_k"]["2"]
    print("criterion 09 PASS: |ratio-1| at k=8 beats k=2 for all (p, r) on both ladders")


def test_criterion_10_model_moments():
    from pascalchar.random_model import ModelConfig, run_model

    started = time.perf_counter()
    st = run_model(ModelConfig(p=53, samples=2000, seed=1), "Ycount:2")
    stderr = math.sqrt(st.cf_var / st.samples)
    assert abs(st.mc_mean - st.cf_mean) < 4.0 * stderr
    assert st.cf_mean == pytest.approx((53**2 - 5 * 53 + 6) / (2 * 53 - 2), rel=1e-12)

    ch = run_model(ModelConfig(p=101, samples=5000, seed=1), "Ychar:even")
    cf_var = (2 * 101**2 - 11 * 101 + 15) / 2
    assert ch.cf_var == pytest.approx(cf_var, rel=1e-12)
    assert abs(ch.mc_var - cf_var) < 0.10 * cf_var
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"criterion 10 PASS: mean z = {st.z_score:.2f} < 4, "
        f"var ratio = {ch.mc_var / cf_var:.4f} within 10%, {elapsed:.1f}s"
    )


def test_criterion_11_scatter_reproduction(tmp_path, capsys):
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--pmax", "100", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")[1:]
    odd_primes = [p for p in range(3, 101) if is_prime(p)]
    assert len(lines) == sum(p - 2 for p in odd_primes)
    for line in lines:
        parts = line.split(",")
        p, re, im = int(parts[0]), float(parts[3]), float(parts[4])
        assert math.hypot(re, im) < (p + 1) / 2, line

    window = [p for p in odd_primes if 50 <= p <= 100]
    assert len(window) == 10
    reports = [mean_report(p) for p in window]
    even_mean = sum(r.ratio_even for r in reports) / len(reports)
    odd_mean = sum(r.ratio_odd for r in reports) / len(reports)
    assert 2.5 < even_mean < 3.5
    assert 1.5 < odd_mean < 2.5
    print(
        f"criterion 11 PASS: {len(lines)} points inside the trivial disk; "
        f"cluster means even {even_mean:.3f}, odd {odd_mean:.3f}"
    )
