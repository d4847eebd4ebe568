"""Synthetic triangle model: layout, closed forms, and Monte Carlo moments."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from pascalchar.errors import NotPrime
from pascalchar.random_model import (
    ModelConfig,
    char_border_sum,
    closed_form_Y,
    closed_form_Y_exact,
    closed_form_char,
    deterministic_count,
    run_model,
    sample_domain,
    stats_to_json_dict,
)


def test_config_validation():
    with pytest.raises(NotPrime):
        ModelConfig(p=15, samples=100, seed=0)
    with pytest.raises(ValueError):
        ModelConfig(p=3, samples=100, seed=0)
    with pytest.raises(ValueError):
        ModelConfig(p=7, samples=99, seed=0)
    with pytest.raises(ValueError, match="seed"):
        ModelConfig(p=5, samples=100, seed=-1)


def test_domain_layout():
    p = 13
    cfg = ModelConfig(p=p, samples=100, seed=42)
    dom = sample_domain(cfg, trial=3)
    assert dom.shape == (p, p)
    for n in range(p):
        assert dom[n, 0] == 1 and dom[n, n] == 1
        for m in range(n + 1, p):
            assert dom[n, m] == 0  # above the diagonal stays empty
    # last row alternates 1, p-1 like the final fundamental-domain row
    assert list(dom[p - 1]) == [1 if j % 2 == 0 else p - 1 for j in range(p)]
    # mirror symmetry inside every row
    for n in range(p):
        for m in range(n + 1):
            assert dom[n, m] == dom[n, n - m]
    interior = [dom[n, m] for n in range(2, p - 1) for m in range(1, n)]
    assert all(1 <= v < p for v in interior)
    assert len(interior) == (p - 3) * (p - 2) // 2


def test_domain_determinism():
    cfg = ModelConfig(p=11, samples=100, seed=7)
    a = sample_domain(cfg, trial=5)
    b = sample_domain(cfg, trial=5)
    assert np.array_equal(a, b)
    c = sample_domain(cfg, trial=6)
    assert not np.array_equal(a, c)
    d = sample_domain(ModelConfig(p=11, samples=100, seed=8), trial=5)
    assert not np.array_equal(a, d)


def test_closed_form_Y_hand_values():
    # p=5: interior has 3 cells, each residue hit w.p. 1/4
    mean, var = closed_form_Y(5)
    assert mean == pytest.approx(0.75)
    assert var == pytest.approx(0.9375)
    em, ev = closed_form_Y_exact(5)
    assert (em, ev) == (Fraction(3, 4), Fraction(15, 16))


def test_closed_form_char_hand_values():
    even_mean, even_var = closed_form_char(7, "even")
    odd_mean, odd_var = closed_form_char(7, "odd")
    assert (even_mean, odd_mean) == (21.0, 15.0)
    assert even_var == odd_var == 18.0
    with pytest.raises(ValueError):
        closed_form_char(7, "both")


def test_deterministic_counts():
    for p in (5, 7, 29, 53):
        assert deterministic_count(p, 1) == (5 * p - 5) // 2
        assert deterministic_count(p, p - 1) == (p - 1) // 2
        if p > 5:
            assert deterministic_count(p, 2) == 0
        assert char_border_sum(p, "even") == 3 * p - 3
        assert char_border_sum(p, "odd") == 2 * p - 2


def test_residue_counts_partition_interior():
    p = 11
    cfg = ModelConfig(p=p, samples=300, seed=9)
    total = sum(run_model(cfg, f"Ycount:{r}").mc_mean for r in range(1, p))
    assert total == pytest.approx((p - 3) * (p - 2) / 2, abs=1e-9)


def test_run_model_determinism_bit_identical():
    cfg = ModelConfig(p=29, samples=500, seed=123)
    a = run_model(cfg, "Ycount:3")
    b = run_model(cfg, "Ycount:3")
    assert a == b
    c = run_model(ModelConfig(p=29, samples=500, seed=124), "Ycount:3")
    assert a.mc_mean != c.mc_mean


def test_run_model_matches_closed_form():
    cfg = ModelConfig(p=53, samples=2000, seed=1)
    st = run_model(cfg, "Ycount:2")
    assert st.cf_mean == pytest.approx(24.519230769230770, rel=1e-12)
    assert st.mc_mean == pytest.approx(24.6775, abs=1e-4)
    assert st.z_score < 4.0
    assert st.mc_var == pytest.approx(st.cf_var, rel=0.15)
    assert st.adjusted_cf_mean is None


def test_run_model_ap_target_offsets():
    cfg = ModelConfig(p=29, samples=400, seed=2)
    y = run_model(cfg, "Ycount:1")
    a = run_model(cfg, "Ap:1")
    det = deterministic_count(29, 1)
    assert a.mc_mean == pytest.approx(y.mc_mean + det, abs=1e-9)
    assert a.cf_mean == pytest.approx(y.cf_mean + det, abs=1e-12)
    # the adjustment-constant mean double counts the two corner cells
    assert a.adjusted_cf_mean - a.cf_mean == pytest.approx(2.0, abs=1e-12)
    top = run_model(cfg, f"Ap:{29 - 1}")
    assert top.adjusted_cf_mean - top.cf_mean == pytest.approx(0.0, abs=1e-12)


def test_run_model_char_targets():
    cfg = ModelConfig(p=31, samples=1500, seed=5)
    even = run_model(cfg, "Ychar:even")
    odd = run_model(cfg, "Ychar:odd")
    # interior contributions are identical streams; only the border differs
    assert even.mc_mean.real - odd.mc_mean.real == pytest.approx(31 - 1, abs=1e-9)
    assert even.mc_mean.imag == pytest.approx(odd.mc_mean.imag, abs=1e-9)
    assert even.mc_var == pytest.approx(odd.mc_var, rel=1e-12)
    assert even.mc_var == pytest.approx(even.cf_var, rel=0.15)
    assert abs(even.mc_mean - (3 * 31 - 3)) < 4.0


def test_run_model_rejects_bad_targets():
    cfg = ModelConfig(p=7, samples=100, seed=0)
    for bad in ("Ycount:7", "Ycount:0", "Ychar:neither", "Zcount:1", "Ap:14"):
        with pytest.raises(ValueError):
            run_model(cfg, bad)


def test_free_cell_uniformity_chisquare():
    # distribution of one mirrored free cell across 10^4 trials
    p = 5
    cfg = ModelConfig(p=p, samples=100, seed=77)
    vals = np.array([sample_domain(cfg, trial=i)[3, 1] for i in range(10_000)])
    counts = np.bincount(vals, minlength=p)[1:]
    assert counts.sum() == 10_000
    res = sps.chisquare(counts)
    assert res.pvalue > 0.001


def test_stats_json_dict():
    cfg = ModelConfig(p=13, samples=200, seed=3)
    st = run_model(cfg, "Ychar:odd")
    d = stats_to_json_dict(st)
    assert set(d) == {
        "target", "p", "samples", "seed", "mc_mean", "mc_var",
        "cf_mean", "cf_var", "z_score",
    }
    assert d["mc_mean"] == {"re": st.mc_mean.real, "im": st.mc_mean.imag}
    d2 = stats_to_json_dict(run_model(cfg, "Ap:1"))
    assert "adjusted_cf_mean" in d2
    assert isinstance(d2["mc_mean"], float)
