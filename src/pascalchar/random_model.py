"""Random fundamental-domain model and its closed-form moments.

Interior cells of the first p rows are modeled as i.i.d. uniform values
on {1..p-1}, except that the row symmetry X[n][n-m] = X[n][m] is kept:
only cells with 1 <= m <= n/2 are drawn, the rest mirror. Borders, rows
0 and 1, and the alternating bottom row are deterministic. Y statistics
count (or character-sum) the interior; the A_p target adds the
deterministic cells, tallied literally from a synthetic domain rather
than taken from a formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core_arith import is_prime
from .errors import NotPrime


@dataclass(frozen=True)
class ModelConfig:
    """Simulation parameters; draws come from PCG64 streams."""

    p: int
    samples: int
    seed: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if self.p <= 3:
            raise ValueError("the model needs p > 3: smaller triangles have no interior")
        if self.samples < 100:
            raise ValueError("samples must be at least 100")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _generator(seed: int, trial: int) -> np.random.Generator:
    # fresh stream per (seed, trial): results never depend on how trials
    # are batched across workers
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


@dataclass(frozen=True, eq=False)
class _CellPlan:
    """Free-cell layout for one p: which (row, col) get fresh draws."""

    p: int
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    center_rows: np.ndarray
    center_cols: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.pair_rows)

    @property
    def n_centers(self) -> int:
        return len(self.center_rows)

    @property
    def n_free(self) -> int:
        return self.n_pairs + self.n_centers

    @property
    def interior_cells(self) -> int:
        return 2 * self.n_pairs + self.n_centers


@lru_cache(maxsize=None)
def _cell_plan(p: int) -> _CellPlan:
    pr, pc, cr, cc = [], [], [], []
    for n in range(2, p - 1):
        for m in range(1, n // 2 + 1):
            if m < n - m:
                pr.append(n)
                pc.append(m)
            else:
                cr.append(n)
                cc.append(m)
    return _CellPlan(
        p=p,
        pair_rows=np.array(pr, dtype=np.int64),
        pair_cols=np.array(pc, dtype=np.int64),
        center_rows=np.array(cr, dtype=np.int64),
        center_cols=np.array(cc, dtype=np.int64),
    )


def sample_domain(cfg: ModelConfig, trial: int = 0) -> np.ndarray:
    """One synthetic domain as a (p, p) array; cells above the diagonal are 0.

    Rows 0, 1, the m=0 / m=n borders, and row p-1 (alternating 1, p-1)
    are deterministic; every other cell is uniform on {1..p-1} subject to
    the mirror symmetry.
    """
    p = cfg.p
    plan = _cell_plan(p)
    rng = _generator(cfg.seed, trial)
    dom = np.zeros((p, p), dtype=np.int64)
    for n in range(p):
        dom[n, 0] = 1
        dom[n, n] = 1
    dom[p - 1, : p] = np.where(np.arange(p) % 2 == 0, 1, p - 1)
    draws = rng.integers(1, p, size=plan.n_free)
    pair_vals = draws[: plan.n_pairs]
    dom[plan.pair_rows, plan.pair_cols] = pair_vals
    dom[plan.pair_rows, plan.pair_rows - plan.pair_cols] = pair_vals
    dom[plan.center_rows, plan.center_cols] = draws[plan.n_pairs :]
    return dom


def deterministic_count(p: int, r: int) -> int:
    """Occurrences of residue r among the deterministic cells, tallied literally."""
    cfg = ModelConfig(p=p, samples=100, seed=0)
    dom = sample_domain(cfg, trial=0)
    plan = _cell_plan(p)
    mask = np.tri(p, p, 0, dtype=bool)
    mask[plan.pair_rows, plan.pair_cols] = False
    mask[plan.pair_rows, plan.pair_rows - plan.pair_cols] = False
    mask[plan.center_rows, plan.center_cols] = False
    return int(np.count_nonzero(dom[mask] == r % p))


def char_border_sum(p: int, parity: str) -> int:
    """Character sum over the deterministic cells: all are +-1 valued.

    Every deterministic cell holds 1 or p-1; an even character sends both
    to 1, an odd character sends p-1 to -1.
    """
    ones = deterministic_count(p, 1)
    minus = deterministic_count(p, p - 1)
    return ones + minus if parity == "even" else ones - minus


# ---------------------------------------------------------------------------
# closed forms


def closed_form_Y_exact(p: int) -> tuple[Fraction, Fraction]:
    mean = Fraction(p * p - 5 * p + 6, 2 * p - 2)
    var = Fraction(2 * p**3 - 15 * p**2 + 37 * p - 30, 2 * p**2 - 4 * p + 2)
    return mean, var


def closed_form_Y(p: int) -> tuple[float, float]:
    """Mean and variance of the interior count of one residue."""
    mean, var = closed_form_Y_exact(p)
    return float(mean), float(var)


def closed_form_char(p: int, parity: str) -> tuple[float, float]:
    """Heuristic mean (3p even, 2p+1 odd) and exact model variance."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    mean = 3 * p if parity == "even" else 2 * p + 1
    var = Fraction(2 * p * p - 11 * p + 15, 2)
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class ModelStats:
    """Monte-Carlo moments next to their closed forms.

    adjusted_cf_mean carries the adjustment-constant variant of the mean for
    A_p targets (it differs from cf_mean by a small constant because the
    adjustment constants double-count two corner cells); None elsewhere.
    """

    target: str
    p: int
    samples: int
    seed: int
    mc_mean: complex | float
    mc_var: float
    cf_mean: float
    cf_var: float
    z_score: float
    adjusted_cf_mean: float | None = None


def _parse_target(target: str, p: int) -> tuple[str, int | str]:
    kind, _, arg = target.partition(":")
    if kind == "Ycount" or kind == "Ap":
        r = int(arg) % p
        if r == 0:
            raise ValueError(f"residue in target {target!r} must not be divisible by p")
        return kind, r
    if kind == "Ychar":
        if arg not in ("even", "odd"):
            raise ValueError(f"target {target!r} needs parity 'even' or 'odd'")
        return kind, arg
    raise ValueError(f"unknown target {target!r}; expected Ycount:R, Ychar:even|odd, or Ap:R")


def run_model(cfg: ModelConfig, target: str) -> ModelStats:
    """Simulate the chosen statistic and compare with its closed form.

    Targets: "Ycount:R" counts residue R over the interior; "Ap:R" adds
    the deterministic-cell count; "Ychar:even|odd" sums synthetic
    character values (uniform roots of unity on the interior plus the
    exact deterministic border sum).
    """
    kind, arg = _parse_target(target, cfg.p)
    p = cfg.p
    plan = _cell_plan(p)
    n_pairs = plan.n_pairs
    adjusted_cf_mean: float | None = None

    if kind in ("Ycount", "Ap"):
        r = int(arg)
        vals = np.empty(cfg.samples, dtype=np.float64)
        for i in range(cfg.samples):
            draws = _generator(cfg.seed, i).integers(1, p, size=plan.n_free)
            vals[i] = 2 * np.count_nonzero(draws[:n_pairs] == r) + np.count_nonzero(
                draws[n_pairs:] == r
            )
        cf_mean, cf_var = closed_form_Y(p)
        if kind == "Ap":
            det = deterministic_count(p, r)
            vals += det
            cf_mean += det
            if r == 1:
                adjust = 2 * p - 1 + (p + 1) // 2
            elif r == p - 1:
                adjust = (p - 1) // 2
            else:
                adjust = 0
            adjusted_cf_mean = closed_form_Y(p)[0] + adjust
        mc_mean: complex | float = float(vals.mean())
        mc_var = float(vals.var(ddof=1))
        gap = abs(float(mc_mean) - cf_mean)
    else:
        parity = str(arg)
        order = p - 1
        roots = np.exp(2j * np.pi * np.arange(order) / order)
        border = float(char_border_sum(p, parity))
        cvals = np.empty(cfg.samples, dtype=np.complex128)
        for i in range(cfg.samples):
            exps = _generator(cfg.seed, i).integers(0, order, size=plan.n_free)
            cvals[i] = 2 * roots[exps[:n_pairs]].sum() + roots[exps[n_pairs:]].sum() + border
        cf_mean, cf_var = closed_form_char(p, parity)
        mean_c = complex(cvals.mean())
        mc_mean = mean_c
        mc_var = float((np.abs(cvals - mean_c) ** 2).sum() / (cfg.samples - 1))
        gap = abs(mean_c - cf_mean)

    z = gap / math.sqrt(cf_var / cfg.samples)
    return ModelStats(
        target=target,
        p=p,
        samples=cfg.samples,
        seed=cfg.seed,
        mc_mean=mc_mean,
        mc_var=mc_var,
        cf_mean=cf_mean,
        cf_var=cf_var,
        z_score=z,
        adjusted_cf_mean=adjusted_cf_mean,
    )


def stats_to_json_dict(stats: ModelStats) -> dict:
    """JSON-ready dict; complex means become {re, im} pairs."""
    mean = stats.mc_mean
    if isinstance(mean, complex):
        mean_json: object = {"re": mean.real, "im": mean.imag}
    else:
        mean_json = mean
    out = {
        "target": stats.target,
        "p": stats.p,
        "samples": stats.samples,
        "seed": stats.seed,
        "mc_mean": mean_json,
        "mc_var": stats.mc_var,
        "cf_mean": stats.cf_mean,
        "cf_var": stats.cf_var,
        "z_score": stats.z_score,
    }
    if stats.adjusted_cf_mean is not None:
        out["adjusted_cf_mean"] = stats.adjusted_cf_mean
    return out
