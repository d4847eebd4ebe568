"""Row-regular / row-dominant classification of characters.

A character is row-regular when every single-row sum |T(b)| over the
first p rows stays strictly below the block total |phi(p)|, row-dominant
when some row strictly beats the total, and on the boundary when the
best row exactly ties it. The scan takes every row sum T_k(b) of a
prime from one FFT of its dlog histogram (character_sums), then
re-derives every near-tie exactly so no verdict rests on floating point
alone.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .char_sequences import build_tables
from .characters import (
    Character,
    Comparison,
    CycInt,
    abs_compare,
    character,
    character_sums,
)
from .core_arith import is_prime, make_context

# FFT prefilter: flag a character for exact classification when
# max |T(b)| comes within this relative margin of |phi(p)|. At p = 997 the
# rounding error of T and phi stays under 1e-6 of the margin, measured at
# about 2e-9 of it (test_prefilter_error_below_margin).
PREFILTER_MARGIN = 1e-6


class Verdict(Enum):
    ROW_REGULAR = "RowRegular"
    ROW_DOMINANT = "RowDominant"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ClassificationRecord:
    """Verdict plus the exact values that justify it."""

    p: int
    k: int
    label: str
    parity: str
    phi_p: CycInt
    phi_value: complex
    abs_phi: float
    max_T_b: int
    max_T: CycInt
    max_T_abs: float
    verdict: Verdict
    witness_b: int | None


def classify(chi: Character) -> ClassificationRecord:
    """Compare every |T(b)| against |phi(p)| with abs_compare.

    Every comparison is decided, so the verdict is RowDominant when some
    b is strictly greater, else Boundary when some b ties, else
    RowRegular.
    """
    tables = build_tables(chi)
    p = chi.ctx.p
    phi_p = tables.phi_p
    abs_T = [abs(t.embed()) for t in tables.T_table]
    max_T_b = int(np.argmax(abs_T))
    greater: list[int] = []
    equal: list[int] = []
    for b in range(p):
        comp = abs_compare(tables.T_table[b], phi_p)
        if comp is Comparison.GREATER:
            greater.append(b)
        elif comp is Comparison.EQUAL:
            equal.append(b)
    if greater:
        verdict = Verdict.ROW_DOMINANT
        witness = max(greater, key=lambda b: abs_T[b])
    elif equal:
        verdict = Verdict.BOUNDARY
        witness = equal[0]
    else:
        verdict = Verdict.ROW_REGULAR
        witness = None
    return ClassificationRecord(
        p=p,
        k=chi.k,
        label=chi.label,
        parity=chi.parity,
        phi_p=phi_p,
        phi_value=phi_p.embed(),
        abs_phi=abs(phi_p.embed()),
        max_T_b=max_T_b,
        max_T=tables.T_table[max_T_b],
        max_T_abs=abs_T[max_T_b],
        verdict=verdict,
        witness_b=witness,
    )


def _scan_prime(p: int) -> list[ClassificationRecord]:
    """All non-row-regular records for one prime, representative k only.

    Conjugate characters have conjugate T and phi values, hence identical
    magnitudes and verdicts, so only k <= (p-1)/2 is examined and the
    records come out ordered by k.
    """
    ctx = make_context(p)
    n = ctx.order
    if n < 2:
        return []
    t_vals = character_sums(ctx.row_dlog_hist)  # t_vals[b, k] = T_k(b)
    max_t = np.abs(t_vals).max(axis=0)
    abs_phi = np.abs(t_vals.sum(axis=0))
    margin = PREFILTER_MARGIN * np.maximum(1.0, np.maximum(abs_phi, max_t))
    near = max_t >= abs_phi - margin
    out: list[ClassificationRecord] = []
    for k in range(1, n // 2 + 1):
        if near[k]:
            rec = classify(character(ctx, k))
            if rec.verdict is not Verdict.ROW_REGULAR:
                out.append(rec)
    return out


def scan(p_max: int, jobs: int = 1) -> list[ClassificationRecord]:
    """Classify all characters for primes p <= p_max; keep non-row-regular.

    Output is deterministically ordered by (p, k) with one representative
    per conjugate pair (the smaller exponent index), independent of jobs.
    """
    primes = [p for p in range(2, p_max + 1) if is_prime(p)]
    if jobs <= 1:
        batches = [_scan_prime(p) for p in primes]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_scan_prime, primes))
    return [rec for batch in batches for rec in batch]


def write_classification_csv(records: list[ClassificationRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "p", "k", "paper_label", "parity", "re_phi", "im_phi",
                "abs_phi", "max_T_b", "max_T_abs", "verdict",
            ]
        )
        for r in records:
            w.writerow(
                [
                    r.p, r.k, r.label, r.parity,
                    f"{r.phi_value.real:.15g}", f"{r.phi_value.imag:.15g}",
                    f"{r.abs_phi:.15g}", r.max_T_b, f"{r.max_T_abs:.15g}",
                    r.verdict.value,
                ]
            )


def format_scan_table(records: list[ClassificationRecord]) -> str:
    """Two-column text table: prime | labels of its non-row-regular characters."""
    by_p: dict[int, list[ClassificationRecord]] = {}
    for r in records:
        by_p.setdefault(r.p, []).append(r)
    lines = [f"{'p':>5}  non-row-regular characters"]
    for p in sorted(by_p):
        labels = ", ".join(
            f"{r.label} [{r.verdict.value}]" for r in sorted(by_p[p], key=lambda r: r.k)
        )
        lines.append(f"{p:>5}  {labels}")
    if len(lines) == 1:
        lines.append("  (none)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scatter of normalized block totals


def fundamental_scatter(p_max: int) -> list[tuple[int, int, str, float, float]]:
    """One row (p, k, parity, re, im) of phi(p)/p per nonprincipal character."""
    rows: list[tuple[int, int, str, float, float]] = []
    for p in range(3, p_max + 1):
        if not is_prime(p):
            continue
        ctx = make_context(p)
        phis = character_sums(ctx.row_dlog_hist.sum(axis=0))  # phis[k] = phi_k(p)
        for k in range(1, ctx.order):
            val = complex(phis[k])
            parity = "even" if k % 2 == 0 else "odd"
            rows.append((p, k, parity, val.real / p, val.imag / p))
    return rows


def write_scatter_csv(rows: list[tuple[int, int, str, float, float]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "k", "parity", "re_phi_over_p", "im_phi_over_p"])
        for p, k, parity, re, im in rows:
            w.writerow([p, k, parity, f"{re:.15g}", f"{im:.15g}"])


# ---------------------------------------------------------------------------
# parity-cluster means


@dataclass(frozen=True)
class MeanReport:
    """Means of phi(p) over even and odd nonprincipal characters."""

    p: int
    mu_even: complex
    mu_odd: complex

    @property
    def ratio_even(self) -> float:
        return self.mu_even.real / self.p

    @property
    def ratio_odd(self) -> float:
        return self.mu_odd.real / self.p


def mean_report(p: int) -> MeanReport:
    phis = character_sums(make_context(p).row_dlog_hist.sum(axis=0))
    even, odd = phis[2::2], phis[1::2]
    mu_even = complex(even.mean()) if len(even) else 0j
    mu_odd = complex(odd.mean()) if len(odd) else 0j
    return MeanReport(p=p, mu_even=mu_even, mu_odd=mu_odd)


def write_means_csv(reports: list[MeanReport], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["p", "re_mu_even", "im_mu_even", "re_mu_odd", "im_mu_odd", "ratio_even", "ratio_odd"]
        )
        for r in reports:
            w.writerow(
                [
                    r.p,
                    f"{r.mu_even.real:.15g}", f"{r.mu_even.imag:.15g}",
                    f"{r.mu_odd.real:.15g}", f"{r.mu_odd.imag:.15g}",
                    f"{r.ratio_even:.15g}", f"{r.ratio_odd:.15g}",
                ]
            )

