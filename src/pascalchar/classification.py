"""Row-regular / row-dominant classification of characters.

A character is row-regular when every single-row sum |T(b)| over the
first p rows stays strictly below the block total |phi(p)|, row-dominant
when some row strictly beats the total, and on the boundary when the
best row exactly ties it. Every T_k(b) and phi_k(p) of a prime comes
as a 53-bit ball from one character_balls call; only rows whose ball
overlaps phi's go to the exact comparator, so no verdict rests on an
uncertified float. The scatter and mean reports read the midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .char_sequences import tally_sum
from .characters import (
    Character,
    Comparison,
    CycInt,
    abs_compare,
    character,
    character_balls,
)
from .core_arith import is_prime, make_context


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
    """Compare every |T(b)| against |phi(p)|.

    The character_balls decide every row whose ball is clear of phi(p)'s,
    as abs_compare's ball step would; abs_compare decides the overlapping
    rows on exact values. The verdict is RowDominant when some b is
    strictly greater, else Boundary when some b ties, else RowRegular.
    Only phi(p), the largest row and the overlapping rows are built as
    exact CycInts.
    """
    ctx = chi.ctx
    p, hist = ctx.p, ctx.row_dlog_hist
    tally = np.vstack([hist, hist.sum(axis=0)])  # rows b < p, then phi(p)
    mid, rad = character_balls(tally, [chi.k])
    abs_T = np.abs(mid[:p, 0])
    gap, slack = abs(mid[p, 0]) - abs_T, rad[:p] + rad[p]
    phi_p = tally_sum(tally[p], chi)
    sign = np.where(gap < -slack, 1, -1)  # of |T(b)| - |phi(p)|
    for b in np.flatnonzero(np.abs(gap) <= slack):
        comp = abs_compare(tally_sum(hist[b], chi), phi_p)
        sign[b] = (comp is Comparison.GREATER) - (comp is Comparison.LESS)
    verdict, witness = Verdict.ROW_REGULAR, None
    if (sign > 0).any():  # the largest greater row, the first of equals
        verdict, witness = Verdict.ROW_DOMINANT, int(np.argmax(np.where(sign > 0, abs_T, -1.0)))
    elif (sign == 0).any():
        verdict, witness = Verdict.BOUNDARY, int(np.argmax(sign == 0))
    max_T_b = int(np.argmax(abs_T))
    max_T = tally_sum(hist[max_T_b], chi)
    return ClassificationRecord(
        p=p,
        k=chi.k,
        label=chi.label,
        parity=chi.parity,
        phi_p=phi_p,
        phi_value=phi_p.embed(),
        abs_phi=abs(phi_p.embed()),
        max_T_b=max_T_b,
        max_T=max_T,
        max_T_abs=abs(max_T.embed()),
        verdict=verdict,
        witness_b=witness,
    )


def scan(p_max: int) -> list[ClassificationRecord]:
    """Classify all characters for primes p <= p_max; keep non-row-regular.

    Conjugate characters have conjugate T and phi values, hence identical
    magnitudes and verdicts, so only k <= (p-1)/2 is examined, and the
    output is ordered by (p, k). One character_balls call per prime
    proves most characters row-regular; classify decides the rest.
    """
    out: list[ClassificationRecord] = []
    for p in filter(is_prime, range(3, p_max + 1)):  # p = 2 has only chi_0
        ctx = make_context(p)
        hist = ctx.row_dlog_hist
        ks = np.arange(1, ctx.order // 2 + 1)
        mid, rad = character_balls(np.vstack([hist, hist.sum(axis=0)]), ks)
        below = np.abs(mid[p]) - np.abs(mid[:p]) > (rad[:p] + rad[p])[:, None]
        for k in ks[~below.all(axis=0)]:
            rec = classify(character(ctx, int(k)))
            if rec.verdict is not Verdict.ROW_REGULAR:
                out.append(rec)
    return out


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
    for p in filter(is_prime, range(3, p_max + 1)):
        phis, _ = character_balls(make_context(p).row_dlog_hist.sum(axis=0), range(p - 1))
        for k in range(1, p - 1):
            val = complex(phis[k])
            parity = "even" if k % 2 == 0 else "odd"
            rows.append((p, k, parity, val.real / p, val.imag / p))
    return rows


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
    phis, _ = character_balls(make_context(p).row_dlog_hist.sum(axis=0), range(p - 1))
    even, odd = phis[2::2], phis[1::2]
    mu_even = complex(even.mean()) if len(even) else 0j
    mu_odd = complex(odd.mean()) if len(odd) else 0j
    return MeanReport(p=p, mu_even=mu_even, mu_odd=mu_odd)
