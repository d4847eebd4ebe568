"""Growth exponents, band maxima, and upper bounds for phi.

For a character with phi(p) != 0 the growth exponent is
theta = log_p(phi(p)); band maxima alpha_k track |phi(n)|/n^Re(theta)
over p-adic size bands, and psi(x) = phi(n)/n^theta extends to rationals
with p-power denominator through the exact scale invariance
psi(p*x) = psi(x). The bound report checks the quadratic trivial bound,
a square-root-saving bound assembled from per-column Weil inequalities,
and those column inequalities themselves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .char_sequences import FundamentalTables, build_tables, phi_and_T, table_layout, tally_sum
from .characters import (
    Character,
    character,
    character_balls,
    embed_value,
)
from .classification import Verdict, classify
from .core_arith import is_prime, make_context, to_digits
from .errors import (
    IndexOutOfRange,
    LimitExceeded,
    NotPrime,
    NotRowDominant,
    UndefinedTheta,
    WeilViolation,
)

ALPHA_WORK_LIMIT = 10**7
_SWEEP_CHUNK = 1 << 19


@dataclass(frozen=True)
class GrowthProfile:
    """Exponents governing |phi(n)| growth for one character.

    omega = -log_p(q) capped at 1; it is positive exactly when the
    character is row-regular (q < 1), and the sign is kept when q >= 1
    rather than clamped away, since a nonpositive omega is the signal
    that the decay argument fails.
    """

    p: int
    k: int
    theta: complex
    rho: float
    q: float
    omega: float
    abs_phi: float
    max_abs_T: float


def _tally_balls(chi: Character) -> tuple[np.ndarray, np.ndarray]:
    """53-bit balls (mid, rad) of T(0..p-1) and then of phi(0..p), from
    one character_balls call over the dlog tallies in table_layout."""
    mid, rad = character_balls(table_layout(chi.ctx.row_dlog_hist), [chi.k])
    return mid[:, 0], rad


def growth_profile(chi: Character) -> GrowthProfile:
    """theta, rho and q from 53-bit tally balls; exact phi(p) only where its ball touches 0."""
    return _profile_from_balls(chi, *_tally_balls(chi))


def _profile_from_balls(chi: Character, mid: np.ndarray, rad: np.ndarray) -> GrowthProfile:
    p = chi.ctx.p
    val = complex(mid[2 * p])
    if abs(val) <= rad[2 * p]:
        phi_p = tally_sum(chi.ctx.row_dlog_hist.sum(axis=0), chi)
        val = complex(embed_value(phi_p)[0])  # (0j, 0.0) only for an exact zero
        if val == 0:
            raise UndefinedTheta(f"phi(p) for p={p}, k={chi.k} is zero")
    lp = math.log(p)
    theta = cmath.log(val) / lp
    # exact zeros of T contribute -inf to the exponent max and can never
    # attain it, because T(0) = 1 keeps the max at least 0
    max_t = float(np.abs(mid[:p]).max())
    abs_phi = abs(val)
    q = max_t / abs_phi
    return GrowthProfile(
        p=p,
        k=chi.k,
        theta=theta,
        rho=math.log(max_t) / lp,
        q=q,
        omega=min(1.0, -math.log(q) / lp),
        abs_phi=abs_phi,
        max_abs_T=max_t,
    )


# ---------------------------------------------------------------------------
# band sweeps


def _ratio_sweep_max(
    lo: int, hi: int, sigma: float, p: int, emb: np.ndarray, *, _coprime: bool = False
) -> tuple[float, int]:
    """Max of |phi(n)|/n^sigma over lo <= n <= hi, with its first argmax,
    from emb, the values of T(0..p-1) and then of phi(0..p); with
    _coprime, over the n in that range that p does not divide, of which
    there must be one.

    Splits n = m*S + r over one low block of S = p^j residues. phi(r)
    and T(r) for every r < S come from j vectorised append-a-digit steps
    (leading zero digits keep the identity state (phi, T) = (0, 1)); each
    high prefix m then gives phi(m*S + r) = phi(m)*phi(p)^j + T(m)*phi(r)
    for its whole slice of r, so each n costs one complex multiply-add.
    As p divides S, p divides n exactly when it divides r, so _coprime
    drops those r from the block once.
    """
    f_p = complex(emb[2 * p])
    j = 1
    while p ** (j + 1) <= _SWEEP_CHUNK and p**j <= hi:
        j += 1
    block = p**j
    phi_lo = np.zeros(1, dtype=np.complex128)
    t_lo = np.ones(1, dtype=np.complex128)
    for _ in range(j):
        phi_lo = (phi_lo[:, None] * f_p + np.outer(t_lo, emb[p : 2 * p])).ravel()
        t_lo = np.outer(t_lo, emb[:p]).ravel()
    rs = np.arange(block)
    if _coprime:
        rs = rs[rs % p != 0]
        phi_lo = phi_lo[rs]
    f_block = f_p**j
    t_digit, phi_digit = emb[:p].tolist(), emb[p : 2 * p].tolist()
    best = -math.inf
    best_n = lo
    for m in range(lo // block, hi // block + 1):
        base = m * block
        i0, i1 = np.searchsorted(rs, (lo - base, hi - base + 1))
        if i0 == i1:
            continue
        phi_m, t_m = 0j, 1 + 0j
        for d in reversed(to_digits(m, p).digits):
            phi_m, t_m = phi_m * f_p + t_m * phi_digit[d], t_m * t_digit[d]
        ns = (base + rs[i0:i1]).astype(np.float64)
        ratios = np.abs(phi_m * f_block + t_m * phi_lo[i0:i1]) / ns**sigma
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            best_n = base + int(rs[i0 + i])
    return best, best_n


@dataclass(frozen=True)
class AlphaSequence:
    """Band maxima alpha_k = max |phi(n)/n^theta| over p^{k-1} < n <= p^k."""

    p: int
    k: int
    re_theta: float
    alphas: tuple[float, ...]


def alpha_sequence(chi: Character, k_max: int, limit: int = ALPHA_WORK_LIMIT) -> AlphaSequence:
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    p = chi.ctx.p
    # p^k_max >= 2^k_max > limit from limit's bit length on: no huge power is formed
    if k_max >= limit.bit_length() or p**k_max > limit:
        raise LimitExceeded(f"k_max = {k_max}: p^k_max = {p}^{k_max} exceeds sweep limit {limit}")
    emb, rad = _tally_balls(chi)
    sigma = _profile_from_balls(chi, emb, rad).theta.real
    # band k holds p*n for every n of band k-1, and phi(p*n) = phi(n)*phi(p)
    # with |phi(p)| = p^sigma gives p*n the ratio of n: the running max
    # already holds those ratios, so bands k >= 2 sweep only p not dividing
    # n, and a band that adds no new maximum steps by exactly 0
    alphas = []
    alpha = -math.inf
    for k in range(1, k_max + 1):
        lo = p ** (k - 1) + 1
        hi = p**k
        alpha = max(alpha, _ratio_sweep_max(lo, hi, sigma, p, emb, _coprime=k >= 2)[0])
        alphas.append(alpha)
    return AlphaSequence(p=p, k=chi.k, re_theta=sigma, alphas=tuple(alphas))


def sup_ratio(
    chi: Character, exponent: float, n_max: int, limit: int = ALPHA_WORK_LIMIT
) -> tuple[float, int]:
    """Max of |phi(n)|/n^exponent over 1 < n <= n_max, with its argmax."""
    if n_max < 2:
        raise ValueError(f"n_max = {n_max} leaves no n in 1 < n <= n_max")
    if n_max > limit:
        raise LimitExceeded(f"n_max = {n_max} exceeds sweep limit {limit}")
    return _ratio_sweep_max(2, n_max, exponent, chi.ctx.p, _tally_balls(chi)[0])


@dataclass(frozen=True)
class BoundedGrowthReport:
    """Sweep evidence that |phi(n)|/n^{rho+eps} stays bounded.

    hypothesis_ok records whether |phi(p)| <= p^{rho+eps}, the premise
    the decay argument needs; when it fails the sweep result is still
    reported but carries no weight.
    """

    p: int
    k: int
    eps: float
    rho: float
    hypothesis_ok: bool
    sup: float
    arg_n: int


def bounded_growth_check(
    chi: Character, eps: float = 0.05, n_max: int = 10**6
) -> BoundedGrowthReport:
    profile = growth_profile(chi)
    exponent = profile.rho + eps
    hypothesis_ok = profile.abs_phi <= chi.ctx.p**exponent
    sup, arg = sup_ratio(chi, exponent, n_max, limit=max(n_max, ALPHA_WORK_LIMIT))
    return BoundedGrowthReport(
        p=chi.ctx.p,
        k=chi.k,
        eps=eps,
        rho=profile.rho,
        hypothesis_ok=hypothesis_ok,
        sup=sup,
        arg_n=arg,
    )


# ---------------------------------------------------------------------------
# normalized limit function


def psi(
    x: "Fraction | int",
    chi: Character,
    tables: FundamentalTables | None = None,
) -> complex:
    """phi(n)/n^theta extended to positive rationals n/p^j.

    The scale invariance psi(p*x) = psi(x) is applied exactly: the
    p-power denominator is dropped and all factors of p are stripped
    from the numerator, so equal inputs up to p-powers evaluate phi at
    the same integer.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"x={x} must be positive")
    p = chi.ctx.p
    den = x.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise ValueError(f"denominator of x={x} is not a power of p={p}")
    m = x.numerator
    while m % p == 0:
        m //= p
    if tables is None:
        tables = build_tables(chi)
    phi_ball = embed_value(tables.phi_p)
    if phi_ball == (0j, 0.0):
        raise UndefinedTheta(f"phi(p) for p={p}, k={chi.k} is zero")
    if m == 1:
        return complex(1.0)
    # phi(m) and m^theta both leave double range long before their
    # quotient does, and a double theta loses digits in proportion to
    # log m, so take theta, divide in mpmath and round once at the end
    val, _ = embed_value(phi_and_T(m, tables)[0])
    with mpmath.workprec(128):
        theta = mpmath.log(phi_ball[0]) / mpmath.log(p)
        return complex(val / mpmath.exp(theta * mpmath.log(m)))


# ---------------------------------------------------------------------------
# unboundedness certificate for row-dominant characters


def row_dominant_witness(chi: Character, k_max: int) -> list[tuple[int, int, float]]:
    """Certificate rows (k, n_k, ratio) exhibiting super-theta growth.

    n_k is the k-digit repdigit of the witness b. The ratio column is
    (|phi(n_k)| + |phi(n_k + 1)|) / (p^k)^{Re theta}: the two phi values
    differ by exactly T(b)^k, so their combined size, normalized at the
    theta rate, grows at least like (|T(b)|/|phi(p)|)^k > 1.
    """
    record = classify(chi)
    if record.verdict is not Verdict.ROW_DOMINANT:
        raise NotRowDominant(
            f"p={record.p} k={record.k} classified {record.verdict.value}"
        )
    b = record.witness_b
    tables = build_tables(chi)
    sigma = growth_profile(chi).theta.real
    p = chi.ctx.p
    rows: list[tuple[int, int, float]] = []
    n_k = 0
    for k in range(1, k_max + 1):
        n_k = n_k * p + b
        phi_n, t_n = phi_and_T(n_k, tables)  # phi(n_k + 1) = phi(n_k) + T(n_k)
        pair = (abs(complex(embed_value(v)[0])) for v in (phi_n, phi_n + t_n))
        ratio = sum(pair) / p ** (k * sigma)
        rows.append((k, n_k, ratio))
    return rows


# ---------------------------------------------------------------------------
# bounds on |phi(p)|


@dataclass(frozen=True)
class BoundReport:
    """Trivial and square-root-saving bounds vs the observed maximum.

    weil = (weil_A + weil_B*sqrt(p))/2 with integer halves kept exact:
    with s = floor(sqrt(p)), weil_A = p^2 - 2ps + p + s^2 + s and
    weil_B = s^2 + s - 2.
    """

    p: int
    trivial: int
    weil_A: int
    weil_B: int
    weil: float
    weil_simple: float
    max_abs_phi: float
    columns_checked: int


def bound_report(p: int) -> BoundReport:
    """Evaluate all bounds at p and verify the per-column inequalities.

    For every nonprincipal character and every column 2 <= n <= floor(sqrt(p)),
    |sum over m < p of chi(C(m, n))| must be at most n*sqrt(p); a sum whose
    whole 53-bit ball lies above raises WeilViolation, as only a bug can.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 3:
        raise ValueError("bound report needs p >= 3")
    ctx = make_context(p)
    phis, _ = character_balls(ctx.row_dlog_hist.sum(axis=0), range(1, ctx.order))
    max_abs_phi = float(np.abs(phis).max())
    s = math.isqrt(p)
    weil_A = p * p - 2 * p * s + p + s * s + s
    weil_B = s * s + s - 2
    rp = math.sqrt(p)
    weil = (weil_A + weil_B * rp) / 2.0
    weil_simple = (p * p - p * rp + 5 * p - rp) / 2.0
    cols = np.arange(2, s + 1)
    tally = np.zeros((len(cols), ctx.order), dtype=np.int64)  # column n in row n - 2
    for n in cols:
        tally[n - 2] = np.bincount(np.asarray(ctx.dlog)[ctx.domain[n:, n]], minlength=ctx.order)
    mid, rad = character_balls(tally, range(1, ctx.order))
    over = np.argwhere(np.abs(mid) - rad[:, None] > cols[:, None] * rp)
    if len(over):
        i, j = over[0]
        raise WeilViolation(
            f"p={p} column {cols[i]} character k={j + 1}: |sum|={abs(mid[i, j])} > {cols[i]}*sqrt(p)"
        )
    return BoundReport(
        p=p,
        trivial=p * (p + 1) // 2,
        weil_A=weil_A,
        weil_B=weil_B,
        weil=weil,
        weil_simple=weil_simple,
        max_abs_phi=max_abs_phi,
        columns_checked=len(cols),
    )


# ---------------------------------------------------------------------------
# aggregate exponent for counting asymptotics


@dataclass(frozen=True)
class VarthetaReport:
    """Both candidate aggregate exponents, not adjudicated.

    value is max over nonprincipal characters of Re(theta) joined with
    1 + eps; max_rho_plus_eps is the alternative built from the
    single-row exponent rho. Characters with phi(p) = 0 contribute
    nothing (effectively -inf). max_re_theta_rad bounds max_re_theta's error.
    """

    p: int
    eps: float
    value: float
    max_re_theta: float
    max_re_theta_rad: float
    max_rho_plus_eps: float
    skipped: int


def vartheta_report(p: int, eps: float) -> VarthetaReport:
    """Re theta and rho of every nonprincipal character from one
    character_balls call; skipped only when phi's ball touches 0 and the
    exact phi(p) is zero. The phi_k(p) balls share one radius r, so the
    true max |phi_k(p)| is within r of the top midpoint M, and log_p moves
    by at most r/((M - r) ln p) over [M - r, M + r]."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    ctx = make_context(p)
    hist = ctx.row_dlog_hist
    totals = hist.sum(axis=0)
    mid, rad = character_balls(np.vstack([hist, totals]), range(1, ctx.order))
    zero = [i for i in np.flatnonzero(np.abs(mid[p]) <= rad[p])
            if tally_sum(totals, character(ctx, int(i) + 1)).is_zero()]
    kept = np.abs(np.delete(mid, zero, axis=1))
    lp = math.log(p)
    max_re, max_re_rad, max_rho = -math.inf, 0.0, -math.inf
    if kept.size:
        top = kept[p].max()
        max_re, max_rho = math.log(top) / lp, math.log(kept[:p].max()) / lp
        max_re_rad = rad[p] / ((top - rad[p]) * lp) if top > rad[p] else math.inf
    return VarthetaReport(
        p=p,
        eps=eps,
        value=max(max_re, 1.0 + eps),
        max_re_theta=max_re,
        max_re_theta_rad=max_re_rad,
        max_rho_plus_eps=max_rho + eps,
        skipped=len(zero),
    )


def vartheta(p: int, eps: float) -> float:
    return vartheta_report(p, eps).value


# ---------------------------------------------------------------------------
# convergence of the counting ratio


def convergence_ratio(
    p: int,
    r: int,
    k_max: int,
    scale: float = 1.0,
) -> list[tuple[int, int, int, int, float]]:
    """Rows (k, n, A, phi, ratio) with n = floor(scale * p^k).

    ratio = A_n(r)*(p-1)/phi_0(n) where phi_0 counts the nonzero entries
    of rows 0..n-1; it should drift toward 1 as n grows. scale = 1 walks
    the prime powers themselves; other scales probe between them.
    """
    if r % p == 0:
        raise IndexOutOfRange(f"r={r} is divisible by p={p}")
    ctx = make_context(p)
    e = ctx.dlog[r % p]
    frac = Fraction(scale)
    out: list[tuple[int, int, int, int, float]] = []
    for k in range(0, k_max + 1):
        n = int(frac * p**k)
        if n < 1:
            continue
        # the dlog histogram of rows 0..n-1 holds both A_n(r) and phi_0(n)
        hist = phi_and_T(n, ctx.group_ring_tables)[0].coeffs
        a, phi0 = hist[e], sum(hist)
        ratio = float(Fraction(a * (p - 1), phi0))
        out.append((k, n, a, phi0, ratio))
    return out
