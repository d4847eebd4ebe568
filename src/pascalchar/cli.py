"""Command-line surface: reproducible, file-emitting subcommands.

This is the only module that writes report files. Every CSV goes
through _write_csv, and every file-writing command drops a sibling
manifest JSON (_write_manifest) recording the command line, seeds,
library version, wall time, and SHA-256 digests of the outputs, so any
emitted artifact can be traced back to an exact rerun. Exit codes:
0 success, 1 computation error (invalid mathematical input or an
exceeded work limit), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shlex
import sys
import time
from fractions import Fraction

import mpmath

from . import __version__
from .bounds_asymptotics import (
    alpha_sequence,
    bound_report,
    convergence_ratio,
    growth_profile,
    psi,
)
from .char_sequences import A_count_formula, build_tables, phi_and_T
from .characters import CycInt, character, embed_value
from .classification import (
    format_scan_table,
    fundamental_scatter,
    mean_report,
    scan,
)
from .core_arith import is_prime, make_context
from .errors import PascalCharError
from .random_model import ModelConfig, run_model, stats_to_json_dict

# str conversion and parsing of arbitrarily large integers; the digit
# recursion itself has no size ceiling worth protecting here
_INT_DIGIT_LIMIT = 2_000_000


def _allow_big_ints() -> None:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(_INT_DIGIT_LIMIT)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    """A header line, then one line per row: floats at .15g, every other
    value as it is; csv's CRLF line ends."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.15g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_manifest(
    argv: list[str],
    started: float,
    outputs: list[str],
    seeds: list[int] | None = None,
    extras: dict | None = None,
) -> str:
    """Write outputs[0] + ".manifest.json" and return the line announcing
    the outputs and the manifest."""
    manifest = {
        "command": "pascalchar " + shlex.join(argv),
        "seeds": seeds or [],
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": {path: _sha256(path) for path in outputs},
    }
    if extras:
        manifest.update(extras)
    path = outputs[0] + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return f"wrote {', '.join(outputs)} and {path}"


def _sparse_str(x: CycInt) -> str:
    """Canonical form as a readable polynomial in zeta."""
    parts: list[str] = []
    for j, c in enumerate(x.canonical()):
        if c == 0:
            continue
        if j == 0:
            body = str(abs(c))
        else:
            mag = f"{abs(c)}*" if abs(c) != 1 else ""
            body = mag + ("zeta" if j == 1 else f"zeta^{j}")
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def _value_str(x: CycInt) -> str:
    # rel_bits=0 takes the double once its error is below the value itself;
    # such a double can be right to only a few digits of the 15 printed
    v, _ = embed_value(x, rel_bits=0)
    if isinstance(v, complex):
        return f"{v.real:.15g}{v.imag:+.15g}i"
    return f"{mpmath.nstr(v.real, 17)}{'+' if v.imag >= 0 else ''}{mpmath.nstr(v.imag, 17)}i"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scan(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    records = scan(args.pmax)
    print(format_scan_table(records))
    if args.out:
        header = [
            "p", "k", "paper_label", "parity", "re_phi", "im_phi",
            "abs_phi", "max_T_b", "max_T_abs", "verdict",
        ]
        rows = [
            (r.p, r.k, r.label, r.parity, r.phi_value.real, r.phi_value.imag,
             r.abs_phi, r.max_T_b, r.max_T_abs, r.verdict.value)
            for r in records
        ]
        _write_csv(args.out, header, rows)
        print(_write_manifest(argv, started, [args.out]))
    return 0


def _parse_n(text: str) -> int:
    """--n as a nonnegative decimal integer of any size.

    Parsed here rather than by argparse, after lifting the interpreter's
    int-string digit limit, which argparse's type=int would hit first.
    """
    _allow_big_ints()
    if not text.strip().isdigit():
        raise ValueError(f"--n must be a nonnegative decimal integer, got {text!r}")
    return int(text)


def _cmd_phi(args: argparse.Namespace, argv: list[str]) -> int:
    n = _parse_n(args.n)
    n_text = args.n.strip()
    ctx = make_context(args.p)
    chi = character(ctx, args.k)
    phi_val, t_val = phi_and_T(n, build_tables(chi))
    print(f"T({n_text}) = {_sparse_str(t_val)}")
    print(f"     ~ {_value_str(t_val)}")
    print(f"phi({n_text}) = {_sparse_str(phi_val)}")
    print(f"     ~ {_value_str(phi_val)}")
    return 0


def _cmd_count(args: argparse.Namespace, argv: list[str]) -> int:
    n = _parse_n(args.n)
    ctx = make_context(args.p)
    if not 1 <= args.r < args.p:
        raise ValueError(f"--r must be in [1, {args.p})")
    print(A_count_formula(n, args.r, ctx))
    return 0


_SVG_W, _SVG_H, _SVG_MARGIN = 760, 520, 52


def _scatter_svg(rows: list[tuple[int, int, str, float, float]]) -> str:
    xs = [r[3] for r in rows]
    ys = [r[4] for r in rows]
    x_lo = min(-1.0, min(xs, default=0.0) - 0.2)
    x_hi = max(6.0, max(xs, default=0.0) + 0.2)
    y_lo = min(-3.0, min(ys, default=0.0) - 0.2)
    y_hi = max(3.0, max(ys, default=0.0) + 0.2)

    def px(x: float) -> float:
        return _SVG_MARGIN + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _SVG_MARGIN)

    def py(y: float) -> float:
        return _SVG_H - _SVG_MARGIN - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _SVG_MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    for gx in range(int(x_lo), int(x_hi) + 1):
        parts.append(
            f'<line x1="{px(gx):.2f}" y1="{py(y_lo):.2f}" x2="{px(gx):.2f}" y2="{py(y_hi):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(gx):.2f}" y="{_SVG_H - _SVG_MARGIN + 16:.2f}" font-size="11" '
            f'text-anchor="middle" fill="#444444">{gx}</text>'
        )
    for gy in range(int(y_lo), int(y_hi) + 1):
        parts.append(
            f'<line x1="{px(x_lo):.2f}" y1="{py(gy):.2f}" x2="{px(x_hi):.2f}" y2="{py(gy):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_SVG_MARGIN - 8:.2f}" y="{py(gy) + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="#444444">{gy}</text>'
        )
    parts.append(
        f'<line x1="{px(x_lo):.2f}" y1="{py(0):.2f}" x2="{px(x_hi):.2f}" y2="{py(0):.2f}" '
        f'stroke="#888888" stroke-width="1.5"/>'
    )
    if x_lo <= 0 <= x_hi:
        parts.append(
            f'<line x1="{px(0):.2f}" y1="{py(y_lo):.2f}" x2="{px(0):.2f}" y2="{py(y_hi):.2f}" '
            f'stroke="#888888" stroke-width="1.5"/>'
        )
    for _, _, parity, re, im in rows:
        color = "#d62728" if parity == "odd" else "#1f77b4"
        parts.append(f'<circle cx="{px(re):.2f}" cy="{py(im):.2f}" r="2" fill="{color}"/>')
    parts.append(
        f'<text x="{_SVG_W / 2:.0f}" y="20" font-size="13" text-anchor="middle" fill="#222222">'
        "phi(p)/p per nonprincipal character (red: odd, blue: even)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_scatter(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    rows = fundamental_scatter(args.pmax)
    _write_csv(args.out, ["p", "k", "parity", "re_phi_over_p", "im_phi_over_p"], rows)
    outputs = [args.out]
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(_scatter_svg(rows))
        outputs.append(args.svg)
    print(f"{len(rows)} points; {_write_manifest(argv, started, outputs)}")
    return 0


def _cmd_bounds(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    report = bound_report(args.p)
    print(f"p            = {report.p}")
    print(f"trivial      = {report.trivial}")
    print(f"weil         = {report.weil:.15g}   (exact ({report.weil_A} + {report.weil_B}*sqrt(p))/2)")
    print(f"weil_simple  = {report.weil_simple:.15g}")
    print(f"max_abs_phi  = {report.max_abs_phi:.15g}")
    print(f"column checks passed for n = 2..{report.columns_checked + 1}")
    if args.out:
        header = ["p", "trivial", "weil", "weil_simple", "max_abs_phi"]
        row = (report.p, report.trivial, report.weil, report.weil_simple, report.max_abs_phi)
        _write_csv(args.out, header, [row])
        print(_write_manifest(argv, started, [args.out]))
    return 0


def _cmd_alpha(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    chi = character(make_context(args.p), args.k)
    profile = growth_profile(chi)
    seq = alpha_sequence(chi, args.kmax)
    # delta at row k is alpha_k - alpha_{k-1}; bound_delta is
    # |phi(p)| * alpha_1 * q^{k-1}, the proven ceiling for that step;
    # the first row has neither
    a = seq.alphas
    rows = [(1, a[0], "", "")] + [
        (i + 1, a[i], a[i] - a[i - 1], profile.abs_phi * a[0] * profile.q**i)
        for i in range(1, len(a))
    ]
    print("k  alpha_k            delta              bound_delta")
    for k, *steps in rows:
        print(f"{k:<2} " + " ".join(f"{v:<18.12g}" for v in steps if v != ""))
    if args.out:
        _write_csv(args.out, ["k", "alpha_k", "delta", "bound_delta"], rows)
        print(_write_manifest(argv, started, [args.out]))
    return 0


def _parse_grid(text: str) -> tuple[float, float, int, int]:
    body, _, depth_text = text.partition("@")
    pieces = body.split(":")
    if len(pieces) != 3:
        raise ValueError(f"--grid must look like lo:hi:count[@depth], got {text!r}")
    lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
    depth = int(depth_text) if depth_text else 0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--grid bounds must be finite, got {text!r}")
    if count < 1 or depth < 0 or hi < lo:
        raise ValueError(f"bad grid {text!r}")
    return lo, hi, count, depth


def _cmd_psi(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    lo, hi, count, depth = _parse_grid(args.grid)
    ctx = make_context(args.p)
    chi = character(ctx, args.k)
    tables = build_tables(chi)
    scale = args.p**depth
    lo_n = max(1, int(-(-Fraction(lo) * scale // 1)))
    hi_n = int(Fraction(hi) * scale)
    if hi_n < lo_n:
        raise ValueError(f"grid {args.grid!r} contains no sample points")
    numerators: list[int] = []
    if count == 1:
        numerators = [lo_n]
    else:
        span = hi_n - lo_n
        for i in range(count):
            cand = lo_n + span * i // (count - 1)
            if not numerators or cand != numerators[-1]:
                numerators.append(cand)
    rows = []
    for n in numerators:
        x = Fraction(n, scale)
        val = psi(x, chi, tables)
        rows.append((float(x), val.real, val.imag, abs(val)))
        print(f"psi({n}/{scale}) = {val.real:.12g}{val.imag:+.12g}i  |psi| = {abs(val):.12g}")
    if args.out:
        _write_csv(args.out, ["x", "re_psi", "im_psi", "abs_psi"], rows)
        print(_write_manifest(argv, started, [args.out]))
    return 0


def _cmd_ratio(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    if not 1 <= args.r < args.p:
        raise ValueError(f"--r must be in [1, {args.p})")
    if not math.isfinite(args.scale):
        raise ValueError(f"--scale must be finite, got {args.scale}")
    rows = convergence_ratio(args.p, args.r, args.kmax, scale=args.scale)
    print("k  n            A              phi            ratio")
    for k, n, a, phi0, ratio in rows:
        print(f"{k:<2} {n:<12} {a:<14} {phi0:<14} {ratio:.12g}")
    if args.out:
        _write_csv(args.out, ["k", "n", "A", "phi", "ratio"], rows)
        deviations = {str(k): abs(ratio - 1.0) for k, _, _, _, ratio in rows}
        extras = {
            "calibration": {
                "abs_ratio_minus_1_by_k": deviations,
                "final_abs_ratio_minus_1": deviations[str(rows[-1][0])] if rows else None,
            }
        }
        print(_write_manifest(argv, started, [args.out], extras=extras))
    return 0


def _cmd_model(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    cfg = ModelConfig(p=args.p, samples=args.samples, seed=args.seed)
    stats = run_model(cfg, args.target)
    payload = json.dumps(stats_to_json_dict(stats), indent=2, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(_write_manifest(argv, started, [args.out], seeds=[args.seed]))
    return 0


def _cmd_means(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    reports = [mean_report(p) for p in range(3, args.pmax + 1) if is_prime(p)]
    print("p    re_mu_even      re_mu_odd       ratio_even  ratio_odd")
    for r in reports:
        print(
            f"{r.p:<4} {r.mu_even.real:<15.9g} {r.mu_odd.real:<15.9g} "
            f"{r.ratio_even:<11.6g} {r.ratio_odd:<10.6g}"
        )
    if args.out:
        header = [
            "p", "re_mu_even", "im_mu_even", "re_mu_odd", "im_mu_odd", "ratio_even", "ratio_odd",
        ]
        rows = [
            (r.p, r.mu_even.real, r.mu_even.imag, r.mu_odd.real, r.mu_odd.imag,
             r.ratio_even, r.ratio_odd)
            for r in reports
        ]
        _write_csv(args.out, header, rows)
        print(_write_manifest(argv, started, [args.out]))
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascalchar",
        description="Character sums over Pascal's triangle mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="classify characters for all primes up to a bound")
    p_scan.add_argument("--pmax", type=int, required=True)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=_cmd_scan)

    p_phi = sub.add_parser("phi", help="exact T(n) and phi(n) for one character")
    p_phi.add_argument("--p", type=int, required=True)
    p_phi.add_argument("--k", type=int, required=True)
    p_phi.add_argument("--n", type=str, required=True, help="nonnegative decimal integer, any size")
    p_phi.set_defaults(func=_cmd_phi)

    p_count = sub.add_parser("count", help="occurrences of a residue in rows 0..n-1")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=str, required=True, help="nonnegative decimal integer, any size")
    p_count.set_defaults(func=_cmd_count)

    p_scatter = sub.add_parser("scatter", help="phi(p)/p scatter for nonprincipal characters")
    p_scatter.add_argument("--pmax", type=int, required=True)
    p_scatter.add_argument("--out", required=True)
    p_scatter.add_argument("--svg", default=None)
    p_scatter.set_defaults(func=_cmd_scatter)

    p_bounds = sub.add_parser("bounds", help="trivial and square-root-saving bounds at p")
    p_bounds.add_argument("--p", type=int, required=True)
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_alpha = sub.add_parser("alpha", help="band maxima of |phi(n)/n^theta|")
    p_alpha.add_argument("--p", type=int, required=True)
    p_alpha.add_argument("--k", type=int, required=True)
    p_alpha.add_argument("--kmax", type=int, required=True)
    p_alpha.add_argument("--out", default=None)
    p_alpha.set_defaults(func=_cmd_alpha)

    p_psi = sub.add_parser("psi", help="normalized phi on a rational grid")
    p_psi.add_argument("--p", type=int, required=True)
    p_psi.add_argument("--k", type=int, required=True)
    p_psi.add_argument(
        "--grid", required=True, help="lo:hi:count[@depth] samples n/p^depth in [lo, hi]"
    )
    p_psi.add_argument("--out", default=None)
    p_psi.set_defaults(func=_cmd_psi)

    p_ratio = sub.add_parser("ratio", help="counting-formula convergence table")
    p_ratio.add_argument("--p", type=int, required=True)
    p_ratio.add_argument("--r", type=int, required=True)
    p_ratio.add_argument("--kmax", type=int, required=True)
    p_ratio.add_argument("--scale", type=float, default=1.0)
    p_ratio.add_argument("--out", default=None)
    p_ratio.set_defaults(func=_cmd_ratio)

    p_model = sub.add_parser("model", help="Monte-Carlo random-domain statistics")
    p_model.add_argument("--p", type=int, required=True)
    p_model.add_argument("--samples", type=int, required=True)
    p_model.add_argument("--seed", type=int, required=True)
    p_model.add_argument("--target", required=True, help="Ycount:R, Ychar:even|odd, or Ap:R")
    p_model.add_argument("--out", default=None)
    p_model.set_defaults(func=_cmd_model)

    p_means = sub.add_parser("means", help="parity-cluster means of phi(p)")
    p_means.add_argument("--pmax", type=int, required=True)
    p_means.add_argument("--out", default=None)
    p_means.set_defaults(func=_cmd_means)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PascalCharError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
