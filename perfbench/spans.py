"""Span recorder for the traced run.

Spans are installed from outside the library: each public function
listed in FUNCTIONS is replaced by a timing wrapper in its own module and
under every name another pascalchar module imported it by (for example
classification.build_tables), the CycInt methods in METHODS are wrapped
on the class, and PrimeContext.row_dlog_hist is wrapped inside its
cached_property. Nothing under src/ changes, and uninstall() puts every
original back.

A span holds its name, start, end, parent span and job id; spans stay in
memory until the run writes them out. A layer's self time is its span
durations minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _alpha_swept(args, kwargs, out):
    chi, k_max = args[0], kwargs["k_max"] if "k_max" in kwargs else args[1]
    # band k sweeps p^(k-1) < n <= p^k, so bands 1..k_max cover 1 < n <= p^k_max
    return chi.ctx.p**k_max - 1


def _max_coeff_bits(args, kwargs, out):
    c = out.coeffs
    return max(max(c), -min(c)).bit_length()


# (module, function, extra value recorded from (args, kwargs, result))
FUNCTIONS = [
    ("core_arith", "make_context", None),
    ("characters", "abs_compare", None),
    ("char_sequences", "build_tables", None),
    ("char_sequences", "phi_chi", None),
    ("char_sequences", "T_chi", None),
    ("char_sequences", "A_count_formula", None),
    ("classification", "scan", None),
    ("classification", "classify", None),
    ("classification", "fundamental_scatter", None),
    ("classification", "mean_report", None),
    ("bounds_asymptotics", "bound_report", None),
    ("bounds_asymptotics", "alpha_sequence", _alpha_swept),
    ("bounds_asymptotics", "growth_profile", None),
    ("bounds_asymptotics", "psi", None),
    ("bounds_asymptotics", "convergence_ratio", None),
    ("random_model", "run_model", lambda args, kwargs, out: args[0].samples),
    ("cli", "main", None),
]

# (method, span name, extra value)
METHODS = [
    ("__mul__", "CycInt.mul", _max_coeff_bits),
    ("canonical", "CycInt.canonical", None),
    ("coeff_l1", "CycInt.coeff_l1", None),
    ("embed", "CycInt.embed", None),
    ("embed_mpc", "CycInt.embed_mpc", lambda args, kwargs, out: args[1]),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "extra", "error")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.start = self.end = 0.0
        self.extra = self.error = None


class Recorder:
    """Collects spans from the wrappers it installs; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        from pascalchar.characters import CycInt
        from pascalchar.core_arith import PrimeContext

        modules = [m for k, m in sys.modules.items() if k == "pascalchar" or k.startswith("pascalchar.")]
        for mod_name, fn_name, extra in FUNCTIONS:
            orig = getattr(sys.modules[f"pascalchar.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", orig, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._undo.append((setattr, mod, attr, orig))
        for method, name, extra in METHODS:
            orig = CycInt.__dict__[method]
            setattr(CycInt, method, self.wrap(f"characters.{name}", orig, extra))
            self._undo.append((setattr, CycInt, method, orig))
        hist = PrimeContext.__dict__["row_dlog_hist"]
        orig = hist.func
        hist.func = self.wrap("core_arith.row_dlog_hist", orig)
        self._undo.append((setattr, hist, "func", orig))

    def uninstall(self) -> None:
        while self._undo:
            op, obj, attr, value = self._undo.pop()
            op(obj, attr, value)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.job, s.extra, s.error]) + "\n")


# per-layer metrics in report order: (name, unit)
LAYER_METRICS = [
    ("core_arith.make_context.calls", "count"),
    ("core_arith.make_context.self_s", "s"),
    ("core_arith.row_dlog_hist.self_s", "s"),
    ("characters.CycInt.mul.calls", "count"),
    ("characters.CycInt.mul.self_s", "s"),
    ("characters.CycInt.mul.max_coeff_bits", "bits"),
    ("characters.CycInt.canonical.calls", "count"),
    ("characters.CycInt.canonical.self_s", "s"),
    ("characters.CycInt.coeff_l1.calls", "count"),
    ("characters.CycInt.coeff_l1.self_s", "s"),
    ("characters.CycInt.embed.calls", "count"),
    ("characters.CycInt.embed.self_s", "s"),
    ("characters.CycInt.embed_mpc.calls", "count"),
    ("characters.CycInt.embed_mpc.self_s", "s"),
    ("characters.CycInt.embed_mpc.max_bits", "bits"),
    ("characters.abs_compare.calls", "count"),
    ("characters.abs_compare.self_s", "s"),
    ("characters.abs_compare.reached_mp", "count"),
    ("characters.abs_compare.exact_norm", "count"),
    ("char_sequences.build_tables.calls", "count"),
    ("char_sequences.build_tables.self_s", "s"),
    ("char_sequences.phi_chi.calls", "count"),
    ("char_sequences.phi_chi.self_s", "s"),
    ("char_sequences.T_chi.calls", "count"),
    ("char_sequences.T_chi.self_s", "s"),
    ("char_sequences.A_count_formula.calls", "count"),
    ("char_sequences.A_count_formula.self_s", "s"),
    ("char_sequences.A_count_formula.exact_fallbacks", "count"),
    ("classification.scan.self_s", "s"),
    ("classification.scan.flagged", "count"),
    ("classification.classify.calls", "count"),
    ("classification.classify.self_s", "s"),
    ("classification.fundamental_scatter.self_s", "s"),
    ("classification.mean_report.self_s", "s"),
    ("bounds_asymptotics.bound_report.self_s", "s"),
    ("bounds_asymptotics.alpha_sequence.self_s", "s"),
    ("bounds_asymptotics.alpha_sequence.n_swept", "count"),
    ("bounds_asymptotics.growth_profile.calls", "count"),
    ("bounds_asymptotics.growth_profile.self_s", "s"),
    ("bounds_asymptotics.psi.calls", "count"),
    ("bounds_asymptotics.psi.self_s", "s"),
    ("bounds_asymptotics.psi.failed", "count"),
    ("bounds_asymptotics.convergence_ratio.self_s", "s"),
    ("random_model.run_model.self_s", "s"),
    ("random_model.run_model.samples", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("bench.trace_overhead", "ratio"),
]


def layer_metrics(rec: Recorder, bytes_written: int, trace_overhead: float) -> dict[str, float]:
    """LAYER_METRICS computed from the span tree, in report order."""
    spans = rec.spans
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)
    children: list[set] = [set() for _ in spans]
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        self_s[s.name] += dur
        if s.extra is not None:
            extras[s.name].append(s.extra)
        if s.parent is not None:
            self_s[spans[s.parent].name] -= dur
            children[s.parent].add(s.name)

    def with_child(parent: str, child: str) -> int:
        return sum(1 for i, s in enumerate(spans) if s.name == parent and child in children[i])

    derived = {
        "characters.CycInt.mul.max_coeff_bits": max(extras["characters.CycInt.mul"], default=0),
        "characters.CycInt.embed_mpc.max_bits": max(extras["characters.CycInt.embed_mpc"], default=0),
        "characters.abs_compare.reached_mp": with_child("characters.abs_compare", "characters.CycInt.embed_mpc"),
        "characters.abs_compare.exact_norm": with_child("characters.abs_compare", "characters.CycInt.canonical"),
        "char_sequences.A_count_formula.exact_fallbacks": with_child(
            "char_sequences.A_count_formula", "characters.CycInt.canonical"
        ),
        "classification.scan.flagged": sum(
            1 for s in spans
            if s.name == "classification.classify" and s.parent is not None
            and spans[s.parent].name == "classification.scan"
        ),
        "bounds_asymptotics.alpha_sequence.n_swept": sum(extras["bounds_asymptotics.alpha_sequence"]),
        "bounds_asymptotics.psi.failed": sum(1 for s in spans if s.name == "bounds_asymptotics.psi" and s.error),
        "random_model.run_model.samples": sum(extras["random_model.run_model"]),
        "cli.bytes_written": bytes_written,
        "bench.trace_overhead": trace_overhead,
    }
    out = {}
    for name, _unit in LAYER_METRICS:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        else:
            out[name] = self_s[name[: -len(".self_s")]]
    return out
