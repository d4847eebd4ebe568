"""pascalchar benchmark: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload paper|count|deep --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports pascalchar from
src/ and refuses to run without it. With --trace 0 it sets up the
workload several times in fresh processes, then runs rounds of the
workload's jobs until the next round would pass --seconds (at least
the workload's job_rounds), and prints the end-to-end metrics. Times
are at reference speed (see speed.py): each set-up and each job is
scaled by the host's speed around it, read from a fixed kernel, so that
the host's drift does not move them; the measured times are printed
too. With --trace 1 it runs a warm-up round, an untraced and a traced
round on the same inputs, prints the per-layer metrics in measured
time, and writes the spans to .bench_work/.
The last line of standard output is one JSON object; the exit code is
nonzero when any answer is wrong.

Run it on an otherwise idle machine: the scan in particular slows
several-fold next to a busy process pool such as the test suite's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """
import sys, time
root, name = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import speed
before = speed.sample()
t0 = time.perf_counter()
import pascalchar.cli
from workloads import WORKLOADS
WORKLOADS[name].setup()
took = time.perf_counter() - t0
print(repr(took), repr((before + speed.sample()) / 2))
"""


def _import_source():
    # one client with no threads: keep numpy's BLAS to the calling thread,
    # also in the set-up processes, which inherit the environment
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pascalchar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pascalchar source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pascalchar

    if Path(pascalchar.__file__).resolve().parent != (SRC / "pascalchar").resolve():
        sys.exit(f"perfbench: imported pascalchar from {pascalchar.__file__}, not {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import mpmath
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "pascalchar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_setup(workload: str) -> list[tuple[float, float]]:
    """(measured, reference-speed) set-up times from fresh interpreters.

    The first set-up, which may compile, is dropped.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, kernel = map(float, done.stdout.split()[-2:])
        times.append((took, took * speed.REF_SECONDS / kernel))
    return times[1:]


def job_tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten jobs beyond it, and its label.

    With fewer than 22 jobs that percentile would not lie above the
    median, and the slowest job stands in for it.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n - 11 < n // 2:
        return ordered[-1], f"max of {n} jobs"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n} jobs"


class Tally:
    """Ops attempted and failed, wrong answers, and failures by type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: dict[str, int] = {}

    def add(self, jobs, wrong: list[str]) -> None:
        self.attempted += sum(j.ops for j in jobs)
        self.failed += sum(len(j.errors) for j in jobs) + len(wrong)
        self.wrong += wrong
        for job in jobs:
            for op, err in job.errors:
                key = f"{op} {err}"
                self.errors[key] = self.errors.get(key, 0) + 1


def run_round(workload, state, seed, index, workdir, recorder=None):
    """One round's jobs, each timed and scaled by the host's speed around it."""
    jobs = workload.jobs(state, seed, index, workdir)
    before = speed.sample()
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = i
        t0 = time.perf_counter()
        workload.run_job(state, job)
        job.seconds = time.perf_counter() - t0
        after = speed.sample()
        job.scale = 2 * speed.REF_SECONDS / (before + after)
        before = after
    return jobs


def run_rounds(workload, state, seed, seconds, tally, workdir):
    """At least job_rounds rounds, then more while the next one should fit."""
    rounds, measured = [], 0.0
    while len(rounds) < workload.job_rounds or measured * (1 + 1 / len(rounds)) <= seconds:
        t0 = time.perf_counter()
        jobs = run_round(workload, state, seed, len(rounds), workdir)
        measured += time.perf_counter() - t0
        tally.add(jobs, workload.check(state, jobs))
        rounds.append(jobs)
    return rounds


def end_to_end(workload, args, tally, workdir) -> tuple[dict, list[str]]:
    setups = time_setup(workload.name)
    state = workload.setup()
    rounds = run_rounds(workload, state, args.seed, args.seconds, tally, workdir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [sum(j.seconds * j.scale for j in jobs) for jobs in rounds]
    # the median over every round; the tail over the first job_rounds, so
    # that its percentile is the same however many rounds fit
    latencies = [workload.latencies(jobs) for jobs in rounds]
    every = [t for round_ in latencies for t in round_]
    tail, tail_label = job_tail([t for round_ in latencies[: workload.job_rounds] for t in round_])
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000 * statistics.median(every),
        "job_tail_ms": 1000 * tail,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes",
        "wall_s": f"median of {len(rounds)} rounds, {min(walls):.3f}..{max(walls):.3f} s",
        "job_p50_ms": f"median of {len(every)} jobs",
        "job_tail_ms": tail_label,
        "peak_rss_mb": "this process",
    }
    scales = [j.scale for jobs in rounds for j in jobs]
    lines = [f"{k:<14} {v:>14.6f} {END_TO_END[k]:<3} ({notes[k]})" for k, v in values.items()]
    lines += [
        f"measured: setup_s {statistics.median(m for m, _ in setups):.6f} s, "
        f"wall_s {statistics.median(sum(j.seconds for j in jobs) for jobs in rounds):.6f} s",
        f"host speed over reference speed: median {1 / statistics.median(scales):.3f}, "
        f"{1 / max(scales):.3f}..{1 / min(scales):.3f} over {len(scales)} jobs",
    ]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def traced(workload, args, tally, workdir) -> tuple[dict, list[str]]:
    import spans

    state = workload.setup()
    for i in range(2):  # the first round runs cold; the second is the untraced time
        jobs = run_round(workload, state, args.seed, 0, workdir)
        plain = sum(j.seconds for j in jobs)
        tally.add(jobs, workload.check(state, jobs))
    rec = spans.Recorder()
    rec.install()
    try:
        rec.job = "setup"
        state = workload.setup()
        jobs = run_round(workload, state, args.seed, 0, workdir, recorder=rec)
        wall = sum(j.seconds for j in jobs)
    finally:
        rec.uninstall()
    bytes_written = workload.output_bytes(jobs)
    tally.add(jobs, workload.check(state, jobs))
    values = spans.layer_metrics(rec, bytes_written, wall / plain)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    rec.write(trace_file, {"provenance": provenance(args), "untraced_s": plain, "traced_s": wall})
    units = dict(spans.LAYER_METRICS)
    lines = [f"{k:<48} {v:>16.6f} {units[k]}" for k, v in values.items()]
    lines.append(f"{len(rec.spans)} spans written to {trace_file.relative_to(ROOT)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, lines


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_source()
    sys.set_int_max_str_digits(0)
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    workload = workloads[args.workload]

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=WORK))
    tally = Tally()
    try:
        run = traced if args.trace else end_to_end
        metrics, lines = run(workload, args, tally, workdir)
    finally:
        shutil.rmtree(workdir)
    for line in lines:
        print(line)
    ratio = tally.failed / tally.attempted
    print(f"{'failed_ratio':<14} {ratio:>14.6f} 1   ({tally.failed} of {tally.attempted} ops)")
    for key, n in sorted(tally.errors.items()):
        print(f"failed op: {key} x{n}")
    for w in tally.wrong:
        print(f"wrong answer: {w}")
    correct = not tally.wrong
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
