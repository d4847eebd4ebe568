"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload deep --seeds 1-10 [--trace 1] [--json out.json]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=HERE.parent,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"], result["exit"] = seed, done.returncode
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed} exit {done.returncode} failed {result['failed']}/{result['attempted']} {values}",
              flush=True)
    names = list(runs[0]["metrics"])
    summary = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in names}
    for k, s in summary.items():
        print(f"{k:<48} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                                         "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
