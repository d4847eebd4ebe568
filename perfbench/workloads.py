"""The benchmark's workloads: what each runs, and how its answers are checked.

Every workload is a closed loop of one client in one process: the next
job starts when the previous one returns, with no threads and `scan`
run serially. A round is the workload's fixed list of jobs; its inputs
come from the workload seed and the round index alone. The runner times
each job; checks run after a round, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import pascalchar.cli as cli
from pascalchar import bounds_asymptotics, char_sequences, characters, core_arith


@dataclass
class Job:
    """One job of a round: its ops, its latency, and what the checks need."""

    ops: int
    seconds: float = 0.0  # as measured
    scale: float = 1.0  # reference speed over the host's speed while the job ran
    errors: list[tuple[str, str]] = field(default_factory=list)  # (op, exception type)
    data: dict = field(default_factory=dict)


def _main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """A workload's interface to the runner.

    job_rounds rounds make the fixed sample that the tail latency is
    taken over, so its percentile is the same on every commit; further
    rounds steady the medians.
    """

    name: str
    job_rounds: int

    def setup(self):
        """Build what the jobs take as given; timed as setup_s."""
        return None

    def jobs(self, state, seed: int, index: int, workdir: Path) -> list[Job]:
        """Round `index`'s jobs with their inputs, in the order they run."""
        raise NotImplementedError

    def run_job(self, state, job: Job) -> None:
        """Run one job; record its outputs in job.data and what raised in job.errors."""
        raise NotImplementedError

    def check(self, state, jobs: list[Job]) -> list[str]:
        """Wrong answers in a finished round, one line each."""
        raise NotImplementedError

    def latencies(self, jobs: list[Job]) -> list[float]:
        """A round's job latencies at reference speed, for the percentiles."""
        return [j.seconds * j.scale for j in jobs]

    def output_bytes(self, jobs: list[Job]) -> int:
        """Bytes of the files the round's CLI calls wrote."""
        return 0


class Paper(Workload):
    """The paper's artifact set through the CLI.

    It spends its time in the scan prefilter and the exact classification
    of flagged characters, the alpha sweep, bound_report's per-character
    loops, contexts and histograms for every prime up to 997, Monte-Carlo
    sampling, and CSV and manifest output. `alpha` stops at kmax 8 because
    the CLI refuses p^kmax above 10^7. Each command is timed on its own,
    but the latency percentiles take the whole set as one job: the median
    of eight unequal commands falls between two of them and swings with
    either.
    """

    name = "paper"
    job_rounds = 3

    def __init__(self, scan_pmax=230, scatter_pmax=100, means_pmax=100, bounds_p=997,
                 alpha=(7, 1, 8), models=((53, 2000, "Ycount:2"), (101, 5000, "Ychar:even")),
                 ratio=(5, 2, 8)):
        self.scan_pmax, self.scatter_pmax, self.means_pmax = scan_pmax, scatter_pmax, means_pmax
        self.bounds_p, self.alpha, self.models, self.ratio = bounds_p, alpha, models, ratio

    def commands(self, out: Path, seed: int) -> list[list[str]]:
        p, k, kmax = self.alpha
        rp, r, rk = self.ratio
        cmds = [
            ["scan", "--pmax", str(self.scan_pmax), "--out", str(out / "scan.csv")],
            ["scatter", "--pmax", str(self.scatter_pmax), "--out", str(out / "scatter.csv")],
            ["means", "--pmax", str(self.means_pmax), "--out", str(out / "means.csv")],
            ["bounds", "--p", str(self.bounds_p), "--out", str(out / "bounds.csv")],
            ["alpha", "--p", str(p), "--k", str(k), "--kmax", str(kmax), "--out", str(out / "alpha.csv")],
        ]
        for mp, samples, target in self.models:
            cmds.append(["model", "--p", str(mp), "--samples", str(samples), "--seed", str(seed),
                         "--target", target])
        cmds.append(["ratio", "--p", str(rp), "--r", str(r), "--kmax", str(rk), "--out", str(out / "ratio.csv")])
        return cmds

    def jobs(self, state, seed, index, workdir: Path) -> list[Job]:
        out = workdir / f"paper-{index}"
        out.mkdir(parents=True)
        return [Job(1, data={"argv": argv, "out": out}) for argv in self.commands(out, seed)]

    def run_job(self, state, job: Job) -> None:
        argv = job.data["argv"]
        try:
            rc, text = _main(argv)
        except Exception as exc:
            rc, text = None, ""
            job.errors.append((argv[0], type(exc).__name__))
        if rc not in (0, None):
            job.errors.append((argv[0], f"exit {rc}"))
        job.data.update(ok=rc == 0, text=text)

    def output_bytes(self, jobs: list[Job]) -> int:
        return sum(f.stat().st_size for f in jobs[0].data["out"].iterdir())

    def latencies(self, jobs: list[Job]) -> list[float]:
        return [sum(super().latencies(jobs))]

    def check(self, state, jobs: list[Job]) -> list[str]:
        """Checks every command that succeeded, then removes the round's files."""
        out, wrong = jobs[0].data["out"], []
        for job in jobs:
            name = job.data["argv"][0]
            if not job.data["ok"]:
                continue
            try:
                wrong += [f"{name}: {w}" for w in getattr(self, f"_check_{name}")(out, job.data["text"])]
            except (OSError, ValueError, KeyError, IndexError) as exc:
                wrong.append(f"{name}: output unreadable ({type(exc).__name__}: {exc})")
        for manifest in sorted(out.glob("*.manifest.json")):
            for path, digest in json.loads(manifest.read_text())["outputs"].items():
                if _sha256(Path(path)) != digest:
                    wrong.append(f"{manifest.name}: SHA-256 of {Path(path).name} does not match")
        shutil.rmtree(out)
        return wrong

    @staticmethod
    def _csv(out: Path, name: str) -> list[list[str]]:
        lines = (out / name).read_text().strip().split("\n")
        return [line.split(",") for line in lines[1:]]

    def _check_scan(self, out, text):
        rows = self._csv(out, "scan.csv")
        want = [pk for pk in SCAN_GOLDEN if pk[0] <= self.scan_pmax]
        got = [(int(r[0]), int(r[1])) for r in rows]
        if got != want or any(r[-1] != "RowDominant" for r in rows):
            return [f"rows {got} differ from the golden table {want}"]
        return []

    def _check_scatter(self, out, text):
        rows = self._csv(out, "scatter.csv")
        want = sum(p - 2 for p in range(3, self.scatter_pmax + 1) if core_arith.is_prime(p))
        return [] if len(rows) == want else [f"{len(rows)} rows, expected {want}"]

    def _check_means(self, out, text):
        rows = self._csv(out, "means.csv")
        want = [p for p in range(3, self.means_pmax + 1) if core_arith.is_prime(p)]
        return [] if [int(r[0]) for r in rows] == want else ["primes column differs"]

    def _check_bounds(self, out, text):
        p = self.bounds_p
        (row,) = self._csv(out, "bounds.csv")
        trivial, weil, max_abs = int(row[1]), float(row[2]), float(row[4])
        checked = int(text.split("column checks passed for n = 2..")[1].split()[0]) - 1
        wrong = []
        if not max_abs < trivial:
            wrong.append(f"max_abs_phi {max_abs} >= trivial {trivial}")
        if not max_abs <= weil:
            wrong.append(f"max_abs_phi {max_abs} > weil {weil}")
        if checked != math.isqrt(p) - 1:
            wrong.append(f"columns_checked {checked} != isqrt({p}) - 1")
        return wrong

    def _check_alpha(self, out, text):
        rows = self._csv(out, "alpha.csv")
        wrong = []
        if len(rows) != self.alpha[2]:
            wrong.append(f"{len(rows)} bands, expected {self.alpha[2]}")
        for row in rows[1:]:
            alpha, delta, bound = float(row[1]), float(row[2]), float(row[3])
            if delta < -1e-12 * alpha or delta > bound:
                wrong.append(f"band {row[0]}: step {delta} outside [0, {bound}]")
        return wrong

    @staticmethod
    def _check_model(out, text):
        """The sample mean within 5 standard errors of the model's exact mean.

        The printed z_score measures the gap to the closed-form mean, and for
        Ychar that mean is a heuristic 3 above the model's exact mean (3p
        against 3p - 3 when even), so |z| >= 4 for some seeds however right
        the sampler is. The check holds the sample against the exact moments
        and z_score to the printed fields instead.
        """
        got = json.loads(text)
        mean, var = oracles.model_moments(got["p"], got["target"])
        mc = got["mc_mean"]
        mc = complex(mc["re"], mc["im"]) if isinstance(mc, dict) else mc
        se = math.sqrt(var / got["samples"])
        wrong = []
        if not math.isclose(got["cf_var"], var, rel_tol=1e-12):
            wrong.append(f"cf_var {got['cf_var']} differs from the model variance {var}")
        if abs(mc - mean) >= 5 * se:
            wrong.append(f"sample mean {mc} is {abs(mc - mean) / se:.2f} standard errors from {mean}")
        if abs(got["mc_var"] / var - 1) >= 6 * math.sqrt(2 / got["samples"]):
            wrong.append(f"sample variance {got['mc_var']} is far from the model variance {var}")
        z = abs(mc - got["cf_mean"]) / math.sqrt(got["cf_var"] / got["samples"])
        if not math.isclose(got["z_score"], z, rel_tol=1e-9):
            wrong.append(f"z_score {got['z_score']} differs from {z} computed from the printed fields")
        return wrong

    def _check_ratio(self, out, text):
        p, r, _ = self.ratio
        ring = oracles.group_ring(p)
        wrong = []
        for k, n, a, phi0, _ratio in self._csv(out, "ratio.csv"):
            below = ring.rows_below(int(n))
            if int(a) != below[ring.dlog[r]] or int(phi0) != sum(below):
                wrong.append(f"k={k}: A or phi differs from the group-ring oracle")
        return wrong


# (p, k) of the 26 conjugate pairs that are not row-regular for p <= 230
SCAN_GOLDEN = [
    (37, 10), (47, 16), (97, 22), (97, 46), (101, 28), (109, 48), (113, 8),
    (131, 24), (137, 12), (139, 26), (139, 32), (149, 26), (149, 60), (149, 68),
    (151, 12), (157, 30), (157, 32), (163, 26), (173, 76), (199, 58),
    (223, 28), (223, 38), (229, 10), (229, 24), (229, 80), (229, 100),
]


class Count(Workload):
    """A seeded stream of A_count_formula(n, r, ctx) library queries.

    p runs over the primes 37..61, each once per round in seeded order,
    so every round costs about the same; n is a uniform 30-digit integer
    and r is uniform in 1..p-1. Contexts are built in setup. At this size
    every query takes the exact fallback, and its time is almost all in
    char_sequences and CycInt multiplication on small coefficients.
    p = 101 and 229 are left out: one query costs 3.5 s and 35 s there.

    Each job also carries a query at n <= spot_n, where the check holds
    the group-ring oracle itself against the brute-force row tally.
    """

    name = "count"
    job_rounds = 6

    def __init__(self, primes=(37, 41, 43, 47, 53, 59, 61), digits=30, spot_n=1000):
        self.primes, self.digits, self.spot_n = primes, digits, spot_n

    def setup(self) -> dict:
        contexts = {p: core_arith.make_context(p) for p in self.primes}
        for ctx in contexts.values():
            ctx.row_dlog_hist
        return contexts

    def jobs(self, contexts, seed, index, workdir) -> list[Job]:
        rng = _rng(seed, self.name, index)
        primes = list(self.primes)
        rng.shuffle(primes)
        jobs = []
        for p in primes:
            n = rng.randrange(10 ** (self.digits - 1), 10**self.digits)
            r = rng.randrange(1, p)
            spot = (rng.randrange(1, self.spot_n + 1), rng.randrange(1, p))
            jobs.append(Job(1, data={"p": p, "n": n, "r": r, "spot": spot}))
        return jobs

    def run_job(self, contexts, job: Job) -> None:
        d = job.data
        try:
            d["answer"] = char_sequences.A_count_formula(d["n"], d["r"], contexts[d["p"]])
        except Exception as exc:
            job.errors.append(("A_count_formula", type(exc).__name__))

    def check(self, contexts, jobs: list[Job]) -> list[str]:
        wrong = []
        for job in jobs:
            d = job.data
            ring = oracles.group_ring(d["p"])
            if not job.errors and d["answer"] != ring.count(d["n"], d["r"]):
                wrong.append(f"A({d['n']}, {d['r']}) mod {d['p']}: {d['answer']} differs from the group-ring oracle")
            n, r = d["spot"]
            if ring.count(n, r) != char_sequences.A_count_bruteforce(n, contexts[d["p"]])[r]:
                wrong.append(f"oracle spot check: A({n}, {r}) mod {d['p']} differs from A_count_bruteforce")
        return wrong


# row-dominant (p, k) pairs with p <= 101
DEEP_PAIRS = ((37, 10), (47, 16), (97, 22), (97, 46), (101, 28))


class Deep(Workload):
    """The CLI's `phi --p --k --n`, then psi(n, chi), at n of 100..1000 digits.

    For each size of an evenly spaced grid of decimal digit counts and
    each row-dominant pair (p, k) with p <= 101, a fresh n of that size
    goes through phi and psi; a job is one such evaluation. CycInt
    products here have few, huge coefficients and the working precision
    grows with n, unlike `count`. psi raises OverflowError from about 316
    digits on; those ops count as failed.
    """

    name = "deep"
    job_rounds = 2

    def __init__(self, pairs=DEEP_PAIRS, digits=(100, 1000), steps=3):
        lo, hi = digits
        self.pairs = pairs
        self.sizes = [lo + s * (hi - lo) // (steps - 1) for s in range(steps)]

    def setup(self) -> dict:
        return {(p, k): characters.character(core_arith.make_context(p), k) for p, k in self.pairs}

    def jobs(self, chars, seed, index, workdir) -> list[Job]:
        rng = _rng(seed, self.name, index)
        jobs = []
        for d in self.sizes:
            for p, k in self.pairs:
                n = rng.randrange(10 ** (d - 1), 10**d)
                # the split n = m*p^j + r that the check uses
                jobs.append(Job(2, data={"p": p, "k": k, "n": n, "split": rng.randrange(1, _base_digit_count(n, p))}))
        return jobs

    def run_job(self, chars, job: Job) -> None:
        e = job.data
        p, k, n = e["p"], e["k"], e["n"]
        try:
            rc, e["stdout"] = _main(["phi", "--p", str(p), "--k", str(k), "--n", str(n)])
            if rc != 0:
                job.errors.append(("phi", f"exit {rc}"))
                del e["stdout"]
        except Exception as exc:
            job.errors.append(("phi", type(exc).__name__))
        try:
            e["psi"] = bounds_asymptotics.psi(n, chars[(p, k)])
        except Exception as exc:
            job.errors.append(("psi", type(exc).__name__))

    def check(self, chars, jobs: list[Job]) -> list[str]:
        wrong = []
        for e in (job.data for job in jobs):
            p, k, n = e["p"], e["k"], e["n"]
            chi, cq = chars[(p, k)], oracles.character_mod_q(p, k)
            what = f"p={p} k={k} n of {len(str(n))} digits"
            phi_n = None  # the CLI's exact phi(n), once checked
            if "stdout" in e:
                try:
                    phi_n, problems = self._check_phi(e["stdout"], cq, n, e["split"])
                except (ValueError, IndexError) as exc:
                    problems = [f"output unreadable ({exc})"]
                wrong += [f"{what}: {w}" for w in problems]
            if "psi" in e:
                m = n
                while m % p == 0:
                    m //= p
                if m != n or phi_n is None:
                    phi_n = char_sequences.phi_chi(m, char_sequences.build_tables(chi)).canonical()
                phi_p = oracles.reduce_cyclotomic(cq.phi[p], chi.order)
                want = oracles.psi_value(phi_n, phi_p, m, p, chi.order)
                if not oracles.close(e["psi"], want, 1e-9):
                    wrong.append(f"{what}: psi {e['psi']} differs from {want}")
        return wrong

    @staticmethod
    def _check_phi(text: str, cq, n: int, split: int):
        """Problems with the CLI's T(n) and phi(n), and phi(n) if it checked out."""
        lines = text.splitlines()
        exact, problems = {}, []
        for (shown, approx), want in zip((lines[0:2], lines[2:4]), cq.split_values(n, split)):
            name = shown.split("(")[0]
            canon = oracles.parse_sparse(shown.split(" = ", 1)[1], len(oracles.cyclotomic(cq.n)) - 1)
            if oracles.reduce_cyclotomic(canon, cq.n, oracles.Q) != oracles.reduce_cyclotomic(want, cq.n, oracles.Q):
                problems.append(f"exact {name}(n) differs from the block identity mod Q")
            elif not oracles.close(oracles.parse_complex(approx.split("~", 1)[1]),
                                   oracles.embed(canon, cq.n), 1e-12):
                problems.append(f"printed value of {name}(n) differs from the embedded canonical form")
            else:
                exact[name] = canon
        return exact.get("phi"), problems


def _base_digit_count(n: int, p: int) -> int:
    count = 0
    while n:
        n //= p
        count += 1
    return count


WORKLOADS = {w.name: w for w in (Paper(), Count(), Deep())}
