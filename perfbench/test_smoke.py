"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench

It checks that every metric BENCHMARK.json names is printed with its
unit, and that a wrong answer fails the run.
"""

import json
from pathlib import Path

import pytest
import run

run._import_source()

import spans  # noqa: E402
import workloads  # noqa: E402
from pascalchar import char_sequences  # noqa: E402
from pascalchar.random_model import ModelConfig, run_model, stats_to_json_dict  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "paper": workloads.Paper(
        scan_pmax=40, scatter_pmax=20, means_pmax=20, bounds_p=37, alpha=(7, 1, 3),
        models=((53, 200, "Ycount:2"), (101, 200, "Ychar:even")), ratio=(5, 2, 3),
    ),
    "count": workloads.Count(primes=(37, 41), digits=12, spot_n=60),
    "deep": workloads.Deep(pairs=((37, 10),), digits=(20, 60), steps=2),
}


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workloads=TINY,
    )
    lines = capsys.readouterr().out.strip().split("\n")
    return code, lines, json.loads(lines[-1])


def test_metric_names_match_the_spec():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.LAYER_METRICS
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == (0 if result["correct"] else 1)
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in lines)
    assert lines[0].startswith("provenance ")
    assert any(line.startswith("failed_ratio") for line in lines)


@pytest.mark.parametrize("workload", [
    "paper",
    "count",
    pytest.param("deep", marks=pytest.mark.xfail(strict=True, reason=(
        "at n of 20 digits `phi` prints T(n) from the double path with 15 significant "
        "digits of which about 9 are right"
    ))),
])
def test_tiny_run_is_correct(capsys, workload):
    code, lines, result = _run(capsys, workload, 0)
    assert [line for line in lines if line.startswith("wrong answer:")] == []
    assert code == 0 and result["correct"] is True


def test_wrong_answer_fails_the_run(capsys, monkeypatch):
    real = char_sequences.A_count_formula
    monkeypatch.setattr(char_sequences, "A_count_formula", lambda n, r, ctx: real(n, r, ctx) + 1)
    code, lines, result = _run(capsys, "count", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("wrong answer:") for line in lines)


def test_corrupted_phi_output_is_caught():
    deep = TINY["deep"]
    chars = deep.setup()
    job = deep.jobs(chars, 3, 0, Path("."))[-1]  # the 60-digit n
    deep.run_job(chars, job)
    assert deep.check(chars, [job]) == []
    e = job.data
    lines = e["stdout"].splitlines()
    swapped = list(lines)
    swapped[1], swapped[3] = lines[3], lines[1]  # T(n) printed with phi(n)'s value
    off_by_one = list(lines)
    name, value = lines[2].split(" = ", 1)
    off_by_one[2] = f"{name} = 1 + {value}"  # exact phi(n) + 1
    for bad in (swapped, off_by_one):
        e["stdout"] = "\n".join(bad)
        assert deep.check(chars, [job]) != []


def test_model_check_holds_the_sample_to_the_exact_mean():
    # at this seed the printed z_score, taken against the heuristic mean 3p, exceeds 4
    got = stats_to_json_dict(run_model(ModelConfig(p=101, samples=5000, seed=762), "Ychar:even"))
    assert got["z_score"] >= 4
    assert workloads.Paper._check_model(None, json.dumps(got)) == []
    got["mc_mean"]["re"] -= 6 * (got["cf_var"] / got["samples"]) ** 0.5
    assert len(workloads.Paper._check_model(None, json.dumps(got))) == 2  # the mean and z_score
