"""Tests of the benchmark itself: input determinism, failure counting, output names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(workload: str, seed: int, n: int = 21) -> list:
    return list(itertools.islice(wl.WORKLOADS[workload].inputs(seed), n))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_rate_inputs_cover_every_cell_in_six_cycles():
    cells = first("rate_curve", 3, 6 * len(wl.RATE_MODELS))
    assert sorted(cells) == sorted(
        (spec, beta) for spec in wl.RATE_MODELS for beta in wl.RATE_BETAS
    )


def test_perturbed_rate_reference_counts_as_failed_op():
    work = wl.WORKLOADS["rate_curve"]
    inp = ("boltzmann:positive:r=-1:p=1", 2.0)
    table = wl.load_rate_refs()
    tally = worker.Tally()
    worker.run_one(work, 0, inp, lambda i, x: table, tally)
    perturbed = dict(table)
    perturbed[inp] += 2 * wl.RATE_TOL
    worker.run_one(work, 1, inp, lambda i, x: perturbed, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "reference" in tally.errors[0]


def test_perturbed_mc_reference_counts_as_failed_op():
    ref = wl.load_mc_refs()[0]
    inp = tuple(ref["input"])
    summary = SimpleNamespace(
        n_traj=wl.MC_N_TRAJ, n_iter=wl.MC_N_ITER,
        median_log_error=[float(v) for v in ref["median_log_error"]],
        diverged_fraction=ref["diverged_fraction"],
    )
    work = wl.Workload(wl.mc_inputs, lambda x: summary, wl.mc_check, 1, inp)
    perturbed = json.loads(json.dumps(ref))
    perturbed["median_log_error"][1] += 1e-8
    tally = worker.Tally()
    worker.run_one(work, 0, inp, lambda i, x: ref, tally)
    worker.run_one(work, 1, inp, lambda i, x: perturbed, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("frac, ok", [(3167 / 50_000, True), (0.5, True), (0.06334 + 1e-12, False)])
def test_mc_diverged_fraction_is_a_count(frac, ok):
    # 3167 / 50000 * 50000 is not a whole number in floating point
    a, b = 0.6, 0.3
    summary = SimpleNamespace(
        n_traj=wl.MC_N_TRAJ, n_iter=wl.MC_N_ITER, diverged_fraction=frac,
        median_log_error=[wl.math.log(b / a)] * (wl.MC_N_ITER + 1),
    )
    errors = wl.mc_check(("normal", a, b, 1.0, 0), summary, None)
    assert errors == ([] if ok else [f"diverged_fraction {frac!r} is not a count over 50000"])


def test_missing_hook_is_null_not_zero(monkeypatch):
    hooks = tracing.SPAN_HOOKS + (("rng.gone", "annealsolve.rng", "no_such_function", None),)
    monkeypatch.setattr(tracing, "SPAN_HOOKS", hooks)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1)
    assert tracer.missing == [("rng.gone", "annealsolve.rng.no_such_function")]
    assert metrics["rng.gone.busy_s"] is None and metrics["rate.self_s"] is None
    assert metrics["rate.E_max.busy_s"] == 0.0


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0.1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_untraced_output_names_exactly_the_end_to_end_metrics(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_output_names_exactly_the_per_layer_metrics():
    proc = run_bench("trajectories", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["value"] is not None for m in result["metrics"].values())
    measured = json.loads(
        (BENCH / "results" / "trajectories-seed1-trace1.json").read_text()
    )["measured"]
    # self times of all layers plus the harness glue account for the op time
    selfs = sum(v for k, v in measured.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(measured["bench.op_s"], rel=1e-9)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("trajectories", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
