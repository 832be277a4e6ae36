"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rate_curve --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's src/ (nothing is installed).  Workloads, metrics and units are the
ones BENCHMARK.json lists.

With --trace 0 the end-to-end metrics are measured: set-up time (the median
over SETUP_PROBES fresh worker processes plus the measuring one), then ops
per second, median op latency and peak RSS of the measuring worker.  With
--trace 1 a worker reports the per-layer breakdown (see tracing.py) and this
process times the CLI commands as subprocesses.  Every worker runs with BLAS
and OpenMP pinned to one thread.

The last line of standard output is the result object; details, the
environment and the raw spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 3
IMPORT_PROBES = 3
# every run must end within 180 s; this leaves room to report a failure
TOTAL_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# cli.<name>.wall_s: arguments, and a string the output must contain
CLI_COMMANDS = {
    "solve": (["solve", "--a", "0.5", "--b", "0.7", "--beta", "2", "--model", "a2",
               "--seed", "1", "--max-iter", "50"], "n,x,residual"),
    "qubo": (["qubo", "--a", "0.5", "--b", "0.5", "--r", "-4", "--p", "3", "--verify",
              "--format", "json"], "max deviation over 256 assignments"),
    "mc": (["mc", "--model", "normal", "--beta", "2", "--n-traj", "1000", "--n-iter", "40"],
           '"outcome"'),
    "limit-check": (["limit-check", "--a", "1", "--b", "0.5", "--beta", "1",
                     "--ranges=-3:3,-7:3,-11:3"], "r,p,n_points,ks"),
    "rate-curve": (["rate-curve", "--models", "a4,boltzmann:positive:r=-1:p=1",
                    "--beta-min", "2", "--beta-max", "2", "--beta-steps", "1"],
                   "model_id,beta,a,kind,value,clamped"),
}


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args, env, deadline: float, probe: bool = False, spans: str | None = None):
    """Start one worker; returns (set-up seconds, result dict or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    if spans:
        cmd += ["--spans", spans]
    start = monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - start
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not probe):
        raise BenchError("worker output lacks its READY or RESULT line")
    return ready, result


def wall(cmd, env, deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:4]} did not finish in time") from None
    return time.perf_counter() - start, proc


def cli_metrics(env, deadline: float) -> tuple[dict, list[str]]:
    """cli.import_s (median of fresh imports) and one wall time per command."""
    metrics, errors = {}, []
    imports = []
    for _ in range(IMPORT_PROBES):
        seconds, proc = wall([sys.executable, "-c", "import annealsolve"], env, deadline)
        if proc.returncode != 0:
            errors.append(f"import annealsolve failed: {proc.stderr.strip()[-200:]}")
        imports.append(seconds)
    metrics["cli.import_s"] = statistics.median(imports)
    for name, (argv, expect) in CLI_COMMANDS.items():
        seconds, proc = wall([sys.executable, "-m", "annealsolve.cli", *argv], env, deadline)
        if proc.returncode != 0 or expect not in proc.stdout:
            errors.append(f"cli {name}: exit {proc.returncode}, {proc.stderr.strip()[-200:]}")
        metrics[f"cli.{name}.wall_s"] = seconds
    return metrics, errors


def environment(args, env) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_sha": sha, "threads": {var: env[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "annealsolve", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = child_env()
    deadline = monotonic() + TOTAL_LIMIT_S
    errors: list[str] = []
    setups: list[float] = []
    try:
        if not args.trace:
            setups = [run_worker(args, env, deadline, probe=True)[0] for _ in range(SETUP_PROBES)]
        setup, result = run_worker(
            args, env, deadline, spans=stem + "-spans.json" if args.trace else None
        )
        setups.append(setup)
        measured = dict(result["metrics"])
        if args.trace:
            cli, errors = cli_metrics(env, deadline)
            measured.update(cli)
        else:
            measured["setup_s"] = statistics.median(setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if os.path.commonpath([os.path.abspath(result["annealsolve_file"]), SRC]) != SRC:
        print(f"perfbench: imported {result['annealsolve_file']}, not the checkout", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in measured]
    if unknown:
        print(f"perfbench: metrics not measured: {unknown}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    errors = result["errors"] + errors
    details = {
        "environment": environment(args, env), "setup_samples": setups,
        "attempted": result["attempted"], "failed": result["failed"], "errors": errors,
        "missing_hooks": result.get("missing", []), "measured": measured,
        "op_latencies_s": result.get("latencies", []),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(details, handle, indent=1)
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    if details["missing_hooks"]:
        print(f"perfbench: hooks missing, their metrics are null: {details['missing_hooks']}",
              file=sys.stderr)
    print("# environment " + json.dumps(details["environment"]))
    print(json.dumps({
        "correct": result["failed"] == 0 and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
