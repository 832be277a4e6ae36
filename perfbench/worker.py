"""One workload process: set-up, then a timed or a traced phase.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Set-up
is the import of annealsolve, loading the references and one untimed warm-up
op (inputs are drawn lazily between ops, outside the op timer); when it is
done the worker prints ``READY <CLOCK_MONOTONIC time>``, and a
probe exits there.  Otherwise it runs its phase and prints ``RESULT <json>``.

The timed phase is a closed loop with one client: ops run back to back and
the loop checks the clock only after a whole model cycle, so every run times
the same model mix.  Op latency excludes the correctness check.  The traced
phase first times ops untraced for half the time, then runs the same ops
again with the layer hooks installed, which gives both the per-layer
breakdown and the tracing overhead on identical work.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import annealsolve as ans
import tracing
import workloads as wl

# the traced phase re-runs at most this many ops, which bounds the spans kept
TRACE_MAX_OPS = 400
MAX_REPORTED_ERRORS = 5


def monotonic() -> float:
    # system-wide clock, so run.py can subtract its own spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"op {index}: " + "; ".join(problems))


def run_one(work: wl.Workload, index: int, inp, refs, tally: Tally, op=None):
    """Run and check one op: (latency, output or None if it raised, passed)."""
    t0 = time.perf_counter()
    try:
        out = (op or work.op)(inp)
    except Exception as exc:  # a raising op is a failed op, the loop goes on
        latency = time.perf_counter() - t0
        tally.record(index, [f"raised {exc!r}"])
        return latency, None, False
    latency = time.perf_counter() - t0
    try:
        problems = work.check(inp, out, refs(index, inp))
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    tally.record(index, problems)
    return latency, out, not problems


def timed_phase(work: wl.Workload, seed: int, seconds: float, refs, tally: Tally):
    """Whole model cycles until `seconds` have passed; [(index, input, latency, passed)]."""
    done = []
    end = time.perf_counter() + seconds
    for index, inp in enumerate(work.inputs(seed)):
        latency, _, passed = run_one(work, index, inp, refs, tally)
        done.append((index, inp, latency, passed))
        if (index + 1) % work.cycle == 0 and time.perf_counter() >= end:
            return done


def end_to_end(done) -> dict:
    latencies = [lat for _, _, lat, _ in done]
    ok = sum(1 for *_, good in done if good)
    return {
        "ops_per_s": ok / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, latencies


def traced_phase(name: str, work: wl.Workload, seed: int, seconds: float, refs,
                 tally: Tally, spans_path: str) -> dict:
    untraced = timed_phase(work, seed, seconds / 2.0, refs, tally)
    replay = untraced[:TRACE_MAX_OPS]
    tracer = tracing.Tracer()
    tracer.install()
    traced_time = 0.0
    max_ref_dev = 0.0
    try:
        for index, inp, _, _ in replay:
            latency, out, _ = run_one(
                work, index, inp, refs, tally,
                op=lambda arg, i=index: tracer.run_op(i, work.op, arg),
            )
            traced_time += latency
            if name == "rate_curve" and out is not None:
                max_ref_dev = max(max_ref_dev, abs(out - refs(index, inp)[inp]))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(replay))
    metrics["rate.max_ref_dev"] = max_ref_dev
    metrics["bench.untraced_ops_per_s"] = len(replay) / sum(lat for _, _, lat, _ in replay)
    metrics["bench.traced_ops_per_s"] = len(replay) / traced_time
    metrics["bench.traced_ops"] = len(replay)
    tracer.dump(spans_path)
    return {"metrics": metrics, "missing": [target for _, target in tracer.missing]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--spans", help="where the traced phase writes its spans")
    args = parser.parse_args()

    work = wl.WORKLOADS[args.workload]
    refs = wl.refs_for(args.workload, args.seed)
    work.op(work.warmup)
    print(f"READY {monotonic()!r}", flush=True)
    if args.probe:
        return 0

    tally = Tally()
    if args.trace:
        result = traced_phase(args.workload, work, args.seed, args.seconds, refs, tally, args.spans)
    else:
        metrics, latencies = end_to_end(timed_phase(work, args.seed, args.seconds, refs, tally))
        result = {"metrics": metrics, "latencies": latencies}
    result.update(
        attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
        annealsolve_file=ans.__file__,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
