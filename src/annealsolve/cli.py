"""Command-line front end: reproducible runs emitting CSV/JSON for plotting.

Every output starts with the resolved run configuration (comment lines in
CSV, a "config" member in JSON), so a result file always identifies the run
that produced it.  Exit codes: 0 success, 1 domain or verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .encoding import BitRange
from .experiments import limit_check, mc_convergence
from .qubo import build_qubo, exhaustive_deviation, export_qubo
from .rate import rate_curve, rate_points_to_csv
from .sampler import ModelSpecError, parse_model_spec
from .solver import normalize, solve


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _csv_header(args: argparse.Namespace) -> str:
    return (
        f"# annealsolve {__version__}\n"
        f"# config {json.dumps(_config(args), sort_keys=True, allow_nan=False)}\n"
    )


def _json_doc(args: argparse.Namespace, payload: dict) -> str:
    doc = {"annealsolve": __version__, "config": _config(args)}
    doc.update(payload)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _jsonable(value: float) -> float | None:
    return value if math.isfinite(value) else None


def cmd_solve(args) -> int:
    model = parse_model_spec(args.model)
    inst = normalize(args.a, args.b)
    trace = solve(
        inst, model, beta=args.beta, seed=args.seed, max_iter=args.max_iter,
        tol=args.tol, l0_zero=args.paper_l0,
    )
    header = _csv_header(args) + (
        f"# normalized a={inst.a!r} b={inst.b!r} shift={inst.shift} "
        f"exact={int(trace.exact)}\n"
    )
    _emit(header + trace.to_csv(), args.out)
    return 0


def cmd_qubo(args) -> int:
    problem = build_qubo(args.a, args.b, BitRange(args.r, args.p))
    if args.verify:
        if problem.n_bits > 12:
            raise ModelSpecError("--verify is limited to p - r + 1 <= 12 bits")
        deviation = exhaustive_deviation(problem)
        print(f"max deviation over {2 ** problem.n_bits} assignments: {deviation:.3e}")
        if not deviation <= 1e-12:  # NaN fails too
            print("verification FAILED (deviation > 1e-12)", file=sys.stderr)
            return 1
    if args.format == "coo":
        _emit(_csv_header(args) + export_qubo(problem, "coo"), args.out)
    else:
        doc = json.loads(export_qubo(problem, "json"))
        _emit(_json_doc(args, doc), args.out)
    return 0


def cmd_rate_curve(args) -> int:
    models = [parse_model_spec(tok.strip()) for tok in args.models.split(",") if tok.strip()]
    if not models:
        raise ModelSpecError("--models must name at least one model")
    if not (math.isfinite(args.beta_min) and math.isfinite(args.beta_max)):
        # an infinite endpoint would turn the linspace into NaNs
        raise ValueError(f"beta range must be finite, got [{args.beta_min}, {args.beta_max}]")
    if args.beta_steps < 1:
        raise ValueError(f"--beta-steps must be at least 1, got {args.beta_steps}")
    if args.beta_steps == 1 and args.beta_min != args.beta_max:
        # the linspace would keep beta_min alone while the header records both
        raise ValueError(
            f"--beta-steps 1 needs --beta-min == --beta-max, got "
            f"[{args.beta_min}, {args.beta_max}]"
        )
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    points = rate_curve(models, betas, a_steps=args.a_steps, c_steps=args.c_steps,
                        gl_nodes=args.gl_nodes)
    if args.format == "csv":
        _emit(_csv_header(args) + rate_points_to_csv(points), args.out)
    else:
        rows = [{**asdict(pt), "value": _jsonable(pt.value)} for pt in points]
        _emit(_json_doc(args, {"points": rows}), args.out)
    return 0


def cmd_mc(args) -> int:
    model = parse_model_spec(args.model)
    if args.dump_count is not None and args.dump_traces is None:
        raise ModelSpecError("--dump-count requires --dump-traces")
    if args.dump_count is None:
        args.dump_count = 10  # set here, so the config header shows the count in effect
    elif args.dump_count < 1:
        raise ModelSpecError(f"--dump-count must be at least 1, got {args.dump_count}")
    summary = mc_convergence(
        model, a=args.a, b=args.b, beta=args.beta, s=args.s,
        n_traj=args.n_traj, n_iter=args.n_iter, seed=args.seed,
    )
    if args.dump_traces is not None:
        # re-run a handful of trajectories individually; stream t of the
        # ensemble and solve(stream=t) draw identical variates and share the
        # ensemble's first-step convention
        inst = normalize(args.a, args.b)
        os.makedirs(args.dump_traces, exist_ok=True)
        for t in range(min(args.n_traj, args.dump_count)):
            trace = solve(
                inst, model, beta=args.beta, seed=args.seed,
                max_iter=args.n_iter, stream=t, l0_zero=summary.l0_zero,
            )
            with open(os.path.join(args.dump_traces, f"traj{t:04d}.csv"), "w") as handle:
                handle.write(_csv_header(args) + trace.to_csv())
    if summary.floor_step == 0:
        print(
            "annealsolve: warning: the start x = 0 already solves a*x = b, so the median "
            "error is exactly 0 at every step and no slope is fitted",
            file=sys.stderr,
        )
    elif summary.floor_step is not None:
        print(
            f"annealsolve: warning: the median error is exactly 0 (the float floor) from "
            f"step {summary.floor_step} on; the slope is fitted only to the steps before it",
            file=sys.stderr,
        )
    if summary.ceiling_step is not None:
        print(
            "annealsolve: warning: the median error is past the freeze ceiling (where "
            f"trajectories stop updating) from step {summary.ceiling_step} on; the slope is "
            "fitted only to the steps before it",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {
            "n_traj": summary.n_traj,
            "n_iter": summary.n_iter,
            "s": summary.s,
            "slope": _jsonable(summary.slope),
            "floor_step": summary.floor_step,
            "ceiling_step": summary.ceiling_step,
            "diverged_fraction": summary.diverged_fraction,
            "outcome": summary.s_scaled_outcome.value,
            "median_log_error": [_jsonable(float(v)) for v in summary.median_log_error],
        }
        _emit(_json_doc(args, payload), args.out)
    else:
        lines = [
            _csv_header(args),
            f"# slope={summary.slope!r} floor_step={summary.floor_step} "
            f"ceiling_step={summary.ceiling_step} "
            f"diverged_fraction={summary.diverged_fraction!r} "
            f"outcome={summary.s_scaled_outcome.value}\n",
            "step,median_log_error\n",
        ]
        for n, v in enumerate(summary.median_log_error):
            lines.append(f"{n},{float(v)!r}\n")
        _emit("".join(lines), args.out)
    return 0


def _parse_ranges(text: str) -> list[BitRange]:
    ranges = []
    for tok in filter(None, (part.strip() for part in text.split(","))):
        r_txt, _, p_txt = tok.partition(":")
        try:
            r, p = int(r_txt), int(p_txt)
        except ValueError:
            raise ModelSpecError(f"range {tok!r} must look like r:p") from None
        ranges.append(BitRange(r, p))
    if not ranges:
        raise ModelSpecError("--ranges must name at least one r:p pair")
    return ranges


def cmd_limit_check(args) -> int:
    ranges = _parse_ranges(args.ranges)
    rows = limit_check(args.a, args.b, args.beta, ranges, limit=parse_model_spec(args.limit))
    if args.format == "json":
        payload = {
            "rows": [
                {"r": row.range.r, "p": row.range.p, "n_points": row.n_points, "ks": row.ks}
                for row in rows
            ]
        }
        _emit(_json_doc(args, payload), args.out)
    else:
        lines = [_csv_header(args), "r,p,n_points,ks\n"]
        for row in rows:
            lines.append(f"{row.range.r},{row.range.p},{row.n_points},{row.ks!r}\n")
        _emit("".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealsolve",
        description="Simulate annealer-style iterative solvers of a*x = b "
        "and reproduce their convergence-rate analysis.",
    )
    parser.add_argument("--version", action="version", version=f"annealsolve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one refinement trajectory, emit a CSV trace")
    p_solve.add_argument("--a", type=float, required=True)
    p_solve.add_argument("--b", type=float, required=True)
    p_solve.add_argument("--beta", type=float, required=True)
    p_solve.add_argument("--model", required=True,
                         help="model spec, e.g. a2 or boltzmann:positive:r=-3:p=1")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--max-iter", type=int, default=50)
    p_solve.add_argument("--tol", type=float, default=0.0)
    p_solve.add_argument(
        "--paper-l0", action="store_true",
        help="pin the first step's exponent to zero (normal-model threshold convention)",
    )
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_qubo = sub.add_parser("qubo", help="build and export the QUBO of (a*x - b)^2")
    p_qubo.add_argument("--a", type=float, required=True)
    p_qubo.add_argument("--b", type=float, required=True)
    p_qubo.add_argument("--r", type=int, required=True)
    p_qubo.add_argument("--p", type=int, required=True)
    p_qubo.add_argument("--format", choices=("coo", "json"), default="coo")
    p_qubo.add_argument("--verify", action="store_true",
                        help="exhaustively check the coefficient identity (<= 12 bits)")
    p_qubo.add_argument("--out")
    p_qubo.set_defaults(func=cmd_qubo)

    p_rate = sub.add_parser("rate-curve", help="E_max per (model, beta) as a long-format table")
    p_rate.add_argument("--models", required=True,
                        help="comma-separated specs, e.g. a1,a2,boltzmann:positive:r=0:p=1")
    p_rate.add_argument("--beta-min", type=float, required=True)
    p_rate.add_argument("--beta-max", type=float, required=True)
    p_rate.add_argument("--beta-steps", type=int, required=True)
    p_rate.add_argument("--a-steps", type=int, default=65)
    p_rate.add_argument("--c-steps", type=int, default=257)
    p_rate.add_argument("--gl-nodes", type=int, default=256)
    p_rate.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rate.add_argument("--out")
    p_rate.set_defaults(func=cmd_rate_curve)

    p_mc = sub.add_parser("mc", help="Monte Carlo convergence study over seeded trajectories")
    p_mc.add_argument("--model", required=True, help="model spec, e.g. normal or a2")
    p_mc.add_argument("--a", type=float, default=0.5)
    p_mc.add_argument("--b", type=float, default=0.7)
    p_mc.add_argument("--beta", type=float, required=True)
    p_mc.add_argument("--s", type=float, default=1.0)
    p_mc.add_argument("--n-traj", type=int, default=1000)
    p_mc.add_argument("--n-iter", type=int, default=40)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--format", choices=("csv", "json"), default="json")
    p_mc.add_argument("--dump-traces", metavar="DIR",
                      help="also write individual trajectory traces for debugging")
    p_mc.add_argument("--dump-count", type=int,
                      help="number of traces to write with --dump-traces (default 10)")
    p_mc.add_argument("--out")
    p_mc.set_defaults(func=cmd_mc)

    p_limit = sub.add_parser(
        "limit-check", help="KS distance of exact Boltzmann laws to their normal limits"
    )
    p_limit.add_argument("--a", type=float, required=True)
    p_limit.add_argument("--b", type=float, required=True)
    p_limit.add_argument("--beta", type=float, required=True)
    p_limit.add_argument("--ranges", required=True, help="comma-separated r:p pairs")
    p_limit.add_argument("--limit", default="normal",
                         help="limit law: normal (the whole line) or a truncated normal, "
                         "e.g. a2 or truncnormal:d1=0:d2=1")
    p_limit.add_argument("--format", choices=("csv", "json"), default="csv")
    p_limit.add_argument("--out")
    p_limit.set_defaults(func=cmd_limit_check)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a negative number to the flag before it: "--b -1e-5" -> "--b=-1e-5".

    argparse reads a token that starts with "-" as an option unless it has
    the form -1 or -.5, so a value like -1e-5 or -inf would be taken for an
    unknown option; joined to its flag it is always read as the value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
    except ModelSpecError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, OSError) as exc:  # the package's own errors are ValueErrors
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a register under the enumeration limit can still outgrow RAM
        reason = str(exc) or "allocation failed"
        print(f"{parser.prog}: error: out of memory: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
