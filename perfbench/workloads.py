"""The three benchmark workloads: seeded inputs, one op each, and its check.

Each workload is an endless, seed-determined stream of op inputs (plain
tuples of numbers and model ids), a function running one op through the
package's public API, and a check that turns the op's output into a list of
failure messages (empty when the op is correct).  Checks run outside the op
timer.

* ``rate_curve``: one op is one ``E_max(model, beta)`` cell at the package
  defaults.  Models cycle through a fixed order so every seed sees the same
  model mix; the seed orders each model's betas.
* ``mc_ensemble``: one op is one ``mc_convergence`` ensemble of
  ``MC_N_TRAJ`` x ``MC_N_ITER`` trajectories.
* ``trajectories``: one op is one instance end to end: ``normalize``,
  ``build_qubo`` + ``exhaustive_deviation``, ``solve``, ``replay_errors``
  and ``to_csv``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import annealsolve as ans
from annealsolve import BitRange
from annealsolve.cli import parse_model_spec

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

# the seed whose mc_ensemble results are committed as references
DEFAULT_SEED = 0

RATE_TOL = 1e-4  # E_func(check=True)'s node-doubling tolerance
RATE_BETAS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
RATE_MODELS = (
    "normal", "a1", "a2", "a3", "a4",
    "boltzmann:positive:r=-1:p=1",
    "boltzmann:positive:r=-3:p=1",
    "boltzmann:positive:r=-4:p=1",
    "boltzmann:signed:r=-1:p=1",
    "boltzmann:signed:r=-2:p=1",
)

MC_N_TRAJ = 50_000
MC_N_ITER = 40  # the paper's n_iter
MC_TOL = 1e-9
MC_MODELS = (
    "normal", "a2", "a4",
    "boltzmann:signed:r=-2:p=1",
    "boltzmann:positive:r=-3:p=1",
)

TRAJ_STEPS = 50
TRAJ_TOL = 1e-12
REPLAY_FLOOR = 2.0**-26  # relative residual below which replay may part from solve
# one entry per model kind; Boltzmann kinds draw their register from these
TRAJ_KINDS = ("normal", "a1", "a2", "a3", "a4", "positive", "signed")
TRAJ_REGISTERS = {"positive": (-1, -3, -4), "signed": (-1, -2)}

_MODELS: dict[str, object] = {}


def model(spec: str):
    """The correction model named by a CLI model spec, parsed once."""
    found = _MODELS.get(spec)
    if found is None:
        found = _MODELS[spec] = parse_model_spec(spec)
    return found


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = sum(ord(ch) << (8 * k) for k, ch in enumerate(workload[:8]))
    return np.random.default_rng([seed, tag])


# ---- rate_curve -----------------------------------------------------------

def rate_inputs(seed: int) -> Iterator[tuple[str, float]]:
    """Cycles of one cell per model; each model's betas follow a seeded
    permutation of RATE_BETAS, so six cycles visit every cell once."""
    gen = _rng("rate_curve", seed)
    while True:
        perms = [gen.permutation(RATE_BETAS) for _ in RATE_MODELS]
        for k in range(len(RATE_BETAS)):
            for spec, perm in zip(RATE_MODELS, perms):
                yield spec, float(perm[k])


def rate_op(inp):
    spec, beta = inp
    return ans.E_max(model(spec), beta)


def rate_check(inp, value, refs) -> list[str]:
    spec, beta = inp
    errors = []
    ref = refs[(spec, beta)]
    if not abs(value - ref) <= RATE_TOL:
        errors.append(f"E_max({spec}, {beta}) = {value!r}, reference {ref!r}")
    if spec == "a4" and not value < 0.0:
        errors.append(f"E_max(a4, {beta}) = {value!r} is not negative (criterion 6)")
    return errors


def load_rate_refs() -> dict[tuple[str, float], float]:
    with open(os.path.join(REFS_DIR, "rate_curve.json")) as handle:
        doc = json.load(handle)
    return {(spec, float(beta)): float(value) for spec, beta, value in doc["cells"]}


# ---- mc_ensemble ----------------------------------------------------------

def mc_inputs(seed: int) -> Iterator[tuple[str, float, float, float, int]]:
    gen = _rng("mc_ensemble", seed)
    while True:
        for spec in MC_MODELS:
            a = float(gen.uniform(0.5, 1.0))
            b = float(gen.choice((-1.0, 1.0)) * gen.uniform(0.25, 2.0))
            beta = float(gen.uniform(0.25, 5.0))
            yield spec, a, b, beta, int(gen.integers(1 << 32))


def mc_op(inp):
    spec, a, b, beta, mc_seed = inp
    return ans.mc_convergence(
        model(spec), a, b, beta, n_traj=MC_N_TRAJ, n_iter=MC_N_ITER, seed=mc_seed
    )


def _finite_text(value: float):
    return value if math.isfinite(value) else repr(value)


def mc_record(summary) -> dict:
    """The parts of an McSummary kept as a reference, JSON-safe."""
    return {
        "median_log_error": [_finite_text(float(v)) for v in summary.median_log_error],
        "diverged_fraction": summary.diverged_fraction,
    }


def mc_check(inp, summary, refs) -> list[str]:
    spec, a, b, beta, _ = inp
    errors = []
    med = np.asarray(summary.median_log_error)
    if (summary.n_traj, summary.n_iter) != (MC_N_TRAJ, MC_N_ITER) or med.shape != (MC_N_ITER + 1,):
        errors.append(f"shape {med.shape} for {summary.n_traj}x{summary.n_iter}")
        return errors
    if np.isnan(med).any():
        errors.append("median_log_error holds NaN")
    start = math.log(abs(b / a))
    if not abs(med[0] - start) <= 1e-12 * max(1.0, abs(start)):
        errors.append(f"median_log_error[0] = {med[0]!r}, expected ln|b/a| = {start!r}")
    # the fraction is k / n_traj rounded once, so frac * n_traj itself need
    # not be a whole number (0.06334 * 50000 = 3166.9999999999995)
    frac = summary.diverged_fraction
    count = round(frac * MC_N_TRAJ)
    if not (0 <= count <= MC_N_TRAJ and frac == count / MC_N_TRAJ):
        errors.append(f"diverged_fraction {frac!r} is not a count over {MC_N_TRAJ}")
    if refs is not None:
        ref_med = np.array([float(v) for v in refs["median_log_error"]])
        finite = np.isfinite(ref_med)
        if not np.array_equal(finite, np.isfinite(med)) or not np.array_equal(
            med[~finite], ref_med[~finite]
        ):
            errors.append("non-finite median_log_error entries differ from the reference")
        elif np.abs(med[finite] - ref_med[finite]).max(initial=0.0) > MC_TOL:
            errors.append("median_log_error differs from the reference by more than 1e-9")
        if list(inp) != refs["input"]:
            errors.append(f"reference was made for input {refs['input']}, not {list(inp)}")
        if frac != refs["diverged_fraction"]:
            errors.append(f"diverged_fraction {frac!r} != reference {refs['diverged_fraction']!r}")
    return errors


def load_mc_refs() -> list[dict]:
    with open(os.path.join(REFS_DIR, "mc_ensemble_seed0.json")) as handle:
        return json.load(handle)["ops"]


# ---- trajectories ---------------------------------------------------------

def traj_inputs(seed: int) -> Iterator[tuple]:
    """(a0, b0, a, b, model spec, beta, r, p, solve seed) per instance.

    (a, b) is drawn in normalized form (1/2 <= a < 1, |b| <= 2, the range of
    acceptance criterion 1) and scaled by a random power of two and sign, so
    normalize(a0, b0) must give back exactly (a, b).
    """
    gen = _rng("trajectories", seed)
    while True:
        for kind in TRAJ_KINDS:
            if kind in TRAJ_REGISTERS:
                r = int(gen.choice(TRAJ_REGISTERS[kind]))
                spec = f"boltzmann:{kind}:r={r}:p=1"
            else:
                spec = kind
            a = float(gen.uniform(0.5, 1.0))
            b = float(gen.choice((-1.0, 1.0)) * gen.uniform(0.05, 2.0))
            sign = float(gen.choice((-1.0, 1.0)))
            shift = int(gen.integers(-8, 9))
            a0, b0 = sign * math.ldexp(a, shift), sign * math.ldexp(b, shift)
            n_bits = int(gen.integers(4, 13))
            p = int(gen.integers(0, 4))
            beta = float(gen.uniform(1.5, 5.0))
            yield a0, b0, a, b, spec, beta, p - (n_bits - 1), p, int(gen.integers(1 << 32))


@dataclass
class TrajResult:
    inst: object
    deviation: float
    n_assignments: int
    trace: object
    replay: np.ndarray
    csv: str


def traj_op(inp) -> TrajResult:
    a0, b0, _, _, spec, beta, r, p, seed = inp
    inst = ans.normalize(a0, b0)
    problem = ans.build_qubo(inst.a, inst.b, BitRange(r, p))
    deviation = ans.exhaustive_deviation(problem)
    corr = model(spec)
    trace = ans.solve(inst, corr, beta=beta, seed=seed, max_iter=TRAJ_STEPS)
    replay = ans.replay_errors(inst, corr, beta, trace.eta)
    return TrajResult(inst, deviation, 1 << problem.n_bits, trace, replay, trace.to_csv())


def traj_check(inp, res: TrajResult, refs=None) -> list[str]:
    _, _, a, b, spec, *_ = inp
    errors = []
    inst, trace = res.inst, res.trace
    if (inst.a, inst.b) != (a, b):
        errors.append(f"normalize gave ({inst.a!r}, {inst.b!r}), expected ({a!r}, {b!r})")
    if not res.deviation <= TRAJ_TOL:
        errors.append(f"QUBO deviation {res.deviation!r} over {res.n_assignments} assignments")
    n = trace.n_steps
    if trace.x.size != n + 1 or res.replay.size < n + 1:
        errors.append(f"trace/replay lengths {trace.x.size}/{res.replay.size} for {n} steps")
        return errors
    # Near the float floor a residual can round onto an exact power of two,
    # where a single rounding flips its exponent bracket and replay and solve
    # part by about the residual itself; compare the steps above that floor.
    small = np.abs(trace.residual) < REPLAY_FLOOR * max(1.0, abs(inst.solution))
    upto = int(np.argmax(small)) if small.any() else n
    worst = float(np.abs(res.replay[: upto + 1] - trace.x[: upto + 1]).max())
    if not worst <= TRAJ_TOL:
        errors.append(f"replay deviates from solve by {worst!r} within {upto} steps")
    ba = inst.solution
    for k in range(n):
        # the criterion-9 trace invariants
        res_k, l = float(trace.residual[k]), int(trace.l[k])
        scaled = math.ldexp(abs(res_k), l)
        x0, x1 = float(trace.x[k]), float(trace.x[k + 1])
        defect = abs((ba - x1) - (ba - x0) * float(trace.multiplier[k]))
        if not (
            res_k == inst.b - inst.a * x0
            and 0.5 < scaled <= 1.0
            and trace.c[k] == 1.0 / scaled
            and x1 == x0 + math.ldexp(float(trace.delta[k]), -l)
            and defect <= 1e-14 * max(1.0, abs(ba - x0))
        ):
            errors.append(f"trace invariant broken at step {k} ({spec})")
            break
    expected_rows = 1 + n + (1 if trace.stopped else 0)
    if res.csv.count("\n") != expected_rows:
        errors.append(f"to_csv wrote {res.csv.count(chr(10))} lines, expected {expected_rows}")
    return errors


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable
    # ops per model cycle; a timed phase ends only after a whole cycle, so
    # every run times the same model mix
    cycle: int
    # a fixed op run untimed during set-up, so lazy caches fill before timing
    warmup: tuple


WORKLOADS = {
    "rate_curve": Workload(rate_inputs, rate_op, rate_check, len(RATE_MODELS), ("a4", 2.0)),
    "mc_ensemble": Workload(
        mc_inputs, mc_op, mc_check, len(MC_MODELS), ("normal", 0.5, 0.7, 2.0, 0)
    ),
    "trajectories": Workload(
        traj_inputs, traj_op, traj_check, len(TRAJ_KINDS),
        (0.6, 0.85, 0.6, 0.85, "a2", 2.0, -4, 3, 0),
    ),
}


def refs_for(workload: str, seed: int):
    """Per-op reference lookup: refs(index, inp) -> reference or None."""
    if workload == "rate_curve":
        table = load_rate_refs()
        return lambda index, inp: table
    if workload == "mc_ensemble" and seed == DEFAULT_SEED:
        ops = load_mc_refs()
        return lambda index, inp: ops[index] if index < len(ops) else None
    return lambda index, inp: None
