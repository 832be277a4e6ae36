"""Write tests/data/identity.json, the identity ledger of the package's outputs.

The ledger holds seven SHA-256 hashes, each over outputs that a change meant
to keep every value must leave bit-identical:

* ``e_max``: ``float(E_max(model, beta)).hex()`` over the benchmark's rate
  models x betas, model-major, concatenated;
* ``mc_summary``: every ``McSummary`` field of the benchmark's first
  seed-0 ``mc_ensemble`` inputs;
* ``boltzmann_draws``: ``q_value`` draws of the benchmark's Boltzmann
  registers on a fixed (u, c) grid, u = 0 and u = 1 included, at betas up
  to 1e300;
* ``solve_traces``: the ``to_csv()`` text of ``solve`` and the
  ``float.hex`` of ``replay_errors`` over the benchmark's first seed-0
  ``trajectories`` inputs, each one ``float`` at a time through the scalar
  path;
* ``scalar_draws``: scalar ``q_value`` draws, one Python float (u, c) at a
  time, of the normal and a1..a4 laws on the ``boltzmann_draws`` grid;
* ``qubo_patterns``: the dtype, shape and bytes of ``enumerate_patterns``'
  bits and the ``float.hex`` of its values, for each support kind over the
  bit ranges of the benchmark's first seed-0 ``trajectories`` inputs;
* ``qubo_deviation``: the ``float.hex`` of ``exhaustive_deviation`` of the
  same inputs' QUBOs, ``build_qubo`` of the normalised (a, b) over each range;
  a change to the order in which the energies are summed moves it.

The ledger records each hash's inputs and the numpy and scipy versions it
was made with, so ``tests/test_identity.py`` recomputes the hashes without
importing the benchmark.  Run from the repository root:

    PYTHONPATH=src python tests/make_identity.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
import sys

import numpy as np
import scipy

import annealsolve as ans
from annealsolve.encoding import BitRange, SupportKind, SupportSpec, enumerate_patterns
from annealsolve.sampler import parse_model_spec

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "data", "identity.json")

MC_OPS = 10
TRAJ_OPS = 70
DRAW_U = [0.0, 1e-300, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 2.0**-53, 1.0]
DRAW_C = [1.0, 1.25, 1.5, 1.75, 2.0]
DRAW_A = [0.5, 0.7, 1.0]
DRAW_BETAS = [0.05, 0.5, 2.0, 10.0, 60.0, 1e3, 1e154, 1e300]


def _text(value) -> str:
    """Exact text of one output: floats as hex, arrays element by element."""
    if isinstance(value, np.ndarray):
        return ",".join(float(v).hex() for v in value.ravel())
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def e_max_hash(models, betas) -> str:
    sha = hashlib.sha256()
    for spec, beta in itertools.product(models, betas):
        sha.update(float(ans.E_max(parse_model_spec(spec), beta)).hex().encode())
    return sha.hexdigest()


def mc_summary_hash(inputs, n_traj: int, n_iter: int) -> str:
    sha = hashlib.sha256()
    for spec, a, b, beta, seed in inputs:
        summary = ans.mc_convergence(
            parse_model_spec(spec), a, b, beta, n_traj=n_traj, n_iter=n_iter, seed=seed
        )
        for field in dataclasses.fields(summary):
            sha.update(f"{field.name}={_text(getattr(summary, field.name))};".encode())
    return sha.hexdigest()


def draws_hash(models, u, c, a_values, betas) -> str:
    sha = hashlib.sha256()
    u_row, c_col = np.array(u)[None, :], np.array(c)[:, None]
    for spec, a, beta in itertools.product(models, a_values, betas):
        sha.update(_text(ans.q_value(parse_model_spec(spec), u_row, c_col, a, beta)).encode())
    return sha.hexdigest()


def solve_traces_hash(inputs, max_iter: int) -> str:
    sha = hashlib.sha256()
    for a0, b0, spec, beta, seed in inputs:
        inst, model = ans.normalize(a0, b0), parse_model_spec(spec)
        trace = ans.solve(inst, model, beta=beta, seed=seed, max_iter=max_iter)
        sha.update(trace.to_csv().encode())
        sha.update(_text(ans.replay_errors(inst, model, beta, trace.eta)).encode())
    return sha.hexdigest()


def scalar_draws_hash(models, u, c, a_values, betas) -> str:
    sha = hashlib.sha256()
    for spec, a, beta in itertools.product(models, a_values, betas):
        model = parse_model_spec(spec)
        for c_k, u_k in itertools.product(c, u):
            sha.update(_text(ans.q_value(model, u_k, c_k, a, beta)).encode())
    return sha.hexdigest()


def qubo_patterns_hash(ranges) -> str:
    sha = hashlib.sha256()
    for (r, p), kind in itertools.product(ranges, SupportKind):
        bits, values = enumerate_patterns(SupportSpec(kind, BitRange(r, p)))
        sha.update(f"{bits.dtype.str}{bits.shape};".encode())
        sha.update(np.ascontiguousarray(bits).tobytes())
        sha.update(_text(values).encode())
    return sha.hexdigest()


def qubo_deviation_hash(inputs) -> str:
    sha = hashlib.sha256()
    for a0, b0, r, p in inputs:
        inst = ans.normalize(a0, b0)
        problem = ans.build_qubo(inst.a, inst.b, BitRange(r, p))
        sha.update(_text(ans.exhaustive_deviation(problem)).encode())
    return sha.hexdigest()


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def hashes(doc: dict) -> dict:
    """The hashes of a ledger's recorded inputs."""
    e, mc, q = doc["e_max"], doc["mc_summary"], doc["boltzmann_draws"]
    tr, sq = doc["solve_traces"], doc["scalar_draws"]
    return {
        "e_max": e_max_hash(e["models"], e["betas"]),
        "mc_summary": mc_summary_hash(mc["inputs"], mc["n_traj"], mc["n_iter"]),
        "boltzmann_draws": draws_hash(q["models"], q["u"], q["c"], q["a"], q["betas"]),
        "solve_traces": solve_traces_hash(tr["inputs"], tr["max_iter"]),
        "scalar_draws": scalar_draws_hash(sq["models"], sq["u"], sq["c"], sq["a"], sq["betas"]),
        "qubo_patterns": qubo_patterns_hash(doc["qubo_patterns"]["ranges"]),
        "qubo_deviation": qubo_deviation_hash(doc["qubo_deviation"]["inputs"]),
    }


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import workloads as wl

    traj = list(itertools.islice(wl.traj_inputs(0), TRAJ_OPS))
    registers = sorted(
        {spec for spec in wl.RATE_MODELS + wl.MC_MODELS if spec.startswith("boltzmann")}
        | {f"boltzmann:{kind}:r={r}:p=1" for kind, rs in wl.TRAJ_REGISTERS.items() for r in rs}
    )
    doc = {
        "versions": versions(),
        "e_max": {"models": list(wl.RATE_MODELS), "betas": list(wl.RATE_BETAS)},
        "mc_summary": {
            "inputs": [list(inp) for inp in itertools.islice(wl.mc_inputs(0), MC_OPS)],
            "n_traj": wl.MC_N_TRAJ,
            "n_iter": wl.MC_N_ITER,
        },
        "boltzmann_draws": {
            "models": registers, "u": DRAW_U, "c": DRAW_C, "a": DRAW_A, "betas": DRAW_BETAS,
        },
        "solve_traces": {
            "inputs": [
                [a0, b0, spec, beta, seed]
                for a0, b0, _, _, spec, beta, _, _, seed in traj
            ],
            "max_iter": wl.TRAJ_STEPS,
        },
        "scalar_draws": {
            "models": ["normal", "a1", "a2", "a3", "a4"],
            "u": DRAW_U, "c": DRAW_C, "a": DRAW_A, "betas": DRAW_BETAS,
        },
        "qubo_patterns": {"ranges": [[r, p] for *_, r, p, _ in traj]},
        "qubo_deviation": {"inputs": [[a0, b0, r, p] for a0, b0, *_, r, p, _ in traj]},
    }
    for name, digest in hashes(doc).items():
        doc[name]["sha256"] = digest
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    with open(LEDGER, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
