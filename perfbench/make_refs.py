"""Regenerate the committed reference tables in perfbench/refs/.

    PYTHONPATH=src python3 perfbench/make_refs.py [rate|mc ...]

rate_curve.json holds E_max for every RATE_MODELS x RATE_BETAS cell at the
package defaults except for doubled Gauss-Legendre nodes (gl_nodes=512), the
node-doubling oracle of E_func(check=True); the benchmark accepts a cell
within RATE_TOL of it.  mc_ensemble_seed0.json holds the McSummary fields
checked for the first MC_REF_OPS ops of the default seed.  Both are
generated once from the code as it stands and not re-generated to make a
change pass.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

import annealsolve as ans
import workloads as wl

RATE_SETTINGS = {"a_steps": 65, "c_steps": 257, "gl_nodes": 512}
MC_REF_OPS = 48


def make_rate() -> None:
    cells = []
    for spec in wl.RATE_MODELS:
        for beta in wl.RATE_BETAS:
            t0 = time.perf_counter()
            value = ans.E_max(wl.model(spec), beta, **RATE_SETTINGS)
            cells.append([spec, beta, value])
            print(f"{spec:32s} beta={beta:<4} E_max={value!r:24} {time.perf_counter() - t0:.2f}s")
    doc = {"settings": RATE_SETTINGS, "tolerance": wl.RATE_TOL, "cells": cells}
    _write("rate_curve.json", doc)


def make_mc() -> None:
    ops = []
    for inp in itertools.islice(wl.mc_inputs(wl.DEFAULT_SEED), MC_REF_OPS):
        summary = wl.mc_op(inp)
        ops.append({"input": list(inp), **wl.mc_record(summary)})
    doc = {"seed": wl.DEFAULT_SEED, "n_traj": wl.MC_N_TRAJ, "n_iter": wl.MC_N_ITER, "ops": ops}
    _write("mc_ensemble_seed0.json", doc)


def _write(name: str, doc: dict) -> None:
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    with open(os.path.join(wl.REFS_DIR, name), "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    targets = sys.argv[1:] or ["rate", "mc"]
    for target in targets:
        {"rate": make_rate, "mc": make_mc}[target]()
