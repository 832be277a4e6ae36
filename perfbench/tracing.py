"""Per-layer tracing for the benchmark's traced run.

Hooks are installed from outside the package: each one rebinds a layer
function at the place its caller looks it up (``annealsolve.solver.q_value``,
``annealsolve.rate.boltzmann_cdf_rows``, ...), so no program file changes.
A span hook records (op, parent span, name, start, end, work count) per call;
a counter hook only adds to a count.  Spans stay in memory and are turned
into per-op metrics and written out at the end of the run.

A hook whose target no longer exists is reported as missing, and every
metric that depends on it is reported as null, never as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

import numpy as np


def _q_elems(args, kwargs, result):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _first_elems(args, kwargs, result):
    return int(np.size(args[0]))


def _trunc_elems(args, kwargs, result):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[4])).size)


def _cdf_cells(args, kwargs, result):
    return int(np.size(args[0]) * np.size(args[1]))


# (span name, module, attribute path, work count of one call or None)
SPAN_HOOKS = (
    ("rate.E_max", "annealsolve", "E_max", None),
    ("experiments.mc_convergence", "annealsolve", "mc_convergence", None),
    ("solver.normalize", "annealsolve", "normalize", None),
    ("solver.solve", "annealsolve", "solve", lambda args, kwargs, res: res.n_steps),
    ("solver.replay_errors", "annealsolve", "replay_errors", None),
    ("solver.to_csv", "annealsolve.solver", "IterationTrace.to_csv", None),
    ("qubo.build_qubo", "annealsolve", "build_qubo", None),
    ("qubo.exhaustive_deviation", "annealsolve", "exhaustive_deviation",
     lambda args, kwargs, res: 1 << args[0].n_bits),
    ("encoding.enumerate_patterns", "annealsolve.qubo", "enumerate_patterns", None),
    ("encoding.enumerate_patterns", "annealsolve.encoding", "enumerate_patterns", None),
    ("rng.uniform_matrix", "annealsolve.rng", "uniform_matrix", None),
    ("rng.uniforms", "annealsolve.rng", "uniforms", None),
    ("sampler.q_value", "annealsolve.solver", "q_value", _q_elems),
    ("sampler.q_value", "annealsolve.experiments", "q_value", _q_elems),
    ("sampler.q_value", "annealsolve.rate", "q_value", _q_elems),
    ("dist.std_normal_quantile", "annealsolve.sampler", "std_normal_quantile", _first_elems),
    ("dist.std_normal_quantile", "annealsolve.rate", "std_normal_quantile", _first_elems),
    ("dist.trunc_normal_quantile_arrays", "annealsolve.sampler",
     "trunc_normal_quantile_arrays", _trunc_elems),
    ("dist.trunc_normal_quantile_arrays", "annealsolve.rate",
     "trunc_normal_quantile_arrays", _trunc_elems),
    ("dist.boltzmann_cdf_rows", "annealsolve.sampler", "boltzmann_cdf_rows", _cdf_cells),
    ("dist.boltzmann_cdf_rows", "annealsolve.rate", "boltzmann_cdf_rows", _cdf_cells),
)

# (count name, module, attribute path, amount added per call)
COUNTER_HOOKS = (
    ("rng.streams", "annealsolve.rng", "generator", lambda args, kwargs, res: 1),
    ("rate.clamped_cells", "annealsolve.rate", "_E_max_flag",
     lambda args, kwargs, res: int(res[1])),
)

ROOT_SPAN = "bench.op"
LAYERS = ("rng", "sampler", "dist", "rate", "solver", "experiments", "qubo", "encoding")

# metrics computed from spans of more than their own name
_DERIVED_DEPS = {
    "rate.kernel_elems_per_cell": (
        "rate.E_max", "dist.std_normal_quantile", "dist.trunc_normal_quantile_arrays",
    ),
    "rate.cdf_cells_per_cell": ("rate.E_max", "dist.boltzmann_cdf_rows"),
    "experiments.traj_steps": ("experiments.mc_convergence", "sampler.q_value"),
    "solver.steps": ("solver.solve",),
    "qubo.assignments": ("qubo.exhaustive_deviation",),
}


def _resolve(module: str, path: str):
    """(owner object, attribute name) for module + dotted path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the hooks, records spans and counts, and removes the hooks."""

    def __init__(self):
        self.names: list[str] = []
        # one tuple per span: (op, parent index, name index, t0, t1, work)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[tuple[str, str]] = []  # (metric name, target)
        self._stack = [-1]
        self._op = -1
        self._undo: list = []

    def install(self) -> None:
        for name, module, path, work in SPAN_HOOKS:
            self._hook(name, module, path, self._span_wrapper(name, work))
        for name, module, path, amount in COUNTER_HOOKS:
            self._hook(name, module, path, lambda fn, n=name, f=amount: self._counter_wrapper(fn, n, f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _hook(self, name, module, path, make_wrapper) -> None:
        target = _resolve(module, path)
        if target is None:
            self.missing.append((name, f"{module}.{path}"))
            return
        owner, attr = target
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, name, work):
        index = self._name_index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                slot = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(slot)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[slot] = (self._op, parent, index, t0, t1, 0)
                if work is not None:
                    spans[slot] = (self._op, parent, index, t0, t1, work(args, kwargs, result))
                return result

            return wrapper

        return make

    def _counter_wrapper(self, fn, name, amount):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_index: int, fn, arg):
        """Run fn(arg) as op op_index under the root span."""
        self._op = op_index
        return self._span_wrapper(ROOT_SPAN, None)(fn)(arg)

    def metrics(self, n_ops: int) -> dict[str, float | None]:
        """Per-op means of every span and count, and self time per layer.

        A span's self time is its duration minus the durations of its
        direct children, so the self times of all layers plus the root
        span's own self time add up to the root spans' total.
        """
        n_ops = max(n_ops, 1)
        rows = [s for s in self.spans if s is not None]
        parent = np.array([s[1] for s in rows], dtype=np.int64)
        name = np.array([s[2] for s in rows], dtype=np.int64)
        dur = np.array([s[4] - s[3] for s in rows])
        work = np.array([s[5] for s in rows], dtype=np.int64)
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        out: dict[str, float | None] = {}
        for index, span in enumerate(self.names):
            sel = name == index
            out[f"{span}.calls"] = int(sel.sum()) / n_ops
            out[f"{span}.busy_s"] = float(dur[sel].sum()) / n_ops
            out[f"{span}.elems"] = int(work[sel].sum()) / n_ops
        for layer in LAYERS + ("bench",):
            sel = np.isin(name, [i for i, s in enumerate(self.names) if s.split(".")[0] == layer])
            out[f"{layer}.self_s"] = float(self_time[sel].sum()) / n_ops
        out["bench.op_s"] = out.get(f"{ROOT_SPAN}.busy_s", 0.0)

        ids = {span: index for index, span in enumerate(self.names)}

        def under(child_names, parent_span):
            kids = [ids[s] for s in child_names if s in ids]
            return int(work[np.isin(name, kids) & (parent_name == ids.get(parent_span, -2))].sum())

        cells = max(int((name == ids.get("rate.E_max", -2)).sum()), 1)
        out["rate.kernel_elems_per_cell"] = under(
            ("dist.std_normal_quantile", "dist.trunc_normal_quantile_arrays"), "rate.E_max"
        ) / cells
        out["rate.cdf_cells_per_cell"] = under(("dist.boltzmann_cdf_rows",), "rate.E_max") / cells
        out["experiments.traj_steps"] = under(("sampler.q_value",), "experiments.mc_convergence") / n_ops
        out["solver.steps"] = out["solver.solve.elems"]
        out["qubo.assignments"] = out["qubo.exhaustive_deviation.elems"]
        for count_name, *_ in COUNTER_HOOKS:
            out[count_name] = self.counts[count_name] / n_ops

        missing = {m for m, _ in self.missing}
        for metric in list(out):
            deps = _DERIVED_DEPS.get(metric, ())
            stem = metric.rsplit(".", 1)[0]
            if stem in missing or metric in missing or missing & set(deps) or (
                missing and metric.endswith(".self_s")
            ):
                out[metric] = None
        return out

    def dump(self, path: str) -> None:
        """Write the raw spans, column-wise, with their name table."""
        rows = [s for s in self.spans if s is not None]
        doc = {
            "names": self.names,
            "columns": ["op", "parent", "name", "t0", "t1", "work"],
            "spans": [list(col) for col in zip(*rows)] if rows else [],
            "counts": dict(self.counts),
            "missing": [target for _, target in self.missing],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
