"""Convergence-rate functionals of the correction models.

For a model with correction quantile q, the worst-case per-step error
multiplier at uniform quantile u is

    r(u, a, beta) = max over c in [1, 2] of |1 - c * a * q(u, c, a, beta)|

(the closed endpoint c = 2 is included even though the solver's normalized
residual stays in [1, 2)).  Its log-mean E(a, beta) = integral of ln r over
u in [0, 1] certifies almost-sure convergence to b/a whenever it is
negative, and E_max(beta) = max over a in [1/2, 1] of E(a, beta) is the
pessimistic headline curve per model.

Which kind of model is at hand is decided in two places.  _E_grid decides
how E is integrated: the normal model has the closed form
E = -ln(beta) - gamma/2 for every a, because r(u) = sqrt(2) |Phi^-1(u)| / beta;
Boltzmann models are integrated exactly in u, piece by piece; other models
take the batched quadrature.  _r_profile_continuous decides whether the best
grid c is refined: not for the normal model, whose maximand is linear in c,
nor for Boltzmann models, whose quantiles are piecewise constant in c.

Continuous models use a dense c-grid plus golden-section refinement and
Gauss-Legendre quadrature in u.  They evaluate r through the model's own
vectorised kernel, ``model.quantile``, the one the sampler uses; any
callable ``q(u, c, a, beta)`` can stand in for a model, and it must
broadcast in a as it does in u and c.  E_max evaluates its whole a-grid in
one batch: the c-grid pass runs in cache-sized (a, c, u) tiles, and the
golden sections in c and around quadrature dips run on stacked arrays of
every grid a.  Each log-sum stays a 1-D dot per a, so every value is the
one a one-a-at-a-time evaluation gives, bit for bit.  The golden section
over a around the best grid cell is sequential.

For Boltzmann models r(u) is constant between the CDF levels of all grid
laws.  Over the sorted piece midpoints, each grid law's quantile index is a
staircase whose steps are found by one search of all CDF levels among the
midpoints, not one search per law.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import boltzmann_cdf_rows
from .sampler import (
    _MAX_CELLS, BoltzmannModel, CorrectionModel, NormalModel, check_finite_positive, model_id,
)

# imported only so the benchmark's trace hooks can rebind them here
from .dist import std_normal_quantile, trunc_normal_quantile_arrays  # noqa: F401
from .sampler import q_value  # noqa: F401

# r values below this floor are clamped before the log; the clamp is flagged
# so a sentinel like the exact-sampler's r = 0 stays visible
LOG_FLOOR = 1e-300

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GS_ITERS_C = 24
_GS_ITERS_DIP = 22
_GS_ITERS_A = 14

RATE_CSV_COLUMNS = ("model_id", "beta", "a", "kind", "value", "clamped")


class QuadratureDisagreement(RuntimeError):
    """Raised by the opt-in node-doubling check when quadratures disagree."""


@dataclass(frozen=True)
class RatePoint:
    """One cell of a rate table: E or E_max of a model at (a, beta)."""

    model_id: str
    beta: float
    a: float | None
    kind: str  # "E" or "Emax"
    value: float
    clamped: bool


def _check_inputs(*, beta, a=None, a_steps=None, c_steps, gl_nodes=None) -> None:
    """Reject rate inputs outside the contract; None marks an unused input.

    Called once per public call, never per cell.
    """
    for name, value in (("a", a), ("beta", beta)):
        if value is not None:
            check_finite_positive(name, value)
    counts = (("a_steps", a_steps, 1), ("c_steps", c_steps, 1), ("gl_nodes", gl_nodes, 2))
    for name, value, least in counts:
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


@lru_cache(maxsize=16)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped onto [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _maximand(q, u, c, a, beta) -> np.ndarray:
    """|1 - c a q(u, c, a, beta)|, formed in place over the product array."""
    f = (c * a) * q(u, c, a, beta)
    np.subtract(1.0, f, out=f)
    return np.abs(f, out=f)


def _golden_bracket(f, lo, hi, iters: int):
    """Golden-section search for the maximum of f inside [lo, hi], elementwise.

    f maps the stacked probes, shape (2,) + lo.shape, to their values; both
    probes are evaluated at every step.  Returns the final (lo, hi) and the
    largest probe value seen at each element.
    """
    seen = -np.inf
    for _ in range(iters):
        x = np.stack((hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)))
        f1, f2 = f(x)
        seen = np.maximum(seen, np.maximum(f1, f2))
        go_right = f1 < f2
        lo = np.where(go_right, x[0], lo)
        hi = np.where(go_right, hi, x[1])
    return lo, hi, seen


def _r_profile_continuous(
    model, u: np.ndarray, a, beta: float, c_steps: int, refine: bool = True
) -> np.ndarray:
    """r(u) at every node: dense c-grid pass, then per-node golden section.

    a is a scalar or has shape (m, 1) and u has shape (n,) or (m, n); r has
    their broadcast shape, row i using coefficient a[i].  The grid pass
    runs in (rows, c, nodes) tiles of about _MAX_CELLS cells that span the
    whole c axis, so argmax still picks each node's first maximum, and the
    kernel sees one coefficient per row, so work that depends on (c, a)
    alone runs once per grid point.  The golden section runs on all nodes
    at once, both probes of an iteration in one kernel call; refine=False
    keeps the grid pass alone.
    """
    q = getattr(model, "quantile", model)
    c = np.linspace(1.0, 2.0, c_steps)
    shape = np.broadcast_shapes(np.shape(a), np.shape(u))
    u_rows = np.broadcast_to(u, shape).reshape(-1, shape[-1])
    a_rows = None if np.ndim(a) == 0 else np.reshape(a, (-1, 1, 1))
    m, n = u_rows.shape
    r = np.empty((m, n))
    best = np.empty((m, n), dtype=np.intp)
    # whole rows per tile while a row fits, else equal column tiles per row.
    # The sampler's tile size serves here too: the grid pass of one a1 or a4
    # cell (65 a x 256 u x 257 c, beta=2, 2-core Xeon) took at best 115, 91,
    # 81, 77, 80, 81 and 104 ms at 2^12, 2^13, ..., 2^18 cells per tile
    per_row = -(-(c_steps * n) // _MAX_CELLS)
    cols = -(-n // per_row)
    rows = max(1, _MAX_CELLS // (c_steps * n))
    for i in range(0, m, rows):
        a_tile = a if a_rows is None else a_rows[i:i + rows]
        for j in range(0, n, cols):
            f = _maximand(q, u_rows[i:i + rows, None, j:j + cols], c[:, None], a_tile, beta)
            k = np.argmax(f, axis=1)
            best[i:i + rows, j:j + cols] = k
            r[i:i + rows, j:j + cols] = np.take_along_axis(f, k[:, None], axis=1)[:, 0]
    r = r.reshape(shape)
    # the normal maximand |1 - c a (1/(a c) + s)| = c a |s| is linear in c,
    # so the grid endpoint c = 2 is already the maximum; Boltzmann quantiles
    # are piecewise constant in c, so the dense grid alone is used for them
    if refine and c_steps > 2 and not isinstance(model, (NormalModel, BoltzmannModel)):
        h = 1.0 / (c_steps - 1)
        c_best = c[best.reshape(shape)]
        lo = np.maximum(1.0, c_best - h)
        hi = np.minimum(2.0, c_best + h)
        _, _, seen = _golden_bracket(
            lambda x: _maximand(q, u, x, a, beta), lo, hi, _GS_ITERS_C
        )
        r = np.maximum(r, seen)
    return r


def r_func(
    model: CorrectionModel, u: float, a: float, beta: float, c_steps: int = 257
) -> float:
    """Worst multiplier |1 - c*a*q| over c in [1, 2] at one quantile u.

    The dense c-grid, plus golden-section refinement around the best grid
    point where the model needs it (_r_profile_continuous decides); the
    maximand need not be concave, which is why the grid stays dense.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    _check_inputs(a=a, beta=beta, c_steps=c_steps)
    return float(_r_profile_continuous(model, np.array([u]), a, beta, c_steps)[0])


def _boltzmann_pieces(
    model: BoltzmannModel, a: float, beta: float, c_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """(length, r) of each u-piece between the CDF levels of all grid laws."""
    support = model.support()
    c = np.linspace(1.0, 2.0, c_steps)
    cdf = boltzmann_cdf_rows(support, 1.0 / c, a, beta)
    inner = cdf[:, :-1]
    levels = np.unique(np.concatenate([inner.ravel(), (0.0, 1.0)]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    mids = 0.5 * (levels[1:] + levels[:-1])
    lengths = np.diff(levels)
    # row j's quantile index at mids[i] is #{k : cdf[j, k] < mids[i]} (the
    # last level is 1 and never counts); rows are nondecreasing, so over the
    # sorted mids support index k fills the run ends[j, k-1] <= i < ends[j, k]
    ends = np.searchsorted(mids, inner, side="right")
    counts = np.diff(ends, prepend=0, append=mids.size, axis=1)
    vals = np.abs(1.0 - (c[:, None] * a) * support)
    r = np.zeros(mids.size)
    for j in range(c_steps):
        np.maximum(r, np.repeat(vals[j], counts[j]), out=r)
    return lengths, r


def _E_boltzmann(model: BoltzmannModel, a: float, beta: float, c_steps: int) -> tuple[float, bool]:
    """Exact E: r(u) is constant on each piece."""
    lengths, r = _boltzmann_pieces(model, a, beta, c_steps)
    clamped = bool(np.any(r < LOG_FLOOR))
    return float(lengths @ np.log(np.maximum(r, LOG_FLOOR))), clamped


# relative dip depth below which ln r is treated as (near-)singular
_DIP_RATIO = 0.05


def _E_continuous(
    model, a: np.ndarray, beta: float, c_steps: int, gl_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E, clamped) at every coefficient of a, which has shape (m, 1).

    Each log-sum is a 1-D dot per row, so every value is the one a
    separate evaluation at that coefficient gives, bit for bit.
    """
    u, w = _gl_rule(gl_nodes)
    r = _r_profile_continuous(model, u, a, beta, c_steps)
    log_r = np.log(np.maximum(r, LOG_FLOOR))
    values = np.array([float(w @ row) for row in log_r])
    clamped = np.any(r < LOG_FLOOR, axis=1)
    # r nearly vanishes at an interior point, so ln r has a spike there;
    # split the quadrature at the dip, where Gauss-Legendre absorbs a log
    # endpoint singularity far better than an interior one
    dip = np.flatnonzero(r.min(axis=1) < _DIP_RATIO * r.max(axis=1))
    if dip.size:
        k = np.argmin(r[dip], axis=1)
        lo = np.where(k > 0, u[k - 1], 0.0)
        hi = np.where(k < u.size - 1, u[np.minimum(k + 1, u.size - 1)], 1.0)
        # golden section for the minimum of r in [lo, hi]; the grid-only
        # profile is accurate enough to place the split point
        lo, hi, _ = _golden_bracket(
            lambda x: -_r_profile_continuous(
                model, x.T, a[dip], beta, c_steps, refine=False
            ).T,
            lo, hi, _GS_ITERS_DIP,
        )
        split = np.minimum(np.maximum(0.5 * (lo + hi), 1e-9), 1.0 - 1e-9)
        half_u, half_w = _gl_rule(gl_nodes // 2)
        # both halves of every split in one profile, as (row, half, node)
        left = np.stack((np.zeros_like(split), split), axis=1)[:, :, None]
        width = np.stack((split, 1.0 - split), axis=1)[:, :, None]
        nodes = left + width * half_u
        ru = _r_profile_continuous(
            model, nodes.reshape(dip.size, -1), a[dip], beta, c_steps
        ).reshape(nodes.shape)
        log_ru = np.log(np.maximum(ru, LOG_FLOOR))
        for j, i in enumerate(dip):
            total = 0.0
            for half in range(2):
                total += float(width[j, half, 0]) * float(half_w @ log_ru[j, half])
            values[i] = total
        clamped[dip] = np.any(ru < LOG_FLOOR, axis=(1, 2))
    return values, clamped


def _E_grid(
    model, a: np.ndarray, beta: float, c_steps: int, gl_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(E, clamped) at every coefficient of the 1-D array a.

    The one place that decides how E is integrated: the normal model's E is
    the closed form -ln(beta) - gamma/2 at every a; Boltzmann models are
    integrated exactly in u, one coefficient at a time, and ignore gl_nodes;
    other models take all coefficients in one quadrature batch.
    """
    if isinstance(model, NormalModel):
        return np.full(a.size, -(math.log(beta) + np.euler_gamma / 2.0)), np.zeros(a.size, bool)
    if isinstance(model, BoltzmannModel):
        values, flags = zip(*(_E_boltzmann(model, float(x), beta, c_steps) for x in a))
        return np.array(values), np.array(flags)
    return _E_continuous(model, a[:, None], beta, c_steps, gl_nodes)


def E_func(
    model: CorrectionModel, a: float, beta: float,
    c_steps: int = 257, gl_nodes: int = 256, check: bool = False,
) -> float:
    """Mean log multiplier E(a, beta) = integral of ln r(u, a, beta) du.

    How E is integrated depends on the model and is decided in _E_grid: the
    normal model's E is the closed form, Boltzmann models are exact in u,
    and other models use a quadrature.  check=True re-evaluates with doubled
    quadrature nodes and raises if the two values differ by more than 1e-4;
    the closed form and the exact Boltzmann values do not move.
    """
    _check_inputs(a=a, beta=beta, c_steps=c_steps, gl_nodes=gl_nodes)
    value = float(_E_grid(model, np.array([a]), beta, c_steps, gl_nodes)[0][0])
    if check:
        value2 = float(_E_grid(model, np.array([a]), beta, c_steps, 2 * gl_nodes)[0][0])
        if abs(value - value2) > 1e-4 * max(1.0, abs(value2)):
            raise QuadratureDisagreement(
                f"E({a}, {beta}) moved from {value} to {value2} when doubling "
                f"the {gl_nodes}-node quadrature"
            )
    return value


def _E_max_flag(
    model, beta: float, a_steps: int, c_steps: int, gl_nodes: int
) -> tuple[float, bool]:
    a_grid = np.linspace(0.5, 1.0, a_steps)
    values, flags = _E_grid(model, a_grid, beta, c_steps, gl_nodes)
    clamped = bool(flags.any())

    def evaluate(a: float) -> float:
        nonlocal clamped
        value, flag = _E_grid(model, np.array([a]), beta, c_steps, gl_nodes)
        clamped |= bool(flag[0])
        return float(value[0])

    k = int(np.argmax(values))
    best = float(values[k])
    # local refinement inside the bracketing grid cells, one a at a time
    lo = float(a_grid[max(0, k - 1)])
    hi = float(a_grid[min(a_steps - 1, k + 1)])
    if hi > lo:
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = evaluate(x1), evaluate(x2)
        for _ in range(_GS_ITERS_A):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = evaluate(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = evaluate(x1)
        best = max(best, f1, f2)
    return best, clamped


def E_max(
    model: CorrectionModel, beta: float,
    a_steps: int = 65, c_steps: int = 257, gl_nodes: int = 256,
) -> float:
    """Worst E over the coefficient range: max of E(a, beta) for a in [1/2, 1].

    Dense grid plus golden-section refinement around the best cell; a
    negative value certifies convergence for every grid coefficient.
    """
    _check_inputs(beta=beta, a_steps=a_steps, c_steps=c_steps, gl_nodes=gl_nodes)
    return _E_max_flag(model, beta, a_steps, c_steps, gl_nodes)[0]


def rate_curve(
    models, betas,
    a_steps: int = 65, c_steps: int = 257, gl_nodes: int = 256, threads: int = 1,
) -> list[RatePoint]:
    """E_max per (model, beta), as a long-format table sorted by (model_id, beta).

    Cells are independent; with threads > 1 they are evaluated in a pool,
    and the output order does not depend on the thread count.
    """
    models = list(models)
    if not models:
        raise ValueError("model list is empty")
    betas = [float(b) for b in betas]
    for beta in betas:
        _check_inputs(beta=beta, a_steps=a_steps, c_steps=c_steps, gl_nodes=gl_nodes)

    def ident(model) -> str:
        if callable(model) and not isinstance(model, CorrectionModel):
            return getattr(model, "__name__", "custom")
        return model_id(model)

    cells = sorted(
        ((ident(m), m, beta) for m in models for beta in betas),
        key=lambda cell: (cell[0], cell[2]),
    )

    def work(cell) -> RatePoint:
        mid, model, beta = cell
        value, clamped = _E_max_flag(model, beta, a_steps, c_steps, gl_nodes)
        return RatePoint(model_id=mid, beta=beta, a=None, kind="Emax", value=value, clamped=clamped)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, cells))
    return [work(cell) for cell in cells]


def rate_points_to_csv(points) -> str:
    """Serialize RatePoints; the a column is empty for Emax rows."""
    lines = [",".join(RATE_CSV_COLUMNS)]
    for pt in points:
        a_txt = "" if pt.a is None else repr(float(pt.a))
        lines.append(
            f"{pt.model_id},{float(pt.beta)!r},{a_txt},{pt.kind},"
            f"{float(pt.value)!r},{int(pt.clamped)}"
        )
    return "\n".join(lines) + "\n"
