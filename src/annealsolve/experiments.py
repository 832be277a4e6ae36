"""Monte Carlo and enumeration studies of the convergence behavior.

Almost-sure limits are not directly observable; the desk-scale surrogates
used here are median-path statistics over many independent seeded
trajectories (for the rate window and divergence claims of the normal model)
and exact Kolmogorov-Smirnov distances between finite-register Boltzmann
laws and their wide-register normal limits.

The Monte Carlo ensemble is tiled here, and only here: each
``rng.uniform_matrix`` call draws one Philox block (``rng.BLOCK_STEPS``
steps) for one slice of at most ``_SLICE`` trajectories.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from . import rate, rng
from .dist import boltzmann_cdf_rows, trunc_normal_cdf
from .encoding import BitRange, SupportKind, SupportSpec, check_enumerable, enumerate_support
from .sampler import CorrectionModel, NormalModel, TruncNormalModel, check_finite_positive, model_id
# imported only so the benchmark's trace hooks can rebind it here
from .sampler import q_value  # noqa: F401
from .solver import _advance, check_equation, normalize

EULER_GAMMA = float(np.euler_gamma)
# closed form of E ln|xi| for a standard normal xi
LOG_ABS_NORMAL_MEAN = -(EULER_GAMMA + math.log(2.0)) / 2.0

DIVERGENCE_THRESHOLD = 1e6
# trajectories past this magnitude stop updating; keeps extreme-beta runs
# finite without touching the divergence classification above
_FREEZE_AT = 1e12

# trajectories per slice of the ensemble, and the one tile rule of its
# Philox stream: a slice draws one block of its streams per uniform_matrix
# call.  Two slices on two threads against one serial slice, a2 at 40 steps
# (2-core Xeon, best of 7, two runs): slower at 8192 trajectories (74-100
# against 45-54 ms) and 16384 (105-142 against 90-115 ms), faster at 24576
# (130-166 against 152-204 ms), 32768 (155-205 against 259-276 ms) and
# 50 000 (214-238 against 309-345 ms).  Narrower tiles inside each draw
# lose too: two threads drawing 25 000-stream blocks (50 000 x 40 in all,
# best of 6, two runs) took 420-476 ms on 2048-stream tiles, 225-291 on
# 4096, 149-191 on 8192, 110-113 on 16384 and 85 on 32768, against 86-209
# ms serially.  Below the crossover the threads queue for the GIL between
# many short numpy calls.  With 2^15, every slice of a pooled run holds
# more than 2^14 trajectories.
_SLICE = 1 << 15


class McOutcome(enum.Enum):
    TO_ZERO = "to-zero"
    TO_INFINITY = "to-infinity"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class McSummary:
    """Ensemble statistics of seeded solver trajectories."""

    n_traj: int
    n_iter: int
    s: float
    l0_zero: bool  # whether the first step pinned its exponent to zero
    median_log_error: np.ndarray  # per step, including step 0
    slope: float
    floor_step: int | None  # first step whose median is -inf (the float floor), if any
    ceiling_step: int | None  # first step whose median is above ln _FREEZE_AT, if any
    diverged_fraction: float
    s_scaled_outcome: McOutcome


def _lsq_slope(median_log_error: np.ndarray) -> float:
    """Least-squares slope of the median log error over the last half of steps."""
    n = median_log_error.size - 1
    steps = np.arange(n // 2, n + 1)
    y = median_log_error[steps]
    # at the float floor (-inf) and above the freeze ceiling the median has stopped
    kept = np.isfinite(y) & (y <= math.log(_FREEZE_AT))
    if kept.sum() < 2:
        return float("nan")
    return float(np.polyfit(steps[kept], y[kept], 1)[0])


def _summarize(
    median_log: np.ndarray, diverged: np.ndarray, s: float, l0_zero: bool
) -> McSummary:
    """McSummary of an ensemble from its per-step medians and divergence flags."""
    n_iter = median_log.size - 1
    # median commutes with log, so this is ln median |s^n error|; with b = 0
    # the start x = 0 is already exact (its log error is -inf) and the error
    # stays 0
    if median_log[0] == -math.inf:
        shift = -math.inf
    else:
        shift = median_log[-1] + n_iter * math.log(s) - median_log[0]
    if shift < math.log(1e-6):
        outcome = McOutcome.TO_ZERO
    elif shift > math.log(1e6):
        outcome = McOutcome.TO_INFINITY
    else:
        outcome = McOutcome.INCONCLUSIVE
    floored = np.flatnonzero(np.isneginf(median_log))
    ceiled = np.flatnonzero(median_log > math.log(_FREEZE_AT))
    return McSummary(
        n_traj=diverged.size,
        n_iter=n_iter,
        s=s,
        l0_zero=l0_zero,
        median_log_error=median_log,
        slope=_lsq_slope(median_log),
        floor_step=int(floored[0]) if floored.size else None,
        ceiling_step=int(ceiled[0]) if ceiled.size else None,
        diverged_fraction=float(diverged.mean()),
        s_scaled_outcome=outcome,
    )


@contextmanager
def _pool_map(n_units: int):
    """Yield map, or a thread pool's map with one worker per unit up to the usable CPUs."""
    workers = min(n_units, rate._usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield pool.map
    else:
        yield map


def mc_convergence(
    model: CorrectionModel,
    a: float,
    b: float,
    beta: float,
    s: float = 1.0,
    n_traj: int = 1000,
    n_iter: int = 40,
    seed: int = 0,
) -> McSummary:
    """Run n_traj independent trajectories and classify s^n-scaled errors.

    Trajectory t draws its uniforms from stream (seed, t).  The normal model
    runs with the zero-exponent first step of its threshold analysis; all
    other models classify the initial residual like any other.  The outcome
    is to-zero / to-infinity when the final median |s^n (x_n - b/a)| is below
    1e-6 / above 1e+6 times the initial error, inconclusive otherwise.

    The ensemble is cut into slices of about _SLICE trajectories, which run
    on a thread pool with one worker per slice, up to the usable CPUs, or
    serially on one.  A worker takes its slice through one Philox block
    (rng.BLOCK_STEPS steps) at a time, one step after another, drawing the
    block's uniforms for the slice alone, and skips the draw when every
    trajectory of the slice is exact or frozen; the main thread then takes
    each step's median over the whole ensemble.  Every step is elementwise per
    trajectory, so the values do not depend on the slice or worker count.
    """
    if not (math.isfinite(s) and s >= 1.0):
        raise ValueError(f"s must be finite and >= 1, got {s}")
    if n_traj < 1 or n_iter < 1:
        raise ValueError(f"n_traj and n_iter must be >= 1, got {n_traj} and {n_iter}")
    check_finite_positive("beta", beta)
    rng.check_key(seed, n_traj - 1)  # the last stream id, before any thread starts
    inst = normalize(a, b)
    l0_zero = isinstance(model, NormalModel)
    ba = inst.solution

    n_slices = -(-n_traj // _SLICE)
    edges = [i * n_traj // n_slices for i in range(n_slices + 1)]
    x = np.zeros(n_traj)
    diverged = np.zeros(n_traj, dtype=bool)
    frozen = np.zeros(n_traj, dtype=bool)
    log_error = np.empty((rng.BLOCK_STEPS, n_traj))  # ln|b/a - x| after each step of a block
    median_log = np.empty(n_iter + 1)
    with np.errstate(divide="ignore"):
        np.log(np.abs(ba - x), out=log_error[0])
    median_log[0] = np.median(log_error[0], overwrite_input=True)

    def advance_slice(i: int, n0: int) -> None:
        """One Philox block of steps, from step n0, for the trajectories in slice i."""
        t = slice(edges[i], edges[i + 1])
        steps = range(n0, min(n0 + rng.BLOCK_STEPS, n_iter))
        xs = x[t]
        for k, n in enumerate(steps):
            active = ~frozen[t] & (inst.b - inst.a * xs != 0.0)
            if active.any():
                # the active set only shrinks (exact and frozen stay so): draw at k = 0 or never
                if k == 0:
                    u_block = rng.uniform_matrix(seed, range(t.start, t.stop), steps)
                # a view where every trajectory moves, so nothing is gathered
                sel = slice(None) if active.all() else active
                first = l0_zero and n == 0
                # the zero-exponent first step's c = 1/|res| overflows to inf for a
                # residual below 2^-1024, which the quantile takes (q = 1/(a c) + ...),
                # and an iterate that overflows is frozen below, so the warning is
                # noise; errstate is per thread, so it is set here, in the worker
                with np.errstate(over="ignore"):
                    xs[sel] = _advance(xs[sel], inst, model, beta, u_block[k][sel], first)[0]
                abs_x = np.abs(xs)
                diverged[t] |= abs_x > DIVERGENCE_THRESHOLD
                frozen[t] |= abs_x > _FREEZE_AT
            with np.errstate(divide="ignore"):
                np.log(np.abs(ba - xs), out=log_error[k, t])

    with _pool_map(n_slices) as map_slices:
        for n0 in range(0, n_iter, rng.BLOCK_STEPS):
            list(map_slices(lambda i: advance_slice(i, n0), range(n_slices)))
            for k in range(min(rng.BLOCK_STEPS, n_iter - n0)):
                median_log[n0 + k + 1] = np.median(log_error[k], overwrite_input=True)

    return _summarize(median_log, diverged, s, l0_zero)


def log_abs_normal_mean_check(n_samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of E ln|xi|, xi standard normal.

    The closed form is -(gamma + ln 2)/2 ~ -0.63518; the estimate with 10^6
    samples lands within a few thousandths.
    """
    if n_samples < 100_000:
        raise ValueError(f"need at least 1e5 samples, got {n_samples}")
    xi = rng.normals(seed, n_samples)
    return float(np.mean(np.log(np.abs(xi))))


def ks_discrete_vs_continuous(cdf, continuous_cdf: np.ndarray) -> float:
    """Exact sup distance between a discrete CDF and a continuous one.

    Both are given at the support points.  The supremum over the whole line
    is attained there or at their left limits (the previous entry of cdf, 0
    before the first), so no sampling is involved.
    """
    fd = np.asarray(cdf, dtype=float)
    left = np.concatenate(([0.0], fd[:-1]))
    return float(
        max(np.abs(fd - continuous_cdf).max(), np.abs(left - continuous_cdf).max())
    )


@dataclass(frozen=True)
class LimitCheckRow:
    range: BitRange
    n_points: int
    ks: float


def limit_check(
    a: float,
    b: float,
    beta: float,
    ranges,
    limit: CorrectionModel = NormalModel(),
) -> list[LimitCheckRow]:
    """KS distance of exact Boltzmann laws to their wide-register limit law.

    With a NormalModel limit, each bit range builds the Boltzmann law over the
    signed symmetric grid and compares it to N(b/a, 1/(2 a^2 beta^2)); with a
    TruncNormalModel(d1, d2), the range's width is the number of bits of the
    affine grid on [d1, d2) and the limit is that normal truncated to it.
    Each law's CDF is the target b's ``boltzmann_cdf_rows`` row.
    """
    check_equation(a, b)
    check_finite_positive("beta", beta)
    mu = b / a
    sigma = 1.0 / (math.sqrt(2.0) * abs(a) * beta)
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError(
            f"the limit law N(b/a, 1/(2 a^2 beta^2)) overflows at a={a}, b={b}, beta={beta}"
        )
    if sigma == 0.0:
        # the exact KS distance needs a continuous limit law
        raise ValueError(
            f"the limit law N(b/a, 1/(2 a^2 beta^2)) has sigma 0 at a={a}, b={b}, beta={beta}"
        )
    ranges = list(ranges)
    if isinstance(limit, NormalModel):
        specs = [SupportSpec(SupportKind.SIGNED_SYMMETRIC, rg) for rg in ranges]
    elif isinstance(limit, TruncNormalModel):
        d1, d2 = limit.d1, limit.d2
        if not (math.isfinite(d1) and math.isfinite(d2)):
            raise ValueError(f"interval endpoints must be finite, got ({d1}, {d2})")
        if d2 - d1 == math.inf:
            raise ValueError(f"the interval [{d1}, {d2}] is too wide: its width d2 - d1 overflows")
        # the grid k / 2^width on [0, 1), mapped affinely onto [d1, d2)
        specs = [SupportSpec(SupportKind.POSITIVE, BitRange(-rg.width, 0)) for rg in ranges]
    else:
        raise ValueError(f"the limit law must be normal or truncated normal, got {model_id(limit)}")
    if not specs:
        return []
    # the widest grid is refused before any row is computed
    widest = max(specs, key=lambda spec: spec.n_bits)
    check_enumerable(widest)
    if isinstance(limit, TruncNormalModel):
        # each range's grid is every 2^(widest - width)-th point of the widest, bit for
        # bit, so the widest alone decides whether any has equal neighbours
        grid = d1 + (d2 - d1) * enumerate_support(widest)
        if not np.all(grid[1:] > grid[:-1]):
            raise ValueError(
                f"the interval [{d1}, {d2}] is too narrow for a {widest.n_bits}-bit grid: "
                "neighbouring grid points round to one double"
            )

    rows = []
    for rg, spec in zip(ranges, specs):
        if isinstance(limit, NormalModel):
            support = enumerate_support(spec)
            # a point past the float range of sigmas has ndtr(+-inf), exact
            with np.errstate(over="ignore"):
                limit_cdf = sc.ndtr((support - mu) / sigma)
        else:
            support = grid[:: grid.size >> spec.n_bits]
            with np.errstate(invalid="ignore"):
                limit_cdf = trunc_normal_cdf(support, mu, sigma, d1, d2)
            if not np.all(np.isfinite(limit_cdf)):
                # both tail masses round to one double: the CDF is 0/0
                raise ValueError(
                    f"the truncated limit law on [{d1}, {d2}] is too narrow to resolve: "
                    "its two tail masses are equal in double precision"
                )
        cdf = boltzmann_cdf_rows(support, b, a, beta)
        rows.append(
            LimitCheckRow(
                range=rg,
                n_points=support.size,
                ks=ks_discrete_vs_continuous(cdf, limit_cdf),
            )
        )
    return rows
