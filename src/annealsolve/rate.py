"""Convergence-rate functionals of the correction models.

For a model with correction quantile q, the worst-case per-step error
multiplier at uniform quantile u is

    r(u, a, beta) = max over c in [1, 2] of |1 - c * a * q(u, c, a, beta)|

(the closed endpoint c = 2 is included even though the solver's normalized
residual stays in [1, 2)).  Its log-mean E(a, beta) = integral of ln r over
u in [0, 1] certifies almost-sure convergence to b/a whenever it is
negative, and E_max(beta) = max over a in [1/2, 1] of E(a, beta) is the
pessimistic headline curve per model.

Which kind of model is at hand is decided in three places.  _E_grid
decides how E is integrated: the normal model has the closed form
E = -ln(beta) - gamma/2 for every a, because r(u) = sqrt(2) |Phi^-1(u)| / beta;
Boltzmann models are integrated exactly in u, piece by piece; other models
take the batched quadrature.  r_func decides how r is taken at one u: the
plain dense-grid max for the normal law, whose maximand is linear in c, and
for Boltzmann laws, whose quantiles are piecewise constant in c; the refined
profile for other models.  _r_profile_continuous decides only whether grid
cells can be skipped: only for the normal and truncated-normal laws.

Continuous models take the max over c on a dense c-grid, refined inside
the grid cells next to the best grid point, and use Gauss-Legendre
quadrature in u.  They evaluate r through the model's own vectorised
kernel, ``model.quantile``, the one the sampler uses.  r_func, E_func and
E_max (not rate_curve) also take any callable ``q(u, c, a, beta)`` as the
tests' full-grid references; it must broadcast in a as it does in u and c.

For the normal and truncated-normal laws the grid pass skips most of the
grid: 1 - c a q = -(c / beta) y(c) with y nondecreasing in c, so the two
end values of a grid cell bound every value inside it, and only the cells
whose bound can reach the best end value are evaluated (interval
elimination, as in Shubert 1972).  The grid maximum, its first argmax and
its neighbours' values are the full grid's, bit for bit.  Plain callables
have no such bound and evaluate every grid point.

One bracketed maximiser, _bracket_max, refines both maxima: over c at
every quadrature node, and over a around the best cell of E_max's a-grid.
It starts from the three grid values around the best grid point, which
the grid pass has computed where it did not skip them, takes a few
safeguarded parabolic steps (Brent 1973), and checks the result with two
probes a hundred-thousandth of a grid step to either side.  Only where a probe beats it
does the two-probe golden section (_golden_bracket) search the bracket;
the same golden section places the split point at a quadrature dip.

E_max evaluates its whole a-grid in one batch: the c-grid pass runs in
cache-sized (a, c, u) tiles and the refinement in c in chunks of nodes.
Each step is elementwise and each log-sum stays a 1-D dot per a, so every
value is the one a one-a-at-a-time evaluation gives, bit for bit.

That batch is also cut across processes (_E_grid_split): row i of the
a-grid goes to slice i mod P, P = min(usable CPUs, a_steps), the calling
process evaluates slice 0, and P - 1 forked workers the others.  The
workers are forked at the first such cut and kept for the life of the
process; one exits when its request pipe reaches EOF, so when its parent
exits or dies.  No value depends on P.  The refinement over a runs in the
calling process; so does the whole cell for the normal model's closed form,
for a plain callable, on one usable CPU, off Linux, and where other Python
threads are alive when the workers would be forked.  rate_curve runs its
cells one after another, each cut this way.

For Boltzmann models r(u) is constant between the CDF levels of all grid
laws.  One sort of all the levels gives the pieces and, through its
inverse, the levels' ranks: a grid law's support index k covers the run of
pieces from the rank of its CDF level k - 1 to that of level k, as the
sampler's count #{k : cdf[k] < u} does.  r on a piece is the max over the
runs that cover it, a range max that a sparse table answers exactly
(Bender & Farach-Colton 2000), at O(c_steps K log n) for K support points
and n pieces rather than c_steps x n.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import boltzmann_cdf_rows
from .sampler import (
    _MAX_CELLS, BoltzmannModel, CorrectionModel, NormalModel, TruncNormalModel,
    check_finite_positive, check_scale, model_id,
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
# the bracketed maximiser: the most parabolic steps per search, the offset
# of its two check probes as a fraction of the grid step, and the nodes per
# kernel call
_PARABOLIC_STEPS = 6
_PROBE_FRACTION = 1e-5
_REFINE_CHUNK = 1 << 12
# the pruned c-grid pass (_r_profile_continuous).  _C_STRIDE is the grid
# step between the cell ends evaluated first: 17 of the default 257 points.
# At strides 8, 16 and 32 the a1-a4 benchmark cells evaluated 1.28M, 1.05M
# and 1.14M kernel elements per cell (6.76M unpruned), and the 24 cells took
# 4.2-4.3, 3.7-3.8 and 4.0-4.1 s (serial, 2-core Xeon).  A cell's interior
# is skipped when its bound lies below the best end value by both margins:
# _PRUNE_REL is about 100x the truncated-normal kernel's tail noise (about
# 1e-8 relative; no test fails without it), and _PRUNE_ABS covers the
# rounding of 1 - c a q where it is near 0: without it the pruned and the
# full-grid profiles of a1 at beta=10 differ.
# _FLAT_CHUNK caps the elements per kernel call on the points the pass
# evaluates one by one (kept cells and neighbours), which share no (c, a)
# work and so make several temporaries per element: the 24 a1-a4 cells
# (serial, 2-core Xeon) took 3.3-4.3, 2.7-3.7, 3.3-4.6 and 3.8-4.3 s and
# peaked at 59.4, 59.5, 62.3 and 68.0-68.4 MB RSS at 2^11, 2^13, 2^15 and
# 2^17 (5.1-6.3 s and 60.0 MB unpruned)
_C_STRIDE = 16
_PRUNE_REL = 2.0**-20
_PRUNE_ABS = 2.0**-40
_FLAT_CHUNK = 1 << 13

RATE_CSV_COLUMNS = ("model_id", "beta", "a", "kind", "value", "clamped")


@dataclass(frozen=True)
class RatePoint:
    """One cell of a rate table: E or E_max of a model at (a, beta)."""

    model_id: str
    beta: float
    a: float | None
    kind: str  # "E" or "Emax"
    value: float
    clamped: bool


def _check_inputs(*, model, beta, a=None, a_steps=None, c_steps, gl_nodes=None) -> None:
    """Reject rate inputs outside the contract; None marks an unused input.

    model's scale is checked at a, or else at both ends of the a-grid: the
    scale 1/(sqrt(2) a beta) is largest at a = 1/2 and smallest at a = 1.
    The normal E (gl_nodes given) is a closed form that reads none.  Called
    once per public call, never per cell.
    """
    for name, value in (("a", a), ("beta", beta)):
        if value is not None:
            check_finite_positive(name, value)
    counts = (("a_steps", a_steps, 1), ("c_steps", c_steps, 1), ("gl_nodes", gl_nodes, 2))
    for name, value, least in counts:
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if gl_nodes is None or not isinstance(model, NormalModel):
        for a_end in (0.5, 1.0) if a is None else (a,):
            check_scale(model, a_end, beta)


@lru_cache(maxsize=16)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped onto [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _residual(q, u, c, a, beta) -> np.ndarray:
    """1 - c a q(u, c, a, beta), formed in place over the product array."""
    f = (c * a) * q(u, c, a, beta)
    return np.subtract(1.0, f, out=f)


def _maximand(q, u, c, a, beta) -> np.ndarray:
    """|1 - c a q(u, c, a, beta)|, formed in place over the product array."""
    f = _residual(q, u, c, a, beta)
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


def _parabolic_steps(f, e, px, pf, left, right, delta: float):
    """Best point and value after safeguarded parabolic steps (Brent 1973).

    e holds the element indices f takes, px and pf (3, e.size) three known
    points of each element and their values, [left, right] its bracket.  A
    step takes the vertex of the parabola through the three points.  An
    element is done when that parabola is concave and its vertex, clipped
    into the bracket, lies within delta / 2 of the best point: a probe at
    +-delta beats the best point of a parabola only if its vertex lies
    further off.  Where the parabola is not concave or its vertex falls
    outside the bracket, the step is a golden-section step into the larger
    side instead.  At most _PARABOLIC_STEPS steps are taken.  The new
    point replaces the worst of the three and shrinks the bracket as for a
    unimodal f.  Elements that are done drop out, so each element's result
    is the one it gets alone.
    """
    xb_out, fb_out = np.empty(e.size), np.empty(e.size)
    at = np.arange(e.size)
    for step in range(_PARABOLIC_STEPS + 1):
        cols = np.arange(at.size)
        k = np.argmax(pf, axis=0)
        xb, fb = px[k, cols], pf[k, cols]
        xb_out[at], fb_out[at] = xb, fb
        if step == _PARABOLIC_STEPS:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (pf[1] - pf[0]) / (px[1] - px[0])
            curve = ((pf[2] - pf[1]) / (px[2] - px[1]) - slope) / (px[2] - px[0])
            vertex = 0.5 * (px[0] + px[1]) - 0.5 * slope / curve
        concave = curve < 0.0
        go = ~(concave & (np.abs(np.clip(vertex, left, right) - xb) < 0.5 * delta))
        if not go.any():
            break
        if not go.all():
            at, e, xb, fb = at[go], e[go], xb[go], fb[go]
            px, pf, left, right = px[:, go], pf[:, go], left[go], right[go]
            concave, vertex, cols = concave[go], vertex[go], cols[: at.size]
        far = np.where(right - xb > xb - left, right, left)
        inside = concave & (left < vertex) & (vertex < right)
        v = np.where(inside, vertex, xb + (1.0 - _GOLDEN) * (far - xb))
        fv = f(v[None], e)[0]
        # a better point moves the bracket's end on its far side up to the
        # old best, a worse one becomes the end on its own side
        up, beyond = fv > fb, v > xb
        end = np.where(up, xb, v)
        left = np.where(up == beyond, end, left)
        right = np.where(up != beyond, end, right)
        w = np.argmin(pf, axis=0)
        px[w, cols] = v
        pf[w, cols] = fv
    return xb_out, fb_out


def _bracket_max(f, x, fx, lo, hi, delta: float, golden_iters: int) -> np.ndarray:
    """Largest value of f found inside [lo, hi], elementwise over 1-D brackets.

    x and fx, shape (3, n), hold three known abscissae inside the brackets
    and their values; points may repeat.  f(p, sel) evaluates the elements
    sel (a slice or an index array) at abscissae p of shape (k, len(sel)).
    In chunks of _REFINE_CHUNK elements, _parabolic_steps moves each element
    to a best point; two probes at +-delta around it, clipped into
    [lo, hi], then check that it is a local maximum, and the elements where
    a probe beats it take the golden section over the whole of [lo, hi].
    Every step is elementwise, so no value depends on the chunking or on
    which other elements are refined.
    """
    n = lo.size
    best = np.empty(n)
    unsure = np.empty(n, dtype=bool)
    for s in range(0, n, _REFINE_CHUNK):
        chunk = slice(s, min(n, s + _REFINE_CHUNK))
        xb, fb = _parabolic_steps(
            f, np.arange(chunk.start, chunk.stop), x[:, chunk].copy(), fx[:, chunk].copy(),
            lo[chunk], hi[chunk], delta,
        )
        probes = f(np.clip(xb + np.array([[-delta], [delta]]), lo[chunk], hi[chunk]), chunk)
        probes = probes.max(axis=0)
        best[chunk] = np.maximum(fb, probes)
        unsure[chunk] = probes > fb
    back = np.flatnonzero(unsure)
    if back.size:
        _, _, seen = _golden_bracket(lambda p: f(p, back), lo[back], hi[back], golden_iters)
        best[back] = np.maximum(best[back], seen)
    return best


def _around(k, steps: int, axis: int = 0):
    """Indices of the three grid points nearest grid point k, stacked along axis.

    They are k - 1, k, k + 1, shifted inward at the ends of the grid; a grid
    of two points repeats one of them.
    """
    j = np.clip(k, 1, steps - 2)
    return np.clip(np.stack((j - 1, j, j + 1), axis=axis), 0, steps - 1)


def _r_profile_continuous(
    model, u: np.ndarray, a, beta: float, c_steps: int, refine: bool = True
) -> np.ndarray:
    """r(u) at every node: pruned c-grid pass, then a bracketed maximiser per node.

    a has shape (m, 1) and u has shape (n,) or (m, n); r has their
    broadcast shape, row i using coefficient a[i].

    The grid pass first evaluates every _C_STRIDE-th grid point and the
    last one, the ends of the pass's cells, and then the interior of only
    those cells that can hold a value near the best end value M.  For the
    normal and truncated-normal laws, 1 - c a q = -(c / beta) y(c), where
    y(c) = clip(erfinv((1-u) erf(z1) + u erf(z2)), z1, z2) with
    z_k = a beta d_k - beta / c is nondecreasing in c (the normal model's
    y is constant).  So on a cell with ends c_L < c_R whose interior points
    lie at or below c_in, every interior |1 - c a q| is at most
    B = max([F_R <= 0] (c_in/c_R) |F_R|, [F_L > 0] (c_in/c_L) |F_L|) for
    the signed end values F_L, F_R, and a cell is evaluated only where
    B >= M (1 - _PRUNE_REL) - _PRUNE_ABS.  The first argmax over the
    evaluated points is then the whole grid's first argmax, with the same
    value bit for bit.  Plain callables have no such bound: they take the
    same pass at stride 1, where every grid point is an end.

    The pass runs in (rows, ends and cells, nodes) tiles of about _MAX_CELLS
    values, and the kernel sees one coefficient per row at the ends, so work
    that depends on (c, a) alone runs once per grid point there; the kept
    cells' interiors are evaluated in chunks of _FLAT_CHUNK values.  The
    pass keeps the grid values at the best grid point and its two
    neighbours, evaluating a neighbour that is not an end, from which
    _bracket_max refines the maximum over c inside the neighbouring grid
    cells, in chunks of nodes; refine=False keeps the grid pass alone.
    """
    q = getattr(model, "quantile", model)
    c = np.linspace(1.0, 2.0, c_steps)
    shape = np.broadcast_shapes(np.shape(a), np.shape(u))
    u_rows = np.broadcast_to(u, shape).reshape(-1, shape[-1])
    a_rows = np.reshape(a, (-1, 1, 1))
    m, n = u_rows.shape
    refine = refine and c_steps > 2
    stride = _C_STRIDE if isinstance(model, (NormalModel, TruncNormalModel)) else 1
    ends = np.append(np.arange(0, c_steps - 1, stride), c_steps - 1)
    lo, hi = ends[:-1], ends[1:]
    # the bound's factors per cell, the offsets of a cell's interior points
    # (clipped into a short last cell), and each end's place among the ends
    right, left = (c[hi - 1] / c[hi])[:, None], (c[hi - 1] / c[lo])[:, None]
    wide = (hi - lo > 1)[:, None]
    # ends alternate with the cells between them in a tile
    width = 2 * ends.size - 1
    inner = np.arange(1, min(stride, c_steps - 1))
    place = np.full(c_steps, -1)
    place[ends] = np.arange(ends.size)

    def tile(u_t, a_t):
        """(best grid index, its value and its neighbours' values) per node."""
        at_ends = _residual(q, u_t[:, None, :], c[ends][:, None], a_t, beta)
        # ends and cell interiors interleave in grid order, so argmax over
        # the sequence still finds the first maximum; a skipped cell stays
        # at -inf
        seq = np.full((u_t.shape[0], width, u_t.shape[1]), -np.inf)
        f = np.abs(at_ends, out=seq[:, 0::2])
        bound = np.minimum(at_ends[:, 1:], 0.0)
        bound *= -right
        np.maximum(bound, left * np.maximum(at_ends[:, :-1], 0.0), out=bound)
        del at_ends
        end_max = f.max(axis=1, keepdims=True)
        r_i, cell, n_i = np.nonzero(wide & (bound >= end_max * (1.0 - _PRUNE_REL) - _PRUNE_ABS))
        del bound
        # the offset of each kept cell's best interior point, at its left end
        offset = np.zeros(f.shape, dtype=np.intp)
        step = _FLAT_CHUNK // max(1, inner.size)
        for t in range(0, r_i.size, step):
            r_t, cell_t, n_t = r_i[t:t + step], cell[t:t + step], n_i[t:t + step]
            at = np.minimum(lo[cell_t, None] + inner, hi[cell_t, None] - 1)
            values = _maximand(q, u_t[r_t, n_t][:, None], c[at], a_t[r_t, 0], beta)
            offset[r_t, cell_t, n_t] = np.argmax(values, axis=1)
            seq[r_t, 2 * cell_t + 1, n_t] = values.max(axis=1)
        p = np.argmax(seq, axis=1)[:, None]
        top = np.take_along_axis(seq, p, axis=1)
        k = ends[p // 2] + np.where(p % 2, 1 + np.take_along_axis(offset, p // 2, axis=1), 0)
        if not refine:
            return k[:, 0], np.moveaxis(top, 1, 0)
        # neighbours among the ends come from them; the others are -inf
        # until they are evaluated after the pass
        at = _around(k[:, 0], c_steps, axis=1)
        e = place[at]
        values = np.where(e < 0, -np.inf, np.take_along_axis(f, np.maximum(e, 0), axis=1))
        return k[:, 0], np.moveaxis(np.where(at == k, top, values), 1, 0)

    # the best grid value, and its two neighbours where the maximiser reads them
    near = np.empty((3 if refine else 1, m, n))
    best = np.empty((m, n), dtype=np.intp)
    # whole rows per tile while a row fits, else equal column tiles per row.
    # The sampler's tile size serves here too: the unpruned grid pass of one
    # a1 or a4 cell (65 a x 256 u x 257 c, beta=2, 2-core Xeon) took at best
    # 115, 91, 81, 77, 80, 81 and 104 ms at 2^12, 2^13, ..., 2^18 cells per
    # tile.  Pruned, the 24 a1-a4 benchmark cells took 3.1-3.8, 3.5-4.1 and
    # 3.8-4.7 s serially at 2^14, 2^15 and 2^16 ends per tile, and peaked at
    # 59.5, 59.4 and 61.4-62.1 MB RSS (60.0 MB unpruned): a tile of 2^16
    # sequence values holds about 2^15 ends
    per_row = -(-(width * n) // _MAX_CELLS)
    cols = -(-n // per_row)
    rows = max(1, _MAX_CELLS // (width * n))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            best[i:i + rows, j:j + cols], near[:, i:i + rows, j:j + cols] = tile(
                u_rows[i:i + rows, j:j + cols], a_rows[i:i + rows]
            )
    if not refine:
        return near[0].reshape(shape)
    h = 1.0 / (c_steps - 1)
    c_best = c[best.ravel()]
    u_nodes = u_rows.ravel()
    a_nodes = np.broadcast_to(a_rows[:, 0], (m, n)).ravel()
    c_near = c[_around(best.ravel(), c_steps)]
    near = near.reshape(3, -1)
    # the neighbours that are not ends, at most two per node
    for s in range(0, m * n, _FLAT_CHUNK // 2):
        k, e = np.nonzero(np.isneginf(near[:, s:s + _FLAT_CHUNK // 2]))
        if k.size:
            e += s
            near[k, e] = _maximand(q, u_nodes[e], c_near[k, e], a_nodes[e], beta)
    r = _bracket_max(
        lambda x, sel: _maximand(q, u_nodes[sel], x, a_nodes[sel], beta),
        c_near, near,
        np.maximum(1.0, c_best - h), np.minimum(2.0, c_best + h),
        _PROBE_FRACTION * h, _GS_ITERS_C,
    )
    return r.reshape(shape)


def r_func(
    model: CorrectionModel, u: float, a: float, beta: float, c_steps: int = 257
) -> float:
    """Worst multiplier |1 - c*a*q| over c in [1, 2] at one quantile u.

    The normal and Boltzmann laws take the plain max over the dense c-grid:
    the normal maximand c a |s| peaks at c = 2, and the Boltzmann grid max
    reads r low by what falls between grid points.  Other models take
    _r_profile_continuous, the dense grid refined by the bracketed maximiser
    next to the best grid point; the maximand need not be concave.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    _check_inputs(a=a, beta=beta, c_steps=c_steps, model=model)
    if isinstance(model, (NormalModel, BoltzmannModel)):
        return float(_maximand(model.quantile, u, np.linspace(1.0, 2.0, c_steps), a, beta).max())
    return float(_r_profile_continuous(model, np.array([u]), np.array([[a]]), beta, c_steps)[0, 0])


def _boltzmann_pieces(
    model: BoltzmannModel, a: float, beta: float, c_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """(length, r) of each u-piece between the CDF levels of all grid laws.

    r on a piece is the max of |1 - c a s_k| over the (c-row, support index
    k) runs that cover it.  Each nonempty run of L pieces is the union of
    two blocks of 2^p pieces, p = floor(log2 L), one at its start and one
    ending at its stop, so r is a range max answered by a sparse table
    filled top-down (Bender & Farach-Colton 2000): level p's table holds,
    at piece i, the largest value of a block of 2^p pieces starting at i,
    and is the level above pushed down (a block of 2^(p+1) pieces at i is
    the blocks of 2^p at i and i + 2^p) with its own blocks applied by
    np.maximum.at.  The level-0 table is r.  Only two levels are live at
    once, and max rounds nothing, so r is the max over the covering runs
    bit for bit, at O(c_steps K log n) for K support points and n pieces
    rather than c_steps x n.
    """
    support = model.support()
    c = np.linspace(1.0, 2.0, c_steps)
    inner = boltzmann_cdf_rows(support, 1.0 / c, a, beta)[:, :-1]
    levels, rank = np.unique(np.concatenate([inner.ravel(), (0.0, 1.0)]), return_inverse=True)
    lengths = np.diff(levels)
    n = lengths.size
    # row j's quantile index on piece i, the u in (levels[i], levels[i+1]],
    # is sampler._quantile_index's #{k : cdf[j, k] < u} = #{k : rank[j, k] <= i} (the
    # last level is 1 and never counts), and at u = 0 that of piece 0; rows
    # are nondecreasing, so support index k fills the run
    # ends[j, k] <= i < ends[j, k+1] with ends[j, k+1] = rank[j, k]
    ends = np.full((c_steps, support.size + 1), n)
    ends[:, 0] = 0
    ends[:, 1:-1] = rank[:-2].reshape(inner.shape)
    run = ends[:, 1:] > ends[:, :-1]
    start, stop = ends[:, :-1][run], ends[:, 1:][run]
    vals = np.abs(1.0 - (c[:, None] * a) * support)[run]
    # only the runs are needed from here on
    del inner, levels, rank, ends, run
    # frexp's exponent of an integer L is floor(log2 L) + 1
    level = np.frexp(stop - start)[1] - 1
    # the runs grouped by level: a stable sort of 8-bit keys is a radix sort
    order = np.argsort(level.astype(np.int8), kind="stable")
    start, stop, vals, level = start[order], stop[order], vals[order], level[order]
    top = int(level[-1])
    # level p's runs are those in bounds[p]:bounds[p + 1]
    bounds = np.searchsorted(level, np.arange(top + 2))
    r = np.zeros(n)
    for p in range(top, -1, -1):
        width = 1 << p
        if p < top:
            # numpy buffers the overlapping operands, so each piece takes the
            # level above at its own index and width pieces before it
            np.maximum(r[width:], r[:-width], out=r[width:])
        on = slice(bounds[p], bounds[p + 1])
        # each run's two blocks: at its start and ending at its stop
        np.maximum.at(r, start[on], vals[on])
        np.maximum.at(r, stop[on] - width, vals[on])
    return lengths, r


def _E_boltzmann(model: BoltzmannModel, a: float, beta: float, c_steps: int) -> tuple[float, bool]:
    """E, exact in u: r(u) is constant on each piece.

    _boltzmann_pieces forms the pieces and r at O(c_steps K log n) for K
    support points and n pieces.  The max over c is taken on the c_steps
    grid, which reads E low, by about 2-3e-3 at the default 257 points.
    """
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
    c_steps: int = 257, gl_nodes: int = 256,
) -> float:
    """Mean log multiplier E(a, beta) = integral of ln r(u, a, beta) du.

    How E is integrated depends on the model and is decided in _E_grid: the
    normal model's E is the closed form, Boltzmann models are exact in u,
    and other models use a quadrature.  Boltzmann values are exact in u
    only: their max over c is taken on the c_steps grid.
    """
    _check_inputs(a=a, beta=beta, c_steps=c_steps, gl_nodes=gl_nodes, model=model)
    return float(_E_grid(model, np.array([a]), beta, c_steps, gl_nodes)[0][0])


def _E_max_flag(
    model, beta: float, a_steps: int, c_steps: int, gl_nodes: int
) -> tuple[float, bool]:
    a_grid = np.linspace(0.5, 1.0, a_steps)
    values, flags = _E_grid_split(model, a_grid, beta, c_steps, gl_nodes)
    clamped = bool(flags.any())

    def evaluate(x: np.ndarray, sel) -> np.ndarray:
        # the search over a has one element, so sel always selects it
        nonlocal clamped
        value, flag = _E_grid(model, x.ravel(), beta, c_steps, gl_nodes)
        clamped |= bool(flag.any())
        return value.reshape(x.shape)

    k = int(np.argmax(values))
    best = float(values[k])
    if a_steps > 1:
        # refine inside the grid cells next to the best coefficient
        near = _around(k, a_steps)
        best = float(_bracket_max(
            evaluate, a_grid[near][:, None], values[near][:, None],
            a_grid[[max(0, k - 1)]], a_grid[[min(a_steps - 1, k + 1)]],
            _PROBE_FRACTION * 0.5 / (a_steps - 1), _GS_ITERS_A,
        )[0])
    return best, clamped


def E_max(
    model: CorrectionModel, beta: float,
    a_steps: int = 65, c_steps: int = 257, gl_nodes: int = 256,
) -> float:
    """Worst E over the coefficient range: max of E(a, beta) for a in [1/2, 1].

    The max over the dense a-grid, refined by the bracketed maximiser inside
    the grid cells next to the best coefficient; a negative value certifies
    convergence for every grid coefficient.
    """
    _check_inputs(beta=beta, a_steps=a_steps, c_steps=c_steps, gl_nodes=gl_nodes, model=model)
    return _E_max_flag(model, beta, a_steps, c_steps, gl_nodes)[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _slice_count(model, rows: int) -> int:
    """How many slices _E_grid_split cuts rows coefficients into: min(usable CPUs, rows).

    One, evaluated in this process alone, off Linux (the workers are forked,
    and fork is Linux's start method), for a plain callable (which need not
    pickle), and for the normal model, whose E is a closed form that costs
    less than one exchange with a worker.
    """
    if sys.platform != "linux" or not hasattr(model, "quantile") or isinstance(model, NormalModel):
        return 1
    return min(_usable_cpus(), rows)


@dataclass(eq=False)
class _Worker:
    """A forked process that evaluates a-grid slices for the process that forked it."""

    pid: int
    requests: io.BufferedWriter
    replies: io.BufferedReader
    lock: threading.Lock

    def close(self) -> None:
        self.requests.close()
        self.replies.close()


# the workers of the process whose pid is _workers_pid; a forked child
# forks its own rather than write to its parent's
_workers: list[_Worker] = []
_workers_pid: int | None = None


def _evaluate(model, a, beta: float, c_steps: int, gl_nodes: int):
    """_E_grid's (values, flags), or the exception it raised."""
    try:
        return _E_grid(model, a, beta, c_steps, gl_nodes)
    except Exception as exc:
        return exc


def _serve(requests, replies) -> None:
    """A worker's loop: one pickled request in, one pickled reply out, until EOF."""
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        reply = _evaluate(*request)
        try:
            data = pickle.dumps(reply)
        except Exception:  # an exception that does not pickle goes back as text
            data = pickle.dumps(RuntimeError(f"{type(reply).__name__}: {reply}"))
        replies.write(data)
        replies.flush()


def _fork_workers(count: int) -> list[_Worker]:
    """Fork count workers, each serving its own request and reply pipe.

    A worker ignores SIGINT, which a terminal sends to the whole process
    group, and exits at EOF on its request pipe: when the parent closes it
    at exit or dies (a later worker's copy of the write end closes when
    that worker exits in turn).  It leaves through os._exit, so no parent's
    atexit hook or stdio buffer runs twice.
    """
    workers: list[_Worker] = []
    for _ in range(count):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve(requests, replies)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        workers.append(_Worker(
            pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"), threading.Lock()
        ))
    return workers


def _take_workers(count: int) -> list[_Worker]:
    """Up to count idle workers of this process, each locked for the caller.

    The first call that asks for one forks _usable_cpus() - 1 workers, kept
    for the life of the process, unless other Python threads are alive,
    whose locks a fork would copy in whatever state they hold them; such a
    call takes none, and a later one forks.  A worker another thread holds
    is not waited for.
    """
    global _workers, _workers_pid
    if count < 1:
        return []
    if _workers_pid != os.getpid():
        if threading.active_count() > 1:
            return []
        for worker in _workers:  # a parent's, inherited through fork
            worker.close()
        _workers, _workers_pid = _fork_workers(_usable_cpus() - 1), os.getpid()
    taken = []
    for worker in _workers:
        if len(taken) == count:
            break
        if worker.lock.acquire(blocking=False):
            taken.append(worker)
    return taken


def _discard(workers: list[_Worker]) -> None:
    """Kill and reap workers whose exchange broke off, which may hold a stale reply."""
    global _workers
    _workers = [worker for worker in _workers if worker not in workers]
    for worker in workers:
        # a worker may be gone already, and its request buffer may flush
        # into a closed pipe
        with contextlib.suppress(OSError):
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
        with contextlib.suppress(OSError):
            worker.close()


@atexit.register
def _stop_workers() -> None:
    """Close every worker's pipes, so that each exits, and reap them all."""
    global _workers
    if _workers_pid != os.getpid():
        return
    workers, _workers = _workers, []
    for worker in workers:
        worker.close()
    for worker in workers:
        with contextlib.suppress(ChildProcessError):  # reaped by other code
            os.waitpid(worker.pid, 0)


def _E_grid_split(
    model, a: np.ndarray, beta: float, c_steps: int, gl_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """_E_grid over the 1-D array a, its rows dealt out to forked workers.

    Row i goes to slice i mod P, P = 1 + the workers taken (at most
    _slice_count - 1); this process evaluates slice 0 while the workers
    evaluate the others, and the slices' (values, flags) are scattered back.
    _E_grid's rows are independent bit for bit, so the values do not depend
    on P.  A slice that raised raises here, after every reply is read; an
    exchange cut off (an interrupt, a worker that died) discards its workers.
    """
    workers = _take_workers(_slice_count(model, a.size) - 1)
    if not workers:
        return _E_grid(model, a, beta, c_steps, gl_nodes)
    p = len(workers) + 1
    try:
        for i, worker in enumerate(workers, 1):
            worker.requests.write(pickle.dumps((model, a[i::p], beta, c_steps, gl_nodes)))
            worker.requests.flush()
        parts = [_evaluate(model, a[::p], beta, c_steps, gl_nodes)]
        parts += [pickle.load(worker.replies) for worker in workers]
    except BaseException:
        _discard(workers)
        raise
    finally:
        for worker in workers:
            worker.lock.release()
    values, flags = np.empty(a.size), np.empty(a.size, dtype=bool)
    for i, part in enumerate(parts):
        if isinstance(part, BaseException):
            raise part
        values[i::p], flags[i::p] = part
    return values, flags


def rate_curve(
    models, betas, a_steps: int = 65, c_steps: int = 257, gl_nodes: int = 256,
) -> list[RatePoint]:
    """E_max per (model, beta), as a long-format table sorted by (model_id, beta).

    Each distinct (model_id, beta) is one cell, and equal ids are equal
    models; a plain callable is model_id's TypeError before any cell runs.
    The cells run one after another in this process, and each deals its
    a-grid out to the forked workers of _E_grid_split; order and values do
    not depend on the CPU count.
    """
    by_id = {model_id(model): model for model in models}
    if not by_id:
        raise ValueError("model list is empty")
    betas = sorted({float(b) for b in betas})
    cells = [(mid, by_id[mid], beta) for mid in sorted(by_id) for beta in betas]
    for _, model, beta in cells:
        _check_inputs(beta=beta, a_steps=a_steps, c_steps=c_steps, gl_nodes=gl_nodes, model=model)

    points = []
    for mid, model, beta in cells:
        value, clamped = _E_max_flag(model, beta, a_steps, c_steps, gl_nodes)
        points.append(
            RatePoint(model_id=mid, beta=beta, a=None, kind="Emax", value=value, clamped=clamped)
        )
    return points


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
