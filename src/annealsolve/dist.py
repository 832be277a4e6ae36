"""Probability kernels: the models' quantile kernels, the Boltzmann CDF rows
and the truncated normal's CDF.

The Boltzmann law over a finite support puts mass proportional to
``exp(-beta^2 * H(v))`` on each support value ``v`` -- note the *squared*
inverse-temperature parameter, which makes the wide-register limit come out
as a normal law with variance ``1 / (2 a^2 beta^2)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

# Largest magnitude fed to erfinv; erf saturates to +-1 above ~5.9 sigma and
# the inverse then pins at ~5.86, so quantiles of intervals stretching that
# far into a tail saturate instead of overflowing.
ERFINV_ARG_MAX = 1.0 - 1e-16

# Below this many targets one strided cumsum down the support axis beats a
# Python loop of one row add per support point; both sum sequentially, so
# they agree bit for bit.  At 4-64 support points the two cost the same near
# 256 targets (16 points: cumsum 3 us vs row adds 26 us at 1 target, 49 vs
# 25 us at 512).  The cumsum is ``np.add.accumulate``: the same loop as
# ``np.cumsum`` without its 1.4 us wrapper.
_ROW_ADD_MIN_TARGETS = 256

_SQRT2 = float(np.sqrt(2.0))


def _boltzmann_weights(support: np.ndarray, targets, a: float, beta: float) -> np.ndarray:
    """Unnormalised Boltzmann weights, one column per target: (support, targets).

    The weight step of ``boltzmann_cdf_rows``, the package's one Boltzmann law.
    The energies are ``np.subtract.outer(a * support, targets)`` squared, so
    a 0-d target gives one (support,) column and a 1-D one the (support,
    targets) matrix, by the same float operations.
    Each column's energy ``(a*v - target)^2`` is shifted by its minimum
    before exponentiation, which leaves the law unchanged and avoids
    overflow; far-out support points may underflow to an exact zero
    weight.  An energy that overflows gives its point zero weight, unless
    all of a column's do, which is a ValueError.  Where beta^2 passes the
    float range the weights are the beta -> inf limit: 1 on each column's
    minimum-energy points, 0 elsewhere.
    """
    targets = np.asarray(targets, dtype=float)
    with np.errstate(over="ignore"):
        h = np.subtract.outer(a * support, targets)
        np.square(h, out=h)
        low = h.min(axis=0)
        # written as not-inside, so that a NaN target fails it too
        if not low.max() < math.inf:
            target = float(targets.flat[np.argmin(low < math.inf)])
            raise ValueError(
                f"energy (a*v - target)^2 overflows on the whole support (a={a}, target={target})"
            )
        h -= low
        if beta * beta < math.inf:
            # a weight whose exponent passes the float range is an exact zero
            h *= -(beta * beta)
            np.exp(h, out=h)
        else:
            # beta^2 overflows, and -beta^2 * 0 would be NaN: the beta -> inf limit
            h = (h == 0.0).astype(float)
    return h


def boltzmann_cdf_rows(support, targets, a: float, beta: float) -> np.ndarray:
    """CDF matrix of the Boltzmann law for many targets at once.

    Row ``k`` is the CDF over ``support`` for energy ``(a*v - targets[k])^2``;
    a 0-d target gives its one row, as a (support,) array equal bit for bit
    to the row of the one-target call.  Shared by the sampler, which draws
    one 0-d target at a time on the scalar path, the rate machinery, which
    sweeps targets 1/c, and ``limit_check``, which reads one row per range.

    The work is done support-major, in the contiguous (support, targets)
    array of ``_boltzmann_weights``, and the result is its transposed view: each step is a
    whole-array operation or a row add over all targets, never a reduction
    along a short row.  Every element goes through the same float
    operations in the same order as a row-by-row computation (the running
    sum is sequential, by a cumsum down the support axis for few targets
    and by row adds otherwise), so the values are the same bit for bit;
    callers that want the support-major layout take ``.T``.
    """
    h = _boltzmann_weights(np.asarray(support, dtype=float), targets, a, beta)
    # h.size / len(h) targets: 1 for a 0-d target
    if h.size < _ROW_ADD_MIN_TARGETS * len(h):
        np.add.accumulate(h, axis=0, out=h)
    else:
        for k in range(1, h.shape[0]):
            h[k] += h[k - 1]
    h[:-1] /= h[-1]
    h[-1] = 1.0
    return h.T


def std_normal_quantile(u):
    """Standard normal quantile Phi^{-1}(u) for u in (0, 1), by scipy's ndtri."""
    u_arr = np.asarray(u, dtype=float)
    # written as inside, so that NaN fails it too; the reductions' initial
    # values let an empty u pass
    if not (u_arr.min(initial=0.5) > 0.0 and u_arr.max(initial=0.5) < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    out = sc.ndtri(u_arr)
    return float(out) if np.isscalar(u) else out


def trunc_normal_quantile_arrays(mu, sigma, d1: float, d2: float, u) -> np.ndarray:
    """Quantile of N(mu, sigma^2) conditioned on (d1, d2); broadcasts mu/sigma/u.

        q(u) = mu + sigma*sqrt(2) * erfinv((1-u) erf(z1) + u erf(z2)),
        z_k = (d_k - mu) / (sigma*sqrt(2))

    The erfinv argument is clamped away from +-1, so quantiles saturate
    instead of diverging when an endpoint lies many sigmas into a tail; the
    result is always inside [d1, d2].  Where sigma is so small (beta near
    1e308) that z_k passes the float range, erf(+-inf) = +-1 is the
    beta -> inf limit, so that overflow is no warning.  Nothing is checked
    here: ``TruncNormalModel`` owns the interval's contract, ``q_value``
    that of u.  Both clips call the ``clip`` method: np.clip's own ufunc
    without np.clip's wrapper, which costs more than the clip on a scalar.
    """
    s2 = np.asarray(sigma, dtype=float) * _SQRT2
    with np.errstate(over="ignore"):
        e1 = sc.erf((d1 - mu) / s2)
        e2 = sc.erf((d2 - mu) / s2)
    arg = (1.0 - u) * e1 + u * e2
    x = mu + s2 * sc.erfinv(arg.clip(-ERFINV_ARG_MAX, ERFINV_ARG_MAX))
    return x.clip(d1, d2)


def trunc_normal_cdf(x, mu: float, sigma: float, d1: float, d2: float) -> np.ndarray:
    """CDF of N(mu, sigma^2) conditioned on [d1, d2], for x in [d1, d2].

    Formed from log tail masses on the interval's side of mu, so intervals
    far out in a tail keep their precision instead of cancelling to 0/0.
    """
    t1, t2 = (d1 - mu) / sigma, (d2 - mu) / sigma
    t = (np.asarray(x, dtype=float) - mu) / sigma
    if t1 + t2 > 0.0:
        # upper side: survival masses Phi(-t), anchored at d1
        near, far, lx = sc.log_ndtr(-t1), sc.log_ndtr(-t2), sc.log_ndtr(-t)
        return np.clip(np.expm1(lx - near) / np.expm1(far - near), 0.0, 1.0)
    # lower side: masses Phi(t), anchored at d2; this ratio is 1 - F
    near, far, lx = sc.log_ndtr(t2), sc.log_ndtr(t1), sc.log_ndtr(t)
    return np.clip(1.0 - np.expm1(lx - near) / np.expm1(far - near), 0.0, 1.0)
