"""Shared test oracles, independent of the library code paths they check."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.stats


def normal_cdf(x: float) -> float:
    # erfc form stays accurate in the lower tail
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_quantile(cdf, u: float, lo: float, hi: float, iters: int = 200) -> float:
    """Quantile by plain bisection on a monotone CDF."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile_oracle(u: float) -> float:
    if u > 0.5:  # the erfc form is only lower-tail stable
        return -bisect_quantile(normal_cdf, 1.0 - u, -10.0, 0.5)
    return bisect_quantile(normal_cdf, u, -10.0, 0.5)


def trunc_normal_cdf(t: float, mu: float, sigma: float, d1: float, d2: float) -> float:
    z1 = normal_cdf((d1 - mu) / sigma)
    z2 = normal_cdf((d2 - mu) / sigma)
    return (normal_cdf((t - mu) / sigma) - z1) / (z2 - z1)


def trunc_normal_quantile_oracle(mu, sigma, d1, d2, u) -> float:
    return bisect_quantile(lambda t: trunc_normal_cdf(t, mu, sigma, d1, d2), u, d1, d2)


def boltzmann_law_oracle(support, target: float, a: float, beta: float):
    """The Boltzmann law with energy (a*v - target)^2 on support, as (pmf, cdf) mpf lists.

    Each energy is formed exactly, as a Fraction of the float inputs, and
    shifted by the exact minimum; the weights exp(-beta^2 * gap), their sum
    and the running sums are taken in mpmath at 30 digits.  No energy gap
    rounds away, so a target far past the support keeps its mass on the
    nearest point, and mpmath's exponent range keeps every weight positive.
    """
    a_q, t_q = Fraction(a), Fraction(target)
    energies = [(a_q * Fraction(float(v)) - t_q) ** 2 for v in support]
    low = min(energies)
    with mpmath.workdps(30):
        beta2 = mpmath.mpf(beta) ** 2
        weights = [
            mpmath.exp(-beta2 * mpmath.mpf(gap.numerator) / gap.denominator)
            for gap in (e - low for e in energies)
        ]
        total = mpmath.fsum(weights)
        pmf = [w / total for w in weights]
        cdf, running = [], mpmath.mpf(0)
        for w in weights:
            running += w
            cdf.append(running / total)
    return pmf, cdf


def floats(values) -> np.ndarray:
    """An oracle's mpf values as a float array, each rounded once."""
    return np.array([float(v) for v in values])


def oracle_step_probes(cdf, rel: float = 1e-9):
    """u just below and just above each step of an exact CDF, and each u's index.

    Each u lies rel * cdf[k] from step k.  A u nearer than rel/2 to any
    step is dropped, so no u is within rounding of a step, and so is a u
    outside [2^-1022, 1), where a CDF entry has no float's relative
    precision or u is no probe.  Each index is ``oracle_index``'s.
    """
    levels = floats(cdf)
    us = np.unique(np.concatenate((levels * (1.0 - rel), levels * (1.0 + rel))))
    apart = (np.abs(us[:, None] - levels) > rel / 2 * levels).all(axis=1)
    us = us[apart & (us >= np.finfo(float).tiny) & (us < 1.0)]
    return us, oracle_index(cdf, us)


def oracle_index(cdf, us) -> np.ndarray:
    """The index rule on an exact CDF: #{k : cdf[k] < u} for each u, counted exactly."""
    counts = [sum(level < u for level in cdf) for u in np.asarray(us, dtype=float).flat]
    return np.array(counts, dtype=int)


def chisq_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value; bins with expectation < 5 are pooled."""
    counts = np.asarray(counts, dtype=float)
    expected = probs * counts.sum()
    keep = expected >= 5.0
    observed = np.append(counts[keep], counts[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    if expected[-1] < 1e-12:
        observed, expected = observed[:-1], expected[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(scipy.stats.chi2.sf(stat, df=len(expected) - 1))


def twos_complement_value(bits, r: int, p: int) -> float:
    """Independent expansion of the two's-complement encoding (LSB first)."""
    theta = -math.ldexp(1.0, p) + math.ldexp(1.0, r)
    value = bits[-1] * theta
    for k, bit in enumerate(bits[:-1]):
        value += bit * math.ldexp(1.0, r + k)
    return value


def uniform_matrix_oracle(seed: int, n_streams: int, n: int) -> np.ndarray:
    """Row t holds the first n uniforms of stream t, from numpy's Philox.

    One numpy generator per stream, keyed by a uint64 array: a Python list
    key casts through float and silently gives another stream.
    """
    out = np.empty((n_streams, n))
    for t in range(n_streams):
        key = np.array([seed, t], dtype=np.uint64)
        out[t] = np.random.Generator(np.random.Philox(key=key)).random(n)
    return out


def mc_convergence_oracle(model, a, b, beta, s, n_traj, n_iter, seed):
    """mc_convergence as one whole-ensemble loop over a row-major uniform matrix.

    Every step gathers the active trajectories and their uniforms, advances
    them and scatters them back; the summary is mc_convergence's own
    _summarize of the medians and divergence flags.
    """
    from annealsolve.experiments import _FREEZE_AT, DIVERGENCE_THRESHOLD, _summarize
    from annealsolve.sampler import NormalModel
    from annealsolve.solver import _advance, normalize

    inst = normalize(a, b)
    l0_zero = isinstance(model, NormalModel)
    u = uniform_matrix_oracle(seed, n_traj, n_iter)
    ba = inst.solution
    x = np.zeros(n_traj)
    median_log = np.empty(n_iter + 1)
    diverged = np.zeros(n_traj, dtype=bool)
    frozen = np.zeros(n_traj, dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        median_log[0] = np.median(np.log(np.abs(ba - x)))
        for n in range(n_iter):
            active = ~frozen & (inst.b - inst.a * x != 0.0)
            if np.any(active):
                x[active] = _advance(x[active], inst, model, beta, u[active, n], l0_zero and n == 0)[0]
            abs_x = np.abs(x)
            diverged |= abs_x > DIVERGENCE_THRESHOLD
            frozen |= abs_x > _FREEZE_AT
            median_log[n + 1] = np.median(np.log(np.abs(ba - x)))
    return _summarize(median_log, diverged, s, l0_zero)


def summary_bits(summary) -> dict:
    """An McSummary's fields, arrays and floats as their bytes, for == checks."""
    return {
        name: np.asarray(value).tobytes() if isinstance(value, (float, np.ndarray)) else value
        for name, value in vars(summary).items()
    }


# one value in each form a vectorised function takes it in; the 1-d form
# pads it with 0.5, a valid u in (0, 1) and a valid c
INPUT_KINDS = {
    "float": float,
    "numpy-scalar": np.float64,
    "0-d": np.asarray,
    "1-d": lambda value: np.array([0.5, value]),
}
