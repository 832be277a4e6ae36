"""The unified correction law q(u, c, a, beta).

Each correction model maps a uniform variate u to the scaled correction an
annealer would return for the scaled equation ``a * delta = 1/c`` (the
normalized residual magnitude is 1/c; the residual's sign is applied by the
solver, never here):

* ``NormalModel`` -- quantile of N(1/(a c), 1/(2 a^2 beta^2)), the
  infinite-register limit on the whole line.
* ``TruncNormalModel(d1, d2)`` -- the same law conditioned on (d1, d2), the
  infinite-register limit of an interval encoding.  Four named presets trade
  off sign awareness and correction-size bounds; the (1/2, 1) preset is the
  conservative one whose per-step error multiplier never exceeds 1.
* ``BoltzmannModel(kind, range)`` -- the exact finite-register law on a
  signed-symmetric or positive dyadic-grid support.

Each model has one vectorised kernel, ``model.quantile(u, c, a, beta)``,
which broadcasts u against c and checks nothing; ``q_value`` validates its
inputs and calls it.  The solver, Monte Carlo and the rate engine all draw
through these kernels.  They broadcast, so work that depends on u alone
runs once per u value whatever the shape of c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import boltzmann_cdf_rows, std_normal_quantile, trunc_normal_quantile_arrays
from .encoding import BitRange, SupportKind, SupportSpec, enumerate_support

# clamp for uniform variates fed to the unbounded normal quantile
_U_CLIP = 1e-15

# cells per (support x draws) CDF tile.  Boltzmann mc_convergence at
# 50 000 x 40 (15- and 16-point supports, 2-core Xeon, 2 MB L2 per core)
# took 0.64-0.96 s at 2^12 cells, 0.44-0.61 s at 2^14, 0.40-0.51 s at 2^15,
# 0.32-0.45 s at 2^16, 0.35-0.48 s at 2^17 and 2^18 and 0.41-0.49 s at 2^20
# and 2^22, while peak RSS rose from 78 MB at 2^16 to 88 MB at 2^22: 2^16
# (512 kB per float array) is the smallest tile at full speed.
_MAX_CELLS = 1 << 16


@dataclass(frozen=True)
class NormalModel:
    def quantile(self, u, c, a: float, beta: float):
        sigma = 1.0 / (np.sqrt(2.0) * a * beta)
        return 1.0 / (a * c) + sigma * std_normal_quantile(np.clip(u, _U_CLIP, 1.0 - _U_CLIP))


@dataclass(frozen=True)
class TruncNormalModel:
    d1: float
    d2: float

    def __post_init__(self):
        if self.d1 >= self.d2:
            raise ValueError(f"need d1 < d2, got ({self.d1}, {self.d2})")

    def quantile(self, u, c, a: float, beta: float):
        sigma = 1.0 / (np.sqrt(2.0) * a * beta)
        return trunc_normal_quantile_arrays(1.0 / (a * c), sigma, self.d1, self.d2, u)


@dataclass(frozen=True)
class BoltzmannModel:
    kind: SupportKind
    range: BitRange

    def __post_init__(self):
        if self.kind not in (SupportKind.SIGNED_SYMMETRIC, SupportKind.POSITIVE):
            raise ValueError("Boltzmann correction supports are signed or positive grids")
        if self.range.p > 1:
            # corrections are bounded by 2, so registers never need p > 1
            raise ValueError(f"correction register needs p <= 1, got p={self.range.p}")

    @property
    def n_qubits(self) -> int:
        return SupportSpec(self.kind, self.range).n_bits

    def support(self) -> np.ndarray:
        return _support(self.kind, self.range)

    def quantile(self, u, c, a: float, beta: float):
        return _boltzmann_q(self.support(), u, c, a, beta)


CorrectionModel = NormalModel | TruncNormalModel | BoltzmannModel

# truncation intervals of the four named algorithms
PRESETS = {
    "a1": TruncNormalModel(-2.0, 2.0),
    "a2": TruncNormalModel(0.0, 2.0),
    "a3": TruncNormalModel(0.5, 2.0),
    "a4": TruncNormalModel(0.5, 1.0),
}

_SUPPORT_CACHE: dict[tuple[SupportKind, int, int], np.ndarray] = {}


def _support(kind: SupportKind, bit_range: BitRange) -> np.ndarray:
    key = (kind, bit_range.r, bit_range.p)
    cached = _SUPPORT_CACHE.get(key)
    if cached is None:
        cached = enumerate_support(SupportSpec(kind, bit_range))
        cached.flags.writeable = False
        _SUPPORT_CACHE[key] = cached
    return cached


def preset(algorithm_id: str) -> TruncNormalModel:
    """Look up one of the named truncated-normal algorithms a1..a4."""
    try:
        return PRESETS[algorithm_id.lower()]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm_id!r}; expected one of a1..a4") from None


def _shortest(x: float) -> str:
    """The shortest text that parses back to x, without a trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def model_id(model: CorrectionModel) -> str:
    """Canonical text id used in CLI specs and result tables.

    parse_model_spec(model_id(model)) == model for every model.
    """
    if isinstance(model, NormalModel):
        return "normal"
    if isinstance(model, TruncNormalModel):
        for name, preset_model in PRESETS.items():
            if preset_model == model:
                return name
        return f"truncnormal:d1={_shortest(model.d1)}:d2={_shortest(model.d2)}"
    if isinstance(model, BoltzmannModel):
        return f"boltzmann:{model.kind.value}:r={model.range.r}:p={model.range.p}"
    raise TypeError(f"not a correction model: {model!r}")


def check_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and > 0 (a scale a or beta)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _boltzmann_q(support: np.ndarray, u, c, a: float, beta: float):
    u_b, c_b = np.broadcast_arrays(np.asarray(u, float), np.asarray(c, float))
    shape = u_b.shape
    u_flat = u_b.ravel()
    c_flat = c_b.ravel()
    n, k = u_flat.size, support.size
    idx = np.empty(n, dtype=np.intp)
    chunk = max(1, _MAX_CELLS // max(k, 1))
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        # support-major (support, draws) tile: the counts reduce over rows
        cdf = boltzmann_cdf_rows(support, 1.0 / c_flat[sl], a, beta).T
        u_tile = u_flat[sl]
        part = (cdf < u_tile).sum(axis=0)
        zero = u_tile == 0.0
        if np.any(zero):
            # u=0 means the smallest value carrying positive mass
            part = np.where(zero, (cdf <= 0.0).sum(axis=0), part)
        idx[sl] = part
    return support[idx].reshape(shape)


def q_value(model: CorrectionModel, u, c, a: float, beta: float):
    """Scaled correction drawn through a model at uniform quantile u.

    u and c broadcast together; a and beta are scalars.  c is the reciprocal
    of the normalized residual (inside the solver loop c is in [1, 2); the
    rate analysis also evaluates the closed endpoint c = 2 and the first
    iterate of the literal zero-exponent convention may fall outside).
    NaN u or c, and a or beta that is not finite and positive, raise
    ValueError.
    """
    u_arr = np.asarray(u, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    # written as not-all-inside so that NaN fails the test too
    if not np.all((u_arr >= 0.0) & (u_arr <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    if not np.all(c_arr > 0.0):
        raise ValueError("c must be positive")
    check_finite_positive("a", a)
    check_finite_positive("beta", beta)

    if not isinstance(model, CorrectionModel):
        raise TypeError(f"not a correction model: {model!r}")
    out = model.quantile(u_arr, c_arr, a, beta)
    return float(out) if np.isscalar(u) and np.isscalar(c) else out
