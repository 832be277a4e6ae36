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
from functools import lru_cache

import numpy as np

from .dist import _SQRT2, _quantile_index, boltzmann_cdf_rows
from .dist import std_normal_quantile, trunc_normal_quantile_arrays
from .encoding import BitRange, SupportKind, SupportSpec, enumerate_support

# clamp for uniform variates fed to the unbounded normal quantile
_U_CLIP = 1e-15
_NDTRI_MAX = float(np.abs(std_normal_quantile(np.array([_U_CLIP, 1.0 - _U_CLIP]))).max())

# cells per (support x draws) CDF tile.  Boltzmann mc_convergence at
# 50 000 x 40 (15- and 16-point supports, 2-core Xeon, 2 MB L2 per core)
# took 0.64-0.96 s at 2^12 cells, 0.44-0.61 s at 2^14, 0.40-0.51 s at 2^15,
# 0.32-0.45 s at 2^16, 0.35-0.48 s at 2^17 and 2^18 and 0.41-0.49 s at 2^20
# and 2^22, while peak RSS rose from 78 MB at 2^16 to 88 MB at 2^22: 2^16
# (512 kB per float array) is the smallest tile at full speed.
_MAX_CELLS = 1 << 16

# the supports a Boltzmann correction register may have, and their names,
# which a spec may also give as a bare token (boltzmann:positive)
_REGISTER_KINDS = (SupportKind.SIGNED_SYMMETRIC, SupportKind.POSITIVE)
_REGISTER_KIND_NAMES = {kind.value for kind in _REGISTER_KINDS}


@dataclass(frozen=True)
class NormalModel:
    def quantile(self, u, c, a: float, beta: float):
        sigma = 1.0 / (_SQRT2 * a * beta)
        # np.clip's own ufunc, without its wrapper
        u_in = np.asarray(u).clip(_U_CLIP, 1.0 - _U_CLIP)
        return 1.0 / (a * c) + sigma * std_normal_quantile(u_in)


@dataclass(frozen=True)
class TruncNormalModel:
    d1: float
    d2: float

    def __post_init__(self):
        # written as not-less so that a NaN end fails the test too
        if not self.d1 < self.d2:
            raise ValueError(f"need d1 < d2, got ({self.d1}, {self.d2})")

    def quantile(self, u, c, a: float, beta: float):
        sigma = 1.0 / (_SQRT2 * a * beta)
        return trunc_normal_quantile_arrays(1.0 / (a * c), sigma, self.d1, self.d2, u)


@dataclass(frozen=True)
class BoltzmannModel:
    kind: SupportKind
    range: BitRange

    def __post_init__(self):
        if self.kind not in _REGISTER_KINDS:
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


@lru_cache(maxsize=None)
def _support(kind: SupportKind, bit_range: BitRange) -> np.ndarray:
    # read-only: every model with this register shares the one array
    support = enumerate_support(SupportSpec(kind, bit_range))
    support.flags.writeable = False
    return support


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
    """Canonical text id used in model specs and result tables.

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


class ModelSpecError(ValueError):
    """Model grammar parse failure; messages carry the byte offset."""


# the keys of each parametrised model, in the order a missing key is
# reported, with the reader of their values
_KEYS = {
    "truncnormal": {"d1": float, "d2": float},
    "boltzmann": {"kind": lambda text: SupportKind(text.lower()), "r": int, "p": int},
}


def parse_model_spec(spec: str) -> CorrectionModel:
    """Parse the text ``model_id`` writes, ``name[:key=value]*``, into a model.

    Names: ``normal``, ``a1``..``a4``, ``truncnormal`` (keys d1, d2) and
    ``boltzmann`` (keys kind, r, p; the kind may stand alone, as in
    ``boltzmann:positive:r=0:p=1``).  Names, keys and kinds ignore case.
    Every failure is a ModelSpecError; the grammar of all tokens is checked
    before any value is read.
    """
    head, *tokens = spec.split(":")
    name = head.lower()
    keys = _KEYS.get(name, {})

    def fail(at: int, message: str):
        raise ModelSpecError(f"{message} at position {at} in {spec!r}")

    found: dict[str, list[tuple[int, str]]] = {}
    at = len(head) + 1
    for tok in tokens:
        key, eq, text = tok.partition("=")
        key = key.lower()
        if not eq and name == "boltzmann" and tok.lower() in _REGISTER_KIND_NAMES:
            key, text = "kind", tok
        elif not eq:
            fail(at, f"unexpected token {tok!r}")
        elif not key or not text:
            fail(at, f"malformed key=value token {tok!r}")
        elif key not in keys:
            fail(at, f"unknown key {key!r} for model {name!r}")
        found.setdefault(key, []).append((at, text))
        at += len(tok) + 1

    if name == "normal":
        return NormalModel()
    if name in PRESETS:
        return PRESETS[name]
    if name not in _KEYS:
        fail(0, f"unknown model name {name!r}")
    if missing := [key for key in keys if key not in found]:
        fail(0, f"model {name!r} requires {missing[0]}")
    values = {}
    for key, read in keys.items():
        (at, text), *repeats = found[key]
        if repeats:
            fail(repeats[0][0], f"repeated key {key!r}")
        try:
            values[key] = read(text)
        except ValueError as exc:
            fail(at, f"bad value for {key}: {exc}")
    try:
        if name == "truncnormal":
            return TruncNormalModel(values["d1"], values["d2"])
        return BoltzmannModel(values["kind"], BitRange(values["r"], values["p"]))
    except ValueError as exc:
        raise ModelSpecError(f"bad parameters for {name!r} in {spec!r}: {exc}") from exc


def check_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and > 0 (a scale a or beta)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_scale(model, a: float, beta: float) -> None:
    """Raise ValueError where a normal or truncated-normal law's scale leaves the float range.

    The normal kernel's widest draw is sigma = 1/(sqrt(2) a beta) times
    _NDTRI_MAX = max |Phi^-1(u)| over the clipped u, the truncated normal's
    scale sigma sqrt(2); past the float range they are +-inf (at a = 1/2,
    below beta of about 6.25e-308) and inf * 0 = NaN (below about 1.1e-308).
    Where sqrt(2) a beta itself overflows (at a = 1, beta above about
    1.27e308) sigma is 0: the normal draw is then its mean, the beta -> inf
    limit, but the truncated normal's z terms would be a divide by zero or
    0/0 = NaN, so that band is refused too.  Boltzmann laws pass: their
    beta^2 underflows to the uniform law.
    """
    if not isinstance(model, (NormalModel, TruncNormalModel)):
        return
    x = _SQRT2 * a * beta
    if x == math.inf and isinstance(model, TruncNormalModel):
        raise ValueError(
            f"beta={beta!r} is too large: the law's scale 1/(sqrt(2)*a*beta) is 0 at a={a!r}"
        )
    sigma = 1.0 / x if x else math.inf
    if isinstance(model, NormalModel):
        name, scale = "sigma*7.9414 = 7.9414/(sqrt(2)*a*beta)", sigma * _NDTRI_MAX
    else:
        name, scale = "sigma*sqrt(2) = 1/(a*beta)", sigma * _SQRT2
    if scale == math.inf:
        raise ValueError(f"beta={beta!r} is too small: the law's scale {name} overflows at a={a!r}")


def _boltzmann_q(support: np.ndarray, u, c, a: float, beta: float):
    """The reference law's ``quantile`` at (u, 1/c), bit for bit, in _MAX_CELLS tiles."""
    u_b, c_b = np.broadcast_arrays(np.asarray(u, float), np.asarray(c, float))
    u_flat, c_flat = u_b.ravel(), c_b.ravel()
    idx = np.empty(u_flat.size, dtype=np.intp)
    chunk = max(1, _MAX_CELLS // support.size)
    for start in range(0, u_flat.size, chunk):
        sl = slice(start, start + chunk)
        cdf = boltzmann_cdf_rows(support, 1.0 / c_flat[sl], a, beta).T
        idx[sl] = _quantile_index(cdf, u_flat[sl])
    return support[idx].reshape(u_b.shape)


def q_value(model: CorrectionModel, u, c, a: float, beta: float):
    """Scaled correction drawn through a model at uniform quantile u.

    u and c broadcast together; a and beta are scalars.  c is the reciprocal
    of the normalized residual (inside the solver loop c is in [1, 2); the
    rate analysis also evaluates the closed endpoint c = 2 and the first
    iterate of the literal zero-exponent convention may fall outside).

    Every element of u must lie in [0, 1] (-0.0 included) and every
    element of c must be > 0 (so c = -0.0 fails); a NaN fails either
    check, and an empty u or c passes.  a and beta must be finite and
    positive, and the law's scale must not overflow (check_scale).  Each
    failure is a ValueError, and an object that is not a model a
    TypeError.  The u and c checks are float comparisons on a scalar draw
    and min/max reductions, one pass each, on arrays.
    """
    u_arr = np.asarray(u, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    # each check is written as inside, so that NaN fails it too.  A scalar
    # draw compares floats: the three reductions cost it 3.2-3.7 us (normal
    # 9.7 against 6.5 us, Boltzmann 27.0 against 23.4 us on a 2-core Xeon),
    # 12% of the trajectories benchmark's ops/s.  On arrays the reductions'
    # initial values let an empty input pass.
    if u_arr.ndim == c_arr.ndim == 0:
        u_inside, c_inside = 0.0 <= float(u_arr) <= 1.0, float(c_arr) > 0.0
    else:
        u_inside = u_arr.min(initial=1.0) >= 0.0 and u_arr.max(initial=0.0) <= 1.0
        c_inside = c_arr.min(initial=1.0) > 0.0
    if not u_inside:
        raise ValueError("u must lie in [0, 1]")
    if not c_inside:
        raise ValueError("c must be positive")
    check_finite_positive("a", a)
    check_finite_positive("beta", beta)

    if not isinstance(model, CorrectionModel):
        raise TypeError(f"not a correction model: {model!r}")
    check_scale(model, a, beta)
    # a 0-d array goes in as its numpy scalar, whose arithmetic skips the
    # ufunc machinery; other arrays go in as they are
    out = model.quantile(u_arr[()], c_arr[()], a, beta)
    return float(out) if np.isscalar(u) and np.isscalar(c) else out
