"""Fixed-point binary encodings and the finite correction supports they generate.

Three encodings of a real value over bit exponents ``r .. p`` are supported:

* ``TWOS_COMPLEMENT`` -- the hardware encoding ``theta*q_p + sum 2^i q_i``
  with ``theta = -2^p + 2^r``; the top bit acts as a two's-complement sign.
  Uses ``p - r + 1`` bits; distinct values may be produced by two patterns.
* ``SIGNED_SYMMETRIC`` -- sign-magnitude over the symmetric grid
  ``{+-(q_{p-1}..q_r as binary)}``; ``p - r`` magnitude bits plus a sign bit.
* ``POSITIVE`` -- the non-negative half of the symmetric grid, ``p - r`` bits.

Bit vectors are ordered least-significant first: ``bits[k]`` is the bit with
exponent ``r + k``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SupportTooLargeError

# Enumeration guard: supports beyond this many bits are refused.
MAX_ENUM_BITS = 30


class SupportKind(enum.Enum):
    TWOS_COMPLEMENT = "twos-complement"
    SIGNED_SYMMETRIC = "signed"
    POSITIVE = "positive"


@dataclass(frozen=True)
class BitRange:
    """Exponent range ``r .. p`` of a fixed-point encoding, ``r < p``."""

    r: int
    p: int

    def __post_init__(self) -> None:
        if self.r >= self.p:
            raise ValueError(f"BitRange requires r < p, got r={self.r}, p={self.p}")

    @property
    def width(self) -> int:
        return self.p - self.r

    @property
    def theta(self) -> float:
        """Coefficient of the sign bit in the two's-complement encoding."""
        return -math.ldexp(1.0, self.p) + math.ldexp(1.0, self.r)


@dataclass(frozen=True)
class SupportSpec:
    """A finite set of representable values: an encoding kind plus bit range."""

    kind: SupportKind
    range: BitRange

    @property
    def n_bits(self) -> int:
        """Number of qubits of the encoding (sign-aware positive grids save one)."""
        if self.kind is SupportKind.POSITIVE:
            return self.range.width
        return self.range.width + 1


def decode(bits, spec: SupportSpec) -> float:
    """Decode a bit vector into the real value it represents.

    ``bits`` is indexed least-significant first.  Exact in binary floating
    point for ``p - r <= 50``.
    """
    bits = list(bits)
    if len(bits) != spec.n_bits:
        raise ValueError(
            f"expected {spec.n_bits} bits for {spec.kind.value} over "
            f"[{spec.range.r}, {spec.range.p}], got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    r = spec.range.r
    magnitude = sum(math.ldexp(float(b), r + k) for k, b in enumerate(bits[: spec.range.width]))
    if spec.kind is SupportKind.POSITIVE:
        return magnitude
    if spec.kind is SupportKind.TWOS_COMPLEMENT:
        return magnitude + bits[-1] * spec.range.theta
    # sign-magnitude: top bit flips the sign of the magnitude
    return -magnitude if bits[-1] else magnitude


def enumerate_patterns(spec: SupportSpec) -> tuple[np.ndarray, np.ndarray]:
    """All bit patterns of the encoding and their decoded values.

    Returns ``(bits, values)`` where ``bits`` has shape ``(2**n_bits, n_bits)``
    (least-significant bit in column 0) and ``values[k] = decode(bits[k])``.
    Values are not deduplicated; two's-complement and sign-magnitude encodings
    represent some values twice.
    """
    n = spec.n_bits
    if n > MAX_ENUM_BITS:
        raise SupportTooLargeError(f"{n} bits exceeds enumeration limit {MAX_ENUM_BITS}")
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    weights = np.ldexp(1.0, spec.range.r + np.arange(spec.range.width))
    magnitude = bits[:, : spec.range.width].astype(float) @ weights
    if spec.kind is SupportKind.POSITIVE:
        values = magnitude
    elif spec.kind is SupportKind.TWOS_COMPLEMENT:
        values = magnitude + bits[:, -1] * spec.range.theta
    else:
        values = np.where(bits[:, -1] == 1, -magnitude, magnitude)
    return bits, values


def enumerate_support(spec: SupportSpec) -> np.ndarray:
    """The distinct representable values, strictly increasing.

    Duplicate bit patterns (the two zeros of sign-magnitude, the overlap of
    the two's-complement halves) are collapsed; distributions over a support
    weight each *value* once.
    """
    _, values = enumerate_patterns(spec)
    # + 0.0 folds the sign-magnitude -0.0 into +0.0
    return np.unique(values + 0.0)
