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


class SupportTooLargeError(ValueError):
    """Raised when a requested support enumeration would be too large."""


def check_enumerable(spec: SupportSpec) -> None:
    """Refuse a spec of more than ``MAX_ENUM_BITS`` bits, before any allocation."""
    if spec.n_bits > MAX_ENUM_BITS:
        raise SupportTooLargeError(f"{spec.n_bits} bits exceeds enumeration limit {MAX_ENUM_BITS}")


def enumerate_patterns(spec: SupportSpec) -> tuple[np.ndarray, np.ndarray]:
    """All bit patterns of the encoding and their decoded values.

    Returns ``(bits, values)`` where ``bits`` has shape ``(2**n_bits, n_bits)``
    (least-significant bit in column 0) and ``values[k] = decode(bits[k])``.
    Values are not deduplicated; two's-complement and sign-magnitude encodings
    represent some values twice.  Only the QUBO exhaustive check needs them.
    """
    check_enumerable(spec)
    n = spec.n_bits
    # each code's low ceil(n/8) bytes, little-endian, unpacked least-significant bit first
    low = np.arange(1 << n, dtype="<i8").view(np.uint8).reshape(-1, 8)[:, : (n + 7) // 8]
    bits = np.unpackbits(low, axis=1, count=n, bitorder="little").astype(np.int64)
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
    """The distinct representable values, strictly increasing: the dyadic grid ``k * 2^r``.

    ``k`` runs over ``[0, 2^(p-r))`` for ``POSITIVE`` and over ``|k| < 2^(p-r)``
    for the two signed kinds, whose value sets coincide: the two's-complement
    halves are ``[theta, 0]`` and ``[0, 2^p - 2^r]``.  Zero is +0.0.
    """
    check_enumerable(spec)
    w = spec.range.width
    lo = 0 if spec.kind is SupportKind.POSITIVE else 1 - 2**w
    return np.ldexp(np.arange(lo, 2**w, dtype=float), spec.range.r)
