"""QUBO form of the squared residual (a*x - b)^2 over the two's-complement encoding.

Substituting the encoding of ``x`` into ``(a*x - b)^2`` and dropping the
constant ``b^2`` yields an upper-triangular coefficient table indexed by bit
exponents ``(i, j)`` with ``r <= i <= j <= p``:

    Q[i][i] = a^2 theta^2 - 2ab theta          for i = p
    Q[i][i] = 2^(2i) a^2 - 2^(i+1) ab          for r <= i < p
    Q[i][p] = 2^(i+1) a^2 theta                for r <= i < p
    Q[i][j] = 2^(i+j+1) a^2                    for r <= i < j < p

All quantities are dyadic products, exact in floating point for moderate
exponents; zero coefficients are kept in the table (export drops them).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .encoding import BitRange, SupportKind, SupportSpec, enumerate_patterns
from .solver import check_equation

COO_HEADER = "# qubo"


@dataclass(frozen=True)
class QuboProblem:
    """Upper-triangular QUBO coefficients for (a*x - b)^2, plus the dropped b^2."""

    range: BitRange
    coefficients: dict[tuple[int, int], float]
    offset: float
    a: float
    b: float

    @property
    def _spec(self) -> SupportSpec:
        return SupportSpec(SupportKind.TWOS_COMPLEMENT, self.range)

    @property
    def n_bits(self) -> int:
        return self._spec.n_bits

    def evaluate(self, bits) -> float:
        """Energy sum_{i<=j} Q_ij q_i q_j of one assignment (LSB-first bits)."""
        bits = list(bits)
        if len(bits) != self.n_bits:
            raise ValueError(f"expected {self.n_bits} bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        r = self.range.r
        total = 0.0
        for (i, j), value in self.coefficients.items():
            if bits[i - r] and bits[j - r]:
                total += value
        return total

    def dense_matrix(self) -> np.ndarray:
        """Coefficients as an upper-triangular array indexed by bit position."""
        n = self.n_bits
        r = self.range.r
        q = np.zeros((n, n))
        for (i, j), value in self.coefficients.items():
            q[i - r, j - r] = value
        return q


def build_qubo(a: float, b: float, bit_range: BitRange) -> QuboProblem:
    """Closed-form QUBO coefficients for (a*x - b)^2 with x two's-complement encoded.

    Raises ValueError when check_equation refuses (a, b), or when a
    coefficient or the offset overflows a float.
    """
    check_equation(a, b)
    r, p = bit_range.r, bit_range.p
    theta = bit_range.theta
    coeff: dict[tuple[int, int], float] = {}
    try:
        coeff[(p, p)] = a * a * theta * theta - 2.0 * a * b * theta
        for i in range(r, p):
            coeff[(i, i)] = math.ldexp(a * a, 2 * i) - math.ldexp(a * b, i + 1)
            coeff[(i, p)] = math.ldexp(a * a * theta, i + 1)
            for j in range(i + 1, p):
                coeff[(i, j)] = math.ldexp(a * a, i + j + 1)
    except OverflowError:  # ldexp raises where a product overflows to inf
        finite = False
    else:
        finite = all(map(math.isfinite, coeff.values())) and math.isfinite(b * b)
    if not finite:
        raise ValueError(
            f"the QUBO of ({a!r}*x - {b!r})^2 over exponents {r}..{p} overflows a float"
        )
    return QuboProblem(range=bit_range, coefficients=coeff, offset=b * b, a=a, b=b)


def exhaustive_deviation(problem: QuboProblem) -> float:
    """Max |evaluate(q) + offset - (a*decode(q) - b)^2| over all bit patterns.

    Brute-force identity check; the encoding enumeration guard caps the size.
    Each energy q^T Q q is the row-wise dot of q with the BLAS product
    (bits @ Q)[k], so the sums run in another order than ``evaluate``'s and
    may differ from it in the last bits; no temporary is larger than the
    (2^n, n) float bit matrix.
    """
    bits, values = enumerate_patterns(problem._spec)
    b01 = bits.astype(float)
    energies = np.einsum("ki,ki->k", b01 @ problem.dense_matrix(), b01)
    target = (problem.a * values - problem.b) ** 2
    return float(np.abs(energies + problem.offset - target).max())


def _sorted_nonzero(problem: QuboProblem):
    return sorted(
        (ij, v) for ij, v in problem.coefficients.items() if v != 0.0
    )


def export_qubo(problem: QuboProblem, format: str = "coo") -> str:
    """Serialize to ``coo`` text or ``json``; exact zeros are dropped.

    Both formats round-trip losslessly through :func:`import_qubo` (17
    significant digits in the text form, repr floats in JSON).
    """
    if format == "coo":
        out = io.StringIO()
        out.write(
            f"{COO_HEADER} {problem.range.r} {problem.range.p} "
            f"{problem.a:.17g} {problem.b:.17g} {problem.offset:.17g}\n"
        )
        for (i, j), value in _sorted_nonzero(problem):
            out.write(f"{i} {j} {value:.17g}\n")
        return out.getvalue()
    if format == "json":
        doc = {
            "range": [problem.range.r, problem.range.p],
            "entries": [[i, j, value] for (i, j), value in _sorted_nonzero(problem)],
            "offset": problem.offset,
            "a": problem.a,
            "b": problem.b,
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r} (expected 'coo' or 'json')")


def import_qubo(text: str, format: str = "coo") -> QuboProblem:
    """Parse a serialized problem back; absent entries are restored as 0.0."""
    if format == "coo":
        header = None
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith(COO_HEADER + " "):
                header = line[len(COO_HEADER) :].split()
            elif line.startswith("#"):
                continue
            else:
                i, j, value = line.split()
                entries.append((int(i), int(j), float(value)))
        if header is None:
            raise ValueError("missing '# qubo r p a b offset' header line")
        r, p = int(header[0]), int(header[1])
        a, b, offset = float(header[2]), float(header[3]), float(header[4])
    elif format == "json":
        doc = json.loads(text)
        r, p = int(doc["range"][0]), int(doc["range"][1])
        a, b, offset = float(doc["a"]), float(doc["b"]), float(doc["offset"])
        entries = [(int(i), int(j), float(v)) for i, j, v in doc["entries"]]
    else:
        raise ValueError(f"unknown format {format!r} (expected 'coo' or 'json')")

    bit_range = BitRange(r, p)
    coeff = {(i, j): 0.0 for i in range(r, p + 1) for j in range(i, p + 1)}
    for i, j, value in entries:
        coeff[(i, j)] = value
    return QuboProblem(range=bit_range, coefficients=coeff, offset=offset, a=a, b=b)
