import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealsolve import (
    BitRange,
    DegenerateProblemError,
    SupportKind,
    SupportSpec,
    build_qubo,
    decode,
    enumerate_patterns,
    exhaustive_deviation,
    export_qubo,
    import_qubo,
)
from helpers import twos_complement_value


def brute_force_energies(problem):
    """Independent evaluation: decode each pattern by hand, expand the square."""
    n = problem.n_bits
    r, p = problem.range.r, problem.range.p
    rows = []
    for code in range(1 << n):
        bits = [(code >> k) & 1 for k in range(n)]
        x = twos_complement_value(bits, r, p)
        energy = 0.0
        for (i, j), value in problem.coefficients.items():
            if bits[i - r] and bits[j - r]:
                energy += value
        rows.append((bits, x, energy))
    return rows


def test_closed_form_coefficients():
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    assert problem.coefficients[(0, 0)] == 5 / 16
    assert problem.coefficients[(-1, -1)] == -3 / 16
    assert problem.coefficients[(-1, 0)] == -1 / 8
    assert problem.offset == 0.25


def test_evaluate_examples():
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    assert problem.evaluate([0, 0]) == 0.0
    assert problem.evaluate([1, 0]) == -3 / 16
    assert problem.evaluate([1, 1]) == 0.0  # -3/16 + 5/16 - 1/8


def test_evaluate_validates_input():
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    with pytest.raises(ValueError):
        problem.evaluate([1])
    with pytest.raises(ValueError):
        problem.evaluate([1, 2])


def test_degenerate_a_rejected():
    with pytest.raises(DegenerateProblemError):
        build_qubo(0.0, 1.0, BitRange(-1, 0))


@pytest.mark.parametrize("a,b,bit_range,message", [
    (float("inf"), 1.0, BitRange(-3, 1), "a and b must be finite"),
    (1.0, float("nan"), BitRange(-3, 1), "a and b must be finite"),
    (1e200, 1.0, BitRange(-3, 1), "overflows a float"),  # a * a is inf
    (1.0, 1e200, BitRange(-3, 1), "overflows a float"),  # so is the offset b * b
    (1e160, 1.0, BitRange(500, 510), "overflows a float"),  # math.ldexp raises
])
def test_non_finite_or_overflowing_qubo_rejected(a, b, bit_range, message):
    with pytest.raises(ValueError, match=message):
        build_qubo(a, b, bit_range)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.75, -1.3), (0.9, 1.7), (0.6, 0.0)])
@pytest.mark.parametrize("r,p", [(-1, 0), (-3, 1), (-4, 2)])
def test_energy_identity_against_brute_force(a, b, r, p):
    problem = build_qubo(a, b, BitRange(r, p))
    for bits, x, energy in brute_force_energies(problem):
        assert abs(energy + problem.offset - (a * x - b) ** 2) <= 1e-12


def test_b_zero_minimized_by_all_zero_pattern():
    problem = build_qubo(1.0, 0.0, BitRange(-2, 1))
    rows = brute_force_energies(problem)
    energies = [e for _, _, e in rows]
    assert energies[0] == 0.0
    assert min(energies) == 0.0
    assert all(e >= 0.0 for e in energies)


def test_argmin_decodes_to_exact_root():
    problem = build_qubo(0.5, 0.25, BitRange(-2, 0))
    rows = brute_force_energies(problem)
    best = min(rows, key=lambda row: row[2])
    assert best[1] == 0.5  # x = b/a exactly representable


@pytest.mark.parametrize("a,b", [(0.55, 0.3), (0.8, -0.9), (0.99, 1.99), (0.5, 0.33)])
def test_minimizer_is_closest_representable(a, b):
    bit_range = BitRange(-4, 1)
    problem = build_qubo(a, b, bit_range)
    _, values = enumerate_patterns(SupportSpec(SupportKind.TWOS_COMPLEMENT, bit_range))
    rows = brute_force_energies(problem)
    best_x = min(rows, key=lambda row: row[2])[1]
    target = b / a
    closest = np.abs(values - target).min()
    assert abs(best_x - target) <= closest + 1e-12


def test_exhaustive_deviation_zero_on_dyadic_instances():
    assert exhaustive_deviation(build_qubo(0.5, 0.5, BitRange(-1, 0))) == 0.0
    assert exhaustive_deviation(build_qubo(0.75, -1.25, BitRange(-3, 1))) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.5, 1.0, exclude_max=True),
    b=st.floats(-2.0, 2.0),
    p=st.integers(-2, 3),
    width=st.integers(1, 7),
)
def test_exhaustive_deviation_matches_a_scalar_fsum_oracle(a, b, p, width):
    # up to 8 qubits.  The oracle sums the coefficients evaluate() selects,
    # the offset and -target of each pattern once, exactly, with math.fsum;
    # the matrix form rounds each energy and two additions, so it may part
    # from the oracle by a few ulp of the largest term of the identity
    problem = build_qubo(a, b, BitRange(p - width, p))
    spec = SupportSpec(SupportKind.TWOS_COMPLEMENT, problem.range)
    r = problem.range.r
    scale, oracle = problem.offset, 0.0
    for code in range(1 << problem.n_bits):
        bits = [(code >> k) & 1 for k in range(problem.n_bits)]
        terms = [v for (i, j), v in problem.coefficients.items() if bits[i - r] and bits[j - r]]
        target = (a * decode(bits, spec) - b) ** 2
        assert problem.evaluate(bits) == sum(terms)
        scale = max(scale, abs(math.fsum(terms)))
        oracle = max(oracle, abs(math.fsum([*terms, problem.offset, -target])))
    deviation = exhaustive_deviation(problem)
    assert abs(deviation - oracle) <= 4 * math.ulp(scale)
    assert deviation <= 1e-12


def test_coo_export_layout():
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    text = export_qubo(problem, "coo")
    lines = text.strip().splitlines()
    assert lines[0].startswith("# qubo -1 0 ")
    assert len(lines) == 1 + 3  # header plus one line per nonzero


def test_export_drops_exact_zeros():
    # b = 0 zeroes no coefficient here, so build one with a crafted zero
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    problem.coefficients[(-1, 0)] = 0.0
    assert len(export_qubo(problem, "coo").strip().splitlines()) == 1 + 2
    assert len(import_qubo(export_qubo(problem, "coo"), "coo").coefficients) == 3


@pytest.mark.parametrize("format", ["coo", "json"])
def test_round_trip_is_bit_exact(format):
    problem = build_qubo(0.7231, -1.9371, BitRange(-5, 2))
    back = import_qubo(export_qubo(problem, format), format)
    assert back.range == problem.range
    assert back.coefficients == problem.coefficients
    assert back.offset == problem.offset
    assert back.a == problem.a and back.b == problem.b


def test_json_export_contains_expected_entry():
    import json

    doc = json.loads(export_qubo(build_qubo(0.5, 0.5, BitRange(-1, 0)), "json"))
    assert [-1, 0, -0.125] in doc["entries"]
    assert doc["range"] == [-1, 0]


def test_unknown_format_rejected():
    problem = build_qubo(0.5, 0.5, BitRange(-1, 0))
    with pytest.raises(ValueError):
        export_qubo(problem, "xml")


def test_coo_import_skips_blank_and_comment_lines():
    problem = build_qubo(0.7, 0.5, BitRange(-2, 1))
    lines = export_qubo(problem, "coo").splitlines()
    text = "\n".join(["# written by hand", "", *lines[:2], "   ", "# a note", *lines[2:], ""])
    back = import_qubo(text, "coo")
    assert back.coefficients == problem.coefficients
    assert (back.range, back.offset, back.a, back.b) == (
        problem.range, problem.offset, problem.a, problem.b)


def test_coo_import_without_header_is_rejected():
    body = export_qubo(build_qubo(0.7, 0.5, BitRange(-2, 1)), "coo").splitlines()[1:]
    with pytest.raises(ValueError, match="missing '# qubo r p a b offset' header line"):
        import_qubo("\n".join(body), "coo")
    with pytest.raises(ValueError):
        import_qubo("", "xml")
