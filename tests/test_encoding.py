import math

import numpy as np
import pytest

import annealsolve.encoding
from annealsolve import (
    BitRange,
    SupportKind,
    SupportSpec,
    SupportTooLargeError,
    decode,
    enumerate_patterns,
    enumerate_support,
)
from helpers import twos_complement_value

ALL_KINDS = list(SupportKind)


def test_bit_range_requires_r_below_p():
    with pytest.raises(ValueError):
        BitRange(0, 0)
    with pytest.raises(ValueError):
        BitRange(2, -1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_all_zero_bits(kind):
    spec = SupportSpec(kind, BitRange(-2, 1))
    assert decode([0] * spec.n_bits, spec) == 0.0


def test_decode_twos_complement_examples():
    spec = SupportSpec(SupportKind.TWOS_COMPLEMENT, BitRange(-1, 0))
    # theta = -1 + 1/2 = -1/2; bits are (q_{-1}, q_0)
    assert decode([1, 0], spec) == 0.5
    assert decode([0, 1], spec) == -0.5
    assert decode([1, 1], spec) == 0.0


def test_decode_positive_binary_expansion():
    spec = SupportSpec(SupportKind.POSITIVE, BitRange(-2, 0))
    assert decode([1, 1], spec) == 0.75


def test_decode_signed_magnitude_sign_bit():
    spec = SupportSpec(SupportKind.SIGNED_SYMMETRIC, BitRange(-1, 1))
    assert decode([1, 0, 0], spec) == 0.5
    assert decode([1, 0, 1], spec) == -0.5
    assert decode([0, 1, 1], spec) == -1.0


def test_decode_validates_length_and_bits():
    spec = SupportSpec(SupportKind.POSITIVE, BitRange(-2, 0))
    with pytest.raises(ValueError):
        decode([1], spec)
    with pytest.raises(ValueError):
        decode([1, 2], spec)


def test_enumerate_support_examples():
    sym = SupportSpec(SupportKind.SIGNED_SYMMETRIC, BitRange(0, 1))
    assert enumerate_support(sym).tolist() == [-1.0, 0.0, 1.0]

    pos = SupportSpec(SupportKind.POSITIVE, BitRange(-1, 1))
    assert enumerate_support(pos).tolist() == [0.0, 0.5, 1.0, 1.5]

    tc = SupportSpec(SupportKind.TWOS_COMPLEMENT, BitRange(-1, 0))
    bits, values = enumerate_patterns(tc)
    assert bits.shape == (4, 2)
    assert enumerate_support(tc).tolist() == [-0.5, 0.0, 0.5]


def test_enumeration_guard():
    spec = SupportSpec(SupportKind.POSITIVE, BitRange(-31, 0))
    with pytest.raises(SupportTooLargeError):
        enumerate_support(spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("r,p", [(-1, 0), (-3, 1), (0, 3), (-2, 2)])
def test_support_properties(kind, r, p):
    spec = SupportSpec(kind, BitRange(r, p))
    values = enumerate_support(spec)

    # strictly increasing distinct values inside the stated bounds
    assert np.all(np.diff(values) > 0)
    bound = math.ldexp(1.0, p) - math.ldexp(1.0, r)
    assert values.min() >= -bound and values.max() <= bound

    # grid spacing is a multiple of 2^r
    steps = np.diff(values) / math.ldexp(1.0, r)
    assert np.allclose(steps, np.round(steps), atol=0.0)

    if kind is SupportKind.POSITIVE:
        assert values.min() == 0.0
        assert values.size == 2 ** (p - r)
    else:
        # symmetric set: v present iff -v present
        assert set(values.tolist()) == set((-values).tolist())
    if kind is SupportKind.SIGNED_SYMMETRIC:
        assert values.size == 2 ** (p - r + 1) - 1


@pytest.mark.parametrize("r,p", [(-2, 1), (-1, 2)])
def test_positive_is_nonnegative_half_of_symmetric(r, p):
    sym = enumerate_support(SupportSpec(SupportKind.SIGNED_SYMMETRIC, BitRange(r, p)))
    pos = enumerate_support(SupportSpec(SupportKind.POSITIVE, BitRange(r, p)))
    assert pos.tolist() == [v for v in sym.tolist() if v >= 0.0]


def test_twos_complement_patterns_match_independent_expansion():
    spec = SupportSpec(SupportKind.TWOS_COMPLEMENT, BitRange(-3, 1))
    bits, values = enumerate_patterns(spec)
    assert bits.shape[0] == 2 ** (spec.range.width + 1)
    for row, value in zip(bits, values):
        assert value == twos_complement_value(row.tolist(), -3, 1)


def test_decode_matches_enumeration():
    for kind in ALL_KINDS:
        spec = SupportSpec(kind, BitRange(-2, 1))
        bits, values = enumerate_patterns(spec)
        for row, value in zip(bits, values):
            assert decode(row.tolist(), spec) == value


def _oracle_specs(max_bits=12):
    # every kind and every width up to max_bits qubits, at several exponents
    for kind in ALL_KINDS:
        for r in (-9, -3, 0, 2):
            for width in range(1, max_bits + 1):
                spec = SupportSpec(kind, BitRange(r, r + width))
                if spec.n_bits <= max_bits:
                    yield spec


def test_support_equals_the_pattern_oracle_without_patterns(monkeypatch):
    specs = list(_oracle_specs())
    oracles = [np.unique(enumerate_patterns(spec)[1] + 0.0) for spec in specs]
    calls = []

    def counting(spec):
        calls.append(spec)
        return enumerate_patterns(spec)

    monkeypatch.setattr(annealsolve.encoding, "enumerate_patterns", counting)
    for spec, oracle in zip(specs, oracles):
        values = enumerate_support(spec)
        assert values.dtype == oracle.dtype
        assert np.array_equal(values, oracle), spec
        assert not np.signbit(values[values == 0.0]).any(), spec
    assert len(specs) > 100
    assert calls == []


def test_enumerators_share_one_size_guard():
    spec = SupportSpec(SupportKind.SIGNED_SYMMETRIC, BitRange(-30, 0))
    for enumerate_ in (enumerate_support, enumerate_patterns):
        with pytest.raises(SupportTooLargeError, match="^31 bits exceeds enumeration limit 30$"):
            enumerate_(spec)


def _shift_and_mask_patterns(spec):
    # the int64 shift-and-mask enumeration, with values from the same columns
    n, w = spec.n_bits, spec.range.width
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    magnitude = bits[:, :w].astype(float) @ np.ldexp(1.0, spec.range.r + np.arange(w))
    if spec.kind is SupportKind.POSITIVE:
        return bits, magnitude
    if spec.kind is SupportKind.TWOS_COMPLEMENT:
        return bits, magnitude + bits[:, -1] * spec.range.theta
    return bits, np.where(bits[:, -1] == 1, -magnitude, magnitude)


def test_patterns_equal_the_shift_and_mask_oracle():
    specs = list(_oracle_specs())
    assert {spec.n_bits for spec in specs} == set(range(1, 13))
    for spec in specs:
        bits, values = enumerate_patterns(spec)
        want_bits, want_values = _shift_and_mask_patterns(spec)
        assert bits.dtype == want_bits.dtype and values.dtype == want_values.dtype, spec
        assert np.array_equal(bits, want_bits), spec
        # bitwise, so sign-magnitude's -0.0 must stay -0.0
        assert values.tobytes() == want_values.tobytes(), spec
        if spec.kind is SupportKind.SIGNED_SYMMETRIC:
            assert np.signbit(values[1 << spec.range.width]), spec
