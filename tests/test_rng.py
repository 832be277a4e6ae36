"""The vectorised Philox4x64-10 kernel against numpy's Philox generator."""

import numpy as np
import pytest

from annealsolve import (
    BitRange,
    BoltzmannModel,
    NormalModel,
    SupportKind,
    TruncNormalModel,
    mc_convergence,
    preset,
    rng,
)

CHUNK = rng._CHUNK_STREAMS


def numpy_row(seed, stream, n):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def per_stream_uniform_matrix(seed, n_streams, n):
    """One numpy generator per stream: the loop the kernel replaced."""
    out = np.empty((n_streams, n))
    for t in range(n_streams):
        out[t] = numpy_row(seed, t, n)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 41])
def test_kernel_matches_numpy_philox(seed, n):
    m = rng.uniform_matrix(seed, CHUNK + 1, n)
    assert m.shape == (CHUNK + 1, n)
    for t in (0, 1, CHUNK - 1, CHUNK):  # both sides of the chunk boundary
        np.testing.assert_array_equal(m[t], numpy_row(seed, t, n))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n_streams", [0, 1, 3])
def test_kernel_small_and_block_tiled_shapes(seed, n_streams):
    # long enough for two block tiles and a partial last block
    n = 4 * rng._CHUNK_BLOCKS + 5
    m = rng.uniform_matrix(seed, n_streams, n)
    np.testing.assert_array_equal(m, per_stream_uniform_matrix(seed, n_streams, n))


def test_rows_replay_single_streams():
    # mc --dump-traces replays stream t through uniforms(stream=t)
    m = rng.uniform_matrix(11, 6, 13)
    for t in range(6):
        np.testing.assert_array_equal(m[t], rng.uniforms(11, 13, stream=t))


def test_keys_outside_64_bits_are_rejected():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            rng.uniforms(bad, 5)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            rng.uniform_matrix(bad, 2, 5)
        with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*64\)"):
            rng.uniforms(0, 5, stream=bad)
    np.testing.assert_array_equal(rng.uniforms(2**64 - 1, 5), numpy_row(2**64 - 1, 0, 5))


@pytest.mark.parametrize(
    "model",
    [
        NormalModel(),
        preset("a2"),
        TruncNormalModel(-1.0, 1.5),
        BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)),
        BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)),
    ],
)
def test_mc_convergence_unchanged_by_kernel(model, monkeypatch):
    kwargs = dict(a=0.6, b=0.9, beta=0.7, s=1.3, n_traj=CHUNK + 3, n_iter=40, seed=7)
    fast = mc_convergence(model, **kwargs)
    monkeypatch.setattr(rng, "uniform_matrix", per_stream_uniform_matrix)
    ref = mc_convergence(model, **kwargs)
    np.testing.assert_array_equal(fast.median_log_error, ref.median_log_error)
    assert fast.slope == ref.slope or (np.isnan(fast.slope) and np.isnan(ref.slope))
    assert (fast.diverged_fraction, fast.s_scaled_outcome) == (
        ref.diverged_fraction, ref.s_scaled_outcome
    )
