"""The vectorised Philox4x64-10 kernel against numpy's Philox generator."""

import numpy as np
import pytest
from helpers import uniform_matrix_oracle

from annealsolve import rng


def numpy_row(seed, stream, n):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 41])
def test_kernel_matches_numpy_philox(seed, n):
    # more streams than one mc_convergence slice draws at once
    n_streams = 2**15 + 1
    m = rng.uniform_matrix(seed, range(n_streams), range(n))
    assert m.shape == (n, n_streams)
    for t in (0, 1, 2**15 - 1, 2**15):
        np.testing.assert_array_equal(m[:, t], numpy_row(seed, t, n))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n_streams", [0, 1, 3])
def test_kernel_small_shapes(seed, n_streams):
    # several blocks and a partial last block
    m = rng.uniform_matrix(seed, range(n_streams), range(9))
    np.testing.assert_array_equal(m, uniform_matrix_oracle(seed, n_streams, 9).T)


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
@pytest.mark.parametrize("steps", [range(0, 4), range(1, 3), range(3, 10), range(6, 7), range(5, 41)])
def test_kernel_block_form_matches_numpy_philox(seed, steps):
    # step ranges with a partial first and a partial last block, on streams
    # that do not start at 0
    streams = range(1000, 1037)
    m = rng.uniform_matrix(seed, streams, steps)
    assert m.shape == (len(steps), len(streams))
    assert m.flags.c_contiguous
    for j in (0, 4, 5, len(streams) - 1):
        np.testing.assert_array_equal(m[:, j], numpy_row(seed, streams[j], steps.stop)[steps.start:])


def test_kernel_block_form_at_the_top_stream_id():
    streams = range(2**64 - 3, 2**64)
    m = rng.uniform_matrix(9, streams, range(2, 7))
    for j, t in enumerate(streams):
        np.testing.assert_array_equal(m[:, j], numpy_row(9, t, 7)[2:])


@pytest.mark.parametrize("streams,steps", [
    (range(0), range(5)), (range(7, 7), range(3, 9)), (range(4), range(0)),
    (range(9), range(6, 6)), (range(5, 2), range(2, 1)),
])
def test_kernel_empty_ranges(streams, steps):
    m = rng.uniform_matrix(0, streams, steps)
    assert m.shape == (len(steps), len(streams))


def test_rows_replay_single_streams():
    # mc --dump-traces replays stream t through uniforms(stream=t)
    m = rng.uniform_matrix(11, range(6), range(13))
    for t in range(6):
        np.testing.assert_array_equal(m[:, t], rng.uniforms(11, 13, stream=t))


def test_keys_outside_64_bits_are_rejected():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            rng.uniforms(bad, 5)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            rng.uniform_matrix(bad, range(2), range(5))
        with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*64\)"):
            rng.uniforms(0, 5, stream=bad)
    for streams in (range(-1, 3), range(2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError, match=r"stream must be in \[0, 2\*\*64\)"):
            rng.uniform_matrix(0, streams, range(5))
    with pytest.raises(ValueError, match="step 1"):
        rng.uniform_matrix(0, range(0, 6, 2), range(5))
    with pytest.raises(ValueError, match="steps must start at 0"):
        rng.uniform_matrix(0, range(2), range(-1, 5))
    np.testing.assert_array_equal(rng.uniforms(2**64 - 1, 5), numpy_row(2**64 - 1, 0, 5))
