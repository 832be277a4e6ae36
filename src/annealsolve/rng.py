"""Deterministic variate streams from a counter-based generator.

Streams are keyed by (seed, stream): stream t of an experiment sees the same
variates regardless of how many other streams run or in what order, so
parallel trajectories are reproducible independent of scheduling.

Every stream is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) with key (seed, stream) and a counter whose word 0
is the block index + 1 (words 1-3 zero).  Each block yields four 64-bit
words, the variates of BLOCK_STEPS consecutive steps, used in order, and a
word maps to the uniform (raw >> 11) * 2**-53.  This is numpy's
``Philox(key=[seed, stream])`` layout: ``generator``, ``uniforms`` and
``normals`` use numpy's generator directly, and ``uniform_matrix``
evaluates the same rounds with numpy array arithmetic for a range of
streams over a range of steps, returned step-major (one contiguous row per
step).  It does not tile: one call evaluates every requested stream and
block in one broadcast, making about 16 temporaries the size of its
output per round, of which about three are live at once, so callers cut
their requests into tiles (``mc_convergence`` asks for one block of one
slice at a time).  numpy's generator is the reference the vectorised
kernel must match bit for bit.
"""

from __future__ import annotations

import numpy as np

# seeds and stream ids are 64-bit Philox key words
_KEY_BOUND = 1 << 64

_ROUNDS = 10
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15  # key schedule: golden ratio
_W1 = 0xBB67AE8584CAA73B  # key schedule: sqrt(3) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# the four words of one counter block are the variates of four consecutive steps
BLOCK_STEPS = 4


def check_key(seed: int, stream: int) -> None:
    """Reject a seed or stream id that is not a 64-bit key word."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < _KEY_BOUND:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    check_key(seed, stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n uniforms on [0, 1); element k is the step-k variate of the stream."""
    return generator(seed, stream).random(n)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit product m * x.

    The high word is summed from 32-bit limb products, none of which
    overflows 64 bits (Hacker's Delight, 8-2); the low word is numpy's
    wrapping uint64 product.  The limbs are updated in place: each
    temporary is a fresh array, and allocating one per operation took three
    times as long on 25 000-word operands.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = m_lo * x_lo
    t >>= _SHIFT32
    t += m_lo * x_hi  # no carry: (2^32 - 1)^2 + 2^32 - 1 < 2^64
    x_lo *= m_hi
    x_lo += t & _LOW32
    x_lo >>= _SHIFT32  # the carry out of the middle limb sum
    x_hi *= m_hi
    t >>= _SHIFT32
    x_hi += t
    x_hi += x_lo
    return np.uint64(m) * x, x_hi


def _philox4x64(ctr0: np.ndarray, seed: int, streams: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words, step-major: shape (4 * blocks, streams).

    ctr0 has shape (blocks, 1) and streams shape (1, streams); counter words
    1-3 are zero.  Operands broadcast, so the early rounds, where some words
    depend on the block or the stream alone, work on small arrays.  Row
    4 * i + w holds word w of block i, the variate of step 4 * i + w.
    """
    zero = np.zeros((1, 1), dtype=np.uint64)
    x0, x1, x2, x3 = ctr0, zero, zero, zero
    for r in range(_ROUNDS):
        k0 = np.uint64((int(seed) + r * _W0) % _KEY_BOUND)
        k1 = streams + np.uint64(r * _W1 % _KEY_BOUND)
        lo0, hi0 = _mulhilo(_M0, x0)
        lo1, hi1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=1)
    return words.reshape(BLOCK_STEPS * ctr0.shape[0], streams.shape[1])


def uniform_matrix(seed: int, streams: range, steps: range) -> np.ndarray:
    """Uniforms of a stream range over a step range, step-major.

    The result has shape (len(steps), len(streams)), one contiguous row per
    step: entry [k, j] is the step ``steps[k]`` variate of stream
    ``streams[j]``, equal bit for bit to
    ``uniforms(seed, steps[k] + 1, stream=streams[j])[-1]``.  Both ranges
    must be contiguous (step 1).
    """
    if streams.step != 1 or steps.step != 1:
        raise ValueError("stream and step ranges must have step 1")
    check_key(seed, streams.start)
    check_key(seed, max(streams.stop - 1, streams.start))  # the last stream id
    if steps.start < 0:
        raise ValueError(f"steps must start at 0 or later, got {steps.start}")
    n0, n1 = steps.start, steps.start + len(steps)
    b0, b1 = n0 // BLOCK_STEPS, -(-n1 // BLOCK_STEPS)
    ctr0 = np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[:, None]
    ids = np.uint64(streams.start) + np.arange(len(streams), dtype=np.uint64)[None, :]
    words = _philox4x64(ctr0, seed, ids)[n0 - BLOCK_STEPS * b0:n1 - BLOCK_STEPS * b0]
    return (words >> np.uint64(11)) * 2.0**-53


def normals(seed: int, n: int, stream: int = 0) -> np.ndarray:
    return generator(seed, stream).standard_normal(n)
