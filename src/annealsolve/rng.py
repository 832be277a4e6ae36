"""Deterministic variate streams from a counter-based generator.

Streams are keyed by (seed, stream): stream t of an experiment sees the same
variates regardless of how many other streams run or in what order, so
parallel trajectories are reproducible independent of scheduling.

Every stream is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) with key (seed, stream) and a counter whose word 0
is the block index + 1 (words 1-3 zero).  Each block yields four 64-bit
words, used in order, and a word maps to the uniform (raw >> 11) * 2**-53.
This is numpy's ``Philox(key=[seed, stream])`` layout: ``generator``,
``uniforms`` and ``normals`` use numpy's generator directly, and
``uniform_matrix`` evaluates the same rounds for many streams at once with
numpy array arithmetic.  numpy's generator is the reference the vectorised
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

# Tile of streams x blocks the kernel evaluates at once, so temporaries stay
# small next to the output.  On 50 000 x 40 and 5000 x 400 (2-core Xeon),
# tiles of 2**14 to 2**16 words ran within 10% of each other; 2**13- and
# 2**17-word tiles were 10-30% slower.
_CHUNK_STREAMS = 2048
_CHUNK_BLOCKS = 16


def _check_key(seed: int, stream: int) -> None:
    """Reject a seed or stream id that is not a 64-bit key word."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < _KEY_BOUND:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    _check_key(seed, stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n uniforms on [0, 1); element k is the step-k variate of the stream."""
    return generator(seed, stream).random(n)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit product m * x.

    The high word is summed from 32-bit limb products, none of which
    overflows 64 bits (Hacker's Delight, 8-2); the low word is numpy's
    wrapping uint64 product.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = m_lo * x_hi + ((m_lo * x_lo) >> _SHIFT32)
    u = m_hi * x_lo + (t & _LOW32)
    hi = m_hi * x_hi + (t >> _SHIFT32) + (u >> _SHIFT32)
    return np.uint64(m) * x, hi


def _philox4x64(ctr0: np.ndarray, seed: int, streams: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words, shape (streams, blocks, 4).

    ctr0 has shape (1, blocks) and streams shape (streams, 1); counter words
    1-3 are zero.  Operands broadcast, so the early rounds, where some words
    depend on the block or the stream alone, work on small arrays.
    """
    zero = np.zeros((1, 1), dtype=np.uint64)
    x0, x1, x2, x3 = ctr0, zero, zero, zero
    for r in range(_ROUNDS):
        k0 = np.uint64((int(seed) + r * _W0) % _KEY_BOUND)
        k1 = streams + np.uint64(r * _W1 % _KEY_BOUND)
        lo0, hi0 = _mulhilo(_M0, x0)
        lo1, hi1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)


def uniform_matrix(seed: int, n_streams: int, n: int) -> np.ndarray:
    """Row t holds the uniforms of stream t; shape (n_streams, n).

    Row t equals ``uniforms(seed, n, stream=t)`` bit for bit.
    """
    _check_key(seed, max(n_streams - 1, 0))  # the last stream id
    out = np.empty((n_streams, n))
    n_blocks = -(-n // 4)
    for t0 in range(0, n_streams, _CHUNK_STREAMS):
        t1 = min(t0 + _CHUNK_STREAMS, n_streams)
        streams = np.arange(t0, t1, dtype=np.uint64)[:, None]
        for b0 in range(0, n_blocks, _CHUNK_BLOCKS):
            b1 = min(b0 + _CHUNK_BLOCKS, n_blocks)
            ctr0 = np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[None, :]
            words = _philox4x64(ctr0, seed, streams).reshape(t1 - t0, -1)
            cols = min(4 * b1, n) - 4 * b0
            np.multiply(words[:, :cols] >> np.uint64(11), 2.0**-53,
                        out=out[t0:t1, 4 * b0:4 * b0 + cols])
    return out


def normals(seed: int, n: int, stream: int = 0) -> np.ndarray:
    return generator(seed, stream).standard_normal(n)
