"""Deterministic uniform streams for the event simulators.

Stream contract ``event-rng v1``: stream ``(seed, stream_id)`` is the
philox4x64-10 counter-based generator keyed with the two 64-bit words
``(seed mod 2**64, stream_id mod 2**64)``, counter starting at zero.
Uniform doubles are successive 64-bit outputs mapped through
``(word >> 11) * 2**-53`` (53-bit mantissa, values in [0, 1)), and
exponential waiting times use the inverse transform ``-log1p(-u) / rate``.
Each simulator documents the order in which it consumes draws, so any
conforming philox4x64-10 implementation reproduces the same paths.

The size of the blocks in which outputs are generated is not part of
``event-rng v1``: philox output does not depend on how it is chunked, so
the block size changes only speed and memory, never a draw.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Blocks grow by doubling from the first size to the last, so a short
# stream (a tagged agent with a few jumps) converts few unused uniforms.
_FIRST_BLOCK = 32
_MAX_BLOCK = 4096
_INV_2_53 = 2.0**-53


def _blocks(bits: np.random.Philox):
    size = _FIRST_BLOCK
    while True:
        yield ((bits.random_raw(size) >> np.uint64(11)) * _INV_2_53).tolist()
        size = min(2 * size, _MAX_BLOCK)


class UniformStream:
    """Buffered uniform doubles from one (seed, stream) philox stream.

    ``uniform()`` returns the next double of the stream.  Blocks are lists
    of Python floats and ``uniform`` is the ``__next__`` of an iterator over
    them, so a draw runs no Python code and converts no numpy scalar.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        self.uniform = itertools.chain.from_iterable(_blocks(np.random.Philox(key=key))).__next__

    def exponential(self, rate: float) -> float:
        return -math.log1p(-self.uniform()) / rate
