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

``numpy.random`` is imported when the first stream is opened, not with this
module.  Only the ``ctmc`` command, ``simulate_population``,
``simulate_tagged_agent`` and ``deviation_gain`` open streams, so the
closed-form commands and the ODE ``simulate`` never load it.
"""

from __future__ import annotations

import functools
import itertools

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


@functools.cache
def _keyed_philox():
    """Return the function that makes a Philox keyed with two uint64 words.

    Built at the first stream, so ``numpy.random`` is imported only by a
    program that draws.
    """
    from numpy.random import Philox
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """Hands Philox the two key words as its seed state.

        Keyed through ``Philox(key=...)``, numpy first builds a
        ``SeedSequence`` from OS entropy, which the key then overrides;
        Philox asks this object for its two uint64 key words instead, and
        draws no entropy.
        """

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Philox(Key(words))


class UniformStream:
    """Buffered uniform doubles from one (seed, stream) philox stream.

    ``uniform()`` returns the next double of the stream.  Blocks are lists
    of Python floats and ``uniform`` is the ``__next__`` of an iterator over
    them, so a draw runs no Python code and converts no numpy scalar.
    """

    def __init__(self, seed: int, stream: int = 0):
        key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        self.uniform = itertools.chain.from_iterable(_blocks(_keyed_philox()(key))).__next__
