"""The ``event-rng v1`` draw order of :class:`UniformStream`."""

import numpy as np
import pytest

from corruption_mfg._rng import UniformStream

# (seed, stream, first four uniforms), the leading values recorded before
# blocks were generated in growing sizes.  The pairs exercise the key
# reduction mod 2**64: a seed above 2**63 and a negative stream id.
PINNED = [
    (2**63 + 12345, 3,
     (0.6979218286049476, 0.7843581075305732, 0.4102146709141302, 0.7866645078131468)),
    (7, -5,
     (0.3846582682783649, 0.18479777894969596, 0.21403027292907495, 0.17112612364708124)),
]


@pytest.mark.parametrize("seed,stream,leading", PINNED)
def test_uniform_stream_draw_order(seed, stream, leading):
    # 10,000 draws cross every block-size boundary; the reference is one
    # philox call, so the draws may not depend on how the stream is chunked.
    n = 10_000
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    reference = (np.random.Philox(key=key).random_raw(n) >> np.uint64(11)) * 2.0**-53
    rng = UniformStream(seed, stream)
    draws = [rng.uniform() for _ in range(n)]
    assert all(type(u) is float for u in draws)
    assert draws == reference.tolist()
    assert tuple(draws[:4]) == leading
