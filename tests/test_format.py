"""Python's ``"%.17g"``, and the array formatter that writes it in tables.

``corruption_mfg._g17`` must write exactly ``"%.17g" % v`` for every
float64 and ``"%d" % n`` for every count, whether a value takes its numpy
path or its ``%`` fallback; and ``"%.17g"`` must read as ``format()``.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corruption_mfg import _g17, cli  # noqa: E402
from support import THREE_EQ_CONFIG  # noqa: E402


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)
def test_percent_format_matches_g17(v):
    # The CLI writes every real with "%.17g"; it must read as format() does.
    assert "%.17g" % v == format(v, ".17g")


def _texts(fields):
    """Each field's text: its bytes with the NULs dropped."""
    lines = np.empty((len(fields), fields.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = fields
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _mismatches(values):
    """``(value, written, wanted)`` for each value ``g17`` does not write as ``%``."""
    values = np.asarray(values, dtype=np.float64)
    fields = _g17.g17(values)
    assert fields.shape == (len(values), _g17.FIELD)
    written = _texts(fields)
    return [(v, got, "%.17g" % v) for v, got in zip(values.tolist(), written)
            if got != "%.17g" % v]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, -np.inf),
                                 np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_every_power_of_ten_and_its_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert _mismatches(_with_neighbours(powers)) == []


def test_every_power_of_two():
    assert _mismatches(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))) == []


def test_subnormal_edges_zeros_infinities_and_nans():
    edges = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    assert _mismatches(_with_neighbours(edges)) == []


def test_random_bit_patterns():
    rng = np.random.default_rng(20250)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    assert _mismatches(bits.view(np.float64)) == []


def test_decimal_grids_and_ties():
    # Grids print with trailing zeros dropped; m / 2**17 has an 18th digit 5,
    # a tie between two 17-digit numbers, for m odd.
    grids = [np.arange(10_000) * step for step in (0.01, 0.03, 1e-5, 1e15, 7.5)]
    ties = (2**17 + np.arange(1, 2**12, 2)) / 2**17
    assert _mismatches(np.concatenate(grids + [ties, ties * 1e-7])) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_any_floats(values):
    assert _mismatches(values) == []


def _simulate_text():
    cfg = cli.parse_config(THREE_EQ_CONFIG + "t_end = 30\n")
    pieces = []
    cli.cmd_simulate(cfg, pieces.append)
    return "".join(pieces)


def test_forced_fallback_writes_the_same_bytes(monkeypatch):
    # TOL = 0.5 sends every value to "%", TOL = -1 none; both must write
    # what the default band writes.  The values are finite: NaN and +-inf
    # always take "%".
    rng = np.random.default_rng(7)
    values = np.concatenate([rng.random(2000), rng.random(2000) * 1e-9, np.arange(2000) * 0.03,
                             (2**17 + np.arange(1, 2000, 2)) / 2**17,
                             rng.integers(0, 0x7FF << 52, 2000).view(np.float64)])
    texts, table = _texts(_g17.g17(values)), _simulate_text()
    for tol, fallbacks in ((0.5, len(values)), (-1.0, 0)):
        monkeypatch.setattr(_g17, "TOL", tol)
        assert len(_g17._round(values)[2]) == fallbacks
        assert _texts(_g17.g17(values)) == texts
        assert _simulate_text() == table


def _counts_texts(values):
    fields = _g17.d(np.asarray(values, dtype=np.int64))
    assert fields.shape[1] in (4, 8, 12, 16)
    return _texts(fields)


@pytest.mark.parametrize("top", [0, 9, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 2**53])
def test_counts_match_percent_d(top):
    # Each array's largest count sets the field width; every smaller count
    # must still drop its leading zeros, whole groups of them too.
    edges = sorted({v for k in range(17) for v in (10**k - 1, 10**k, 10**k + 1) if 0 <= v <= top})
    values = np.array([0, *edges, top], dtype=np.int64)
    assert _counts_texts(values) == ["%d" % v for v in values.tolist()]


def test_random_counts_match_percent_d():
    rng = np.random.default_rng(11)
    values = (rng.integers(0, 2**53, 5000) >> rng.integers(0, 53, 5000)).astype(np.int64)
    assert _counts_texts(values) == ["%d" % v for v in values.tolist()]
