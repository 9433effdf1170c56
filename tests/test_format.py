"""The one-template row formatter agrees with format() on every float."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


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
    # Table rows use one "%.17g" template; every other real uses format().
    assert "%.17g" % v == format(v, ".17g")
