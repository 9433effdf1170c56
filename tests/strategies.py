"""Hypothesis strategies for the property tests; only modules that use hypothesis import this."""

from hypothesis import assume
from hypothesis import strategies as st

from support import make_params


@st.composite
def spread_params(draw, max_span=32.0):
    """Hypothesis strategy: a valid set whose nine magnitudes (the five rates,
    f, w_R and the two wage gaps) are log-uniform over a span of 2 to
    ``max_span`` decades around 1; f, q_soc, q_inf and w_R are each zero at
    times."""
    span = draw(st.floats(2.0, max_span))
    magnitudes = draw(st.lists(st.floats(-span / 2, span / 2).map(lambda e: 10.0**e),
                               min_size=9, max_size=9))
    lam, r, b, f, q_soc, q_inf, w_R, gap_h, gap_c = magnitudes
    zero_f, zero_q_soc, zero_q_inf, zero_w_R = draw(st.lists(st.booleans(), min_size=4,
                                                             max_size=4))
    w_R = 0.0 if zero_w_R else w_R
    w_H = w_R + gap_h
    # A gap below the rounding of w_R leaves w_H = w_R, which is invalid.
    assume(w_H > w_R and w_H + gap_c > w_H)
    return make_params(lam, r, b, 0.0 if zero_f else f, 0.0 if zero_q_soc else q_soc,
                       0.0 if zero_q_inf else q_inf, w_R, w_H, w_H + gap_c)
