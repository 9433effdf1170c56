"""The one regime solver gives the bits of the two per-regime closed forms it replaced."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import corruption_mfg as cm  # noqa: E402
from support import make_params  # noqa: E402


# The two per-regime formulas as they stood before the merge, kept as the
# reference: (g_H, g_C, mu).
def corrupt_reference(p, x):
    k = p.b + p.q_soc * x.x_H
    a = p.lam + p.q_inf * x.x_C
    w_h = p.w_H - p.w_R
    net_c = (p.w_C - p.w_R) - k * p.f
    den = p.r * (a + k) + a * k
    g_C = ((p.r + a) * net_c - p.r * w_h) / den
    g_H = (a * net_c + k * w_h) / den
    return g_H, g_C, p.r * g_H + p.w_R


def honest_reference(p, x):
    k = p.b + p.q_soc * x.x_H
    c = p.q_inf * x.x_C
    w_h = p.w_H - p.w_R
    net_c = (p.w_C - p.w_R) - k * p.f
    den = p.r * (p.lam + c + k) + c * k
    g_C = ((p.r + c) * net_c + (p.lam - p.r) * w_h) / den
    g_H = (c * net_c + (p.lam + k) * w_h) / den
    return g_H, g_C, p.r * g_H + p.w_R


REFERENCES = {cm.Behavior.CORRUPT: corrupt_reference, cm.Behavior.HONEST: honest_reference}

_DECADES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)  # 16 decades
_OR_ZERO = st.one_of(st.just(0.0), _DECADES)
_CORNERS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
            (0.5, 0.0, 0.5)]
_STATES = st.one_of(
    st.sampled_from(_CORNERS),
    st.tuples(*[st.floats(0.0, 1.0)] * 3)
    .filter(lambda x: sum(x) > 0.0)
    .map(lambda x: tuple(v / sum(x) for v in x)),
)


@settings(max_examples=400, deadline=None)
@given(rates=st.tuples(_DECADES, _DECADES, _DECADES, _OR_ZERO, _OR_ZERO, _OR_ZERO),
       wages=st.tuples(st.one_of(st.just(0.0), _DECADES), _DECADES, _DECADES),
       x=_STATES, regime=st.sampled_from(list(REFERENCES)))
def test_solve_regime_matches_per_regime_formulas_bit_for_bit(rates, wages, x, regime):
    lam, r, b, f, q_soc, q_inf = rates
    w_R, gap_h, gap_c = wages
    w_H = w_R + gap_h
    w_C = w_H + gap_c
    p = cm.validate_params(make_params(lam=lam, r=r, b=b, f=f, q_soc=q_soc, q_inf=q_inf,
                                       w_R=w_R, w_H=w_H, w_C=w_C))
    x = cm.PopulationState(*x)
    sol = cm.solve_regime(p, x, regime)
    g_H, g_C, mu = REFERENCES[regime](p, x)
    # float.hex, not ==: a -0.0 where the reference has 0.0 fails.
    assert sol.g_H.hex() == g_H.hex()
    assert sol.g_C.hex() == g_C.hex()
    assert sol.mu.hex() == mu.hex()
    assert sol.g_R == 0.0


def test_solve_regime_rejects_indifferent():
    x = cm.PopulationState(0.2, 0.3, 0.5)
    with pytest.raises(ValueError, match="indifferent"):
        cm.solve_regime(make_params(), x, cm.Behavior.INDIFFERENT)
