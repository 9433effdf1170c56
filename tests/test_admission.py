"""Admission of the corrupt root against an exact-arithmetic oracle."""

import dataclasses
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import corruption_mfg as cm  # noqa: E402
from strategies import spread_params  # noqa: E402


def _exactly_admits_corrupt_root(p):
    """Whether the corrupt root is an equilibrium, in exact rationals.

    Corruption is optimal where ``x_H <= x_bar`` and Q rises through its one
    root in (0, 1), so the root is admitted iff ``x_bar > 0`` and either
    ``x_bar >= 1`` or ``Q(x_bar) >= 0``.  With ``q_soc = 0`` the threshold is
    infinite with the sign of the classifier bracket.
    """
    lam, r, b, f, q_soc, q_inf, w_R, w_H, w_C = (
        Fraction(getattr(p, name))
        for name in ("lam", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C"))
    bracket = r * (w_C - w_H) / (w_H - w_R + r * f) - b
    if q_soc == 0:
        return bracket > 0
    x_bar = bracket / q_soc
    if x_bar <= 0 or x_bar >= 1:
        return x_bar > 0
    alpha = (r + lam) * q_soc - r * q_inf
    beta = r * (q_inf - q_soc) + lam * r + lam * b + r * b
    return (alpha * x_bar + beta) * x_bar - r * b >= 0


@settings(max_examples=300, deadline=None)
@given(p=spread_params())
def test_corrupt_root_is_admitted_as_exact_arithmetic_decides(p):
    try:
        reports = cm.enumerate_equilibria(p)
    except (ArithmeticError, cm.SimplexError):
        # The corrupt root search fails at some spreads, a defect of its own.
        reject()
    roots = [rep for rep in reports if rep.provenance is cm.Provenance.CORRUPT_ROOT]
    if any(rep.behavior is cm.Behavior.INDIFFERENT for rep in roots):
        reject()  # a tie: both regimes are optimal within the tie band
    assert bool(roots) == _exactly_admits_corrupt_root(p)


def _exact_bracket_sign(p, rate):
    """The sign of the classifier bracket ``rate (w_C - w_H) / (w_H - w_R +
    rate f) - b``, in exact rationals."""
    rate, b, f, w_R, w_H, w_C = map(Fraction, (rate, p.b, p.f, p.w_R, p.w_H, p.w_C))
    bracket = rate * (w_C - w_H) / (w_H - w_R + rate * f) - b
    return (bracket > 0) - (bracket < 0)


def _threshold_sign(threshold):
    # +1 or -1 for an infinite threshold, 0 where the regimes tie everywhere.
    return 0 if threshold.indifferent_everywhere else int(math.copysign(1, threshold.value))


@pytest.mark.parametrize("p,sign", [
    # The exact bracket is 0; in floats it read above 0, so +inf and a corrupt
    # root alone.
    (cm.ModelParams(lam=1.0, r=57.51294743787694, b=28.717519896898885, f=0.0, q_soc=0.0,
                    q_inf=1.0, w_R=1.0, w_H=58.51294743787694, w_C=87.23046733477582), 0),
    # The exact bracket is +6.7e-16; in floats it read -1.8e-15, so -inf and the
    # honest boundary alone.
    (cm.ModelParams(lam=1.0, r=1.6848548794358387, b=13.823722273578996, f=0.0, q_soc=0.0,
                    q_inf=1.0, w_R=0.0, w_H=1.6848548794358387, w_C=15.508577153014835), 1),
], ids=["zero", "positive"])
def test_q_soc_zero_regime_follows_the_exact_bracket_sign(p, sign):
    # At q_soc = 0 the threshold is the bracket over 0; a bracket within
    # rounding of 0 must not flip the regime.
    assert _exact_bracket_sign(p, p.r) == sign
    assert _threshold_sign(cm.classifier_xbar(p)) == sign
    roots = [rep.behavior for rep in cm.enumerate_equilibria(p)
             if rep.provenance is cm.Provenance.CORRUPT_ROOT]
    assert roots == [cm.Behavior.INDIFFERENT if sign == 0 else cm.Behavior.CORRUPT]


@settings(max_examples=300, deadline=None)
@given(p=spread_params(), delta=st.one_of(st.none(), st.floats(1e-300, 1e300)))
def test_q_soc_zero_threshold_has_the_exact_bracket_sign(p, delta):
    p = dataclasses.replace(p, q_soc=0.0)
    if delta is None:
        threshold, rate = cm.classifier_xbar(p), p.r
    else:
        threshold, rate = cm.classifier_xbar_discounted(p, delta), p.r + delta
    assert _threshold_sign(threshold) == _exact_bracket_sign(p, rate)
