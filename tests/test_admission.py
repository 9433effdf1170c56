"""Admission of the corrupt root against an exact-arithmetic oracle."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402

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
