"""Stationary dynamic-programming layer: value functions and best responses.

For a frozen background distribution ``x`` the tagged agent's long-run
average payoff solves a three-line stationary Bellman system.  Normalizing
``g_R = 0`` and shifting wages by ``w_R`` reduces it to a 2x2 linear system
per strategy profile; :func:`solve_regime` solves it in closed form for any
of the four profiles, with coefficients from the rate kernel
:func:`~corruption_mfg.model.transition_rates`, and returns the values.
The regime boundary is a single threshold ``x_bar`` on the honest fraction,
and one rule applies it, :func:`_regime_index`: corrupt below ``x_bar -
TIE_TOL``, honest above ``x_bar + TIE_TOL``, indifferent in the tie band
between and, at a NaN ``x_bar``, everywhere.  It takes floats and arrays
alike; :func:`regime_at`, the enumeration's admission and the sweep's grid
pass all read it.  At ``q_soc = 0`` the threshold is infinite, or the
regimes tie everywhere, by the exact sign of the classifier bracket, taken
in integers.  A discounted-criterion variant (no normalization, solved by
elimination) is provided alongside, all in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Behavior,
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    PopulationState,
    StrategyProfile,
    transition_rates,
)

__all__ = [
    "TIE_TOL", "BestResponse", "ClassifierThreshold", "ValueFunction", "best_response",
    "classifier_xbar", "classifier_xbar_discounted", "regime_at", "solve_discounted",
    "solve_regime",
]

# Absolute tolerance of the x_H vs x_bar comparisons in ``_regime_index``.
# Inside the band the agent is reported indifferent rather than letting
# round-off pick a regime.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class ValueFunction:
    """Stationary payoffs per state.

    Average-payoff values carry ``mu``, the absolute average payoff per
    unit time ``mu = r * g_H + w_R``, and use the ``g_R = 0`` convention
    on ``w_R``-shifted wages.  Discounted values are absolute and carry
    ``mu = None``.
    """

    g_R: float
    g_H: float
    g_C: float
    mu: float | None = None


@dataclass(frozen=True)
class ClassifierThreshold:
    """The regime threshold on the honest fraction, possibly infinite.

    ``value`` is +/-inf when ``q_soc = 0`` (sign of the bracket decides);
    ``indifferent_everywhere`` flags the measure-zero corner ``q_soc = 0``
    with a zero bracket, where both regimes tie at every ``x``.
    """

    value: float
    indifferent_everywhere: bool = False

    @property
    def _x_bar(self) -> float:
        """``value`` as :func:`_regime_index` reads it: NaN, indifferent at
        every ``x``, where the regimes tie everywhere."""
        return math.nan if self.indifferent_everywhere else self.value


def _bracket(p: ModelParams, rate: float) -> float:
    return rate * (p.w_C - p.w_H) / (p.w_H - p.w_R + rate * p.f) - p.b


def _bracket_numerator(p: ModelParams, rate: float) -> int:
    """The classifier bracket times its positive denominator, ``rate (w_C -
    w_H) - b (w_H - w_R + rate f)``, times ``2**3222``, in integers: each
    float times ``2**1074`` is one.  At ``rate = inf`` (``r + delta``
    overflowed) it is ``w_C - w_H - b f``, the limit over ``rate``, times
    ``2**2148``.  Only its sign is read, which is exact."""
    finite = rate < math.inf
    scaled = []
    for v in (p.w_C, p.w_H, p.w_R, p.b, p.f, rate if finite else 1.0):
        numerator, denominator = v.as_integer_ratio()
        scaled.append(numerator << (1075 - denominator.bit_length()))
    w_c, w_h, w_r, b, f, rate = scaled
    margin = ((w_c - w_h) << 1074) - b * f
    return rate * margin - (b * (w_h - w_r) << 1074) if finite else margin


def _threshold(p: ModelParams, rate: float) -> ClassifierThreshold:
    if not p.q_soc > 0.0:
        # x_bar is the bracket over 0: its exact sign picks +inf or -inf, or at
        # 0 a tie everywhere, so that the bracket's rounding flips no regime.
        numerator = _bracket_numerator(p, rate)
        return ClassifierThreshold(-math.inf if numerator < 0 else math.inf,
                                   indifferent_everywhere=numerator == 0)
    bracket = _bracket(p, rate)
    if not math.isfinite(bracket):
        # rate * f or rate * (w_C - w_H) overflowed: divide through by rate.
        # A zero denominator (f = 0, (w_H - w_R) / rate underflowed) is +inf.
        den = (p.w_H - p.w_R) / rate + p.f
        bracket = math.inf if den == 0.0 else (p.w_C - p.w_H) / den - p.b
    return ClassifierThreshold(bracket / p.q_soc)


def classifier_xbar(p: ModelParams) -> ClassifierThreshold:
    """Threshold ``(1/q_soc) [ r (w_C - w_H) / (w_H - w_R + r f) - b ]``.

    Corruption is individually optimal where ``x_H <= x_bar`` and honesty
    where ``x_H >= x_bar``.  The denominator is positive because
    ``w_H > w_R`` is required of valid parameters.
    """
    return _threshold(p, p.r)


def classifier_xbar_discounted(p: ModelParams, delta: float) -> ClassifierThreshold:
    """Discounted-criterion threshold: ``r`` is replaced by ``r + delta``.

    Reduces exactly to :func:`classifier_xbar` at ``delta = 0``.
    """
    return _threshold(p, p.r + delta)


def solve_regime(p: ModelParams, x: PopulationState, u: StrategyProfile) -> ValueFunction:
    """Average-payoff values ``(g, mu)`` of an agent that follows profile ``u``.

    They are the Poisson pair of ``u``'s generator.  On shifted wages with
    ``g_R = 0`` the two remaining lines are linear in ``(g_H, g_C)``::

        w_H + a (g_C - g_H)                            = r g_H
        w_C - k f + s (g_H - g_C) - k g_C              = r g_H

    with the C->R rate ``k = b + q_soc x_H``, the H->C rate ``a = lam u_H +
    q_inf x_C`` and the C->H rate ``s = lam u_C`` of
    :func:`~corruption_mfg.model.transition_rates`.  The common denominator
    ``r (s + a + k) + a k`` is strictly positive for valid parameters.
    """
    k, _, a, s = transition_rates(p, x.x_H, x.x_C, u)
    w_h = p.w_H - p.w_R
    fine = k * p.f
    # Each wage difference net of the fine is one correctly rounded sum, as
    # w_C may be close to w_H, w_R or k f and only the sum of all three is
    # small; r (net_c - w_h) is formed directly, not as r net_c - r w_h,
    # which cancels when w_C is close to w_H and r is large.
    net_c = math.fsum((p.w_C, -p.w_R, -fine))
    den = p.r * (s + a + k) + a * k
    g_C = (p.r * math.fsum((p.w_C, -p.w_H, -fine)) + a * net_c + s * w_h) / den
    g_H = (a * net_c + (s + k) * w_h) / den
    return ValueFunction(0.0, g_H, g_C, mu=p.r * g_H + p.w_R)


@dataclass(frozen=True)
class BestResponse:
    """Optimal behavior at a background ``x`` and the value that solves it."""

    behavior: Behavior
    value: ValueFunction


def regime_at(threshold: ClassifierThreshold, x_H: float) -> Behavior:
    """The optimal regime at honest fraction ``x_H``: :func:`_regime_index`'s.

    Corrupt when ``x_H < x_bar - TIE_TOL``, honest when ``x_H > x_bar +
    TIE_TOL``, indifferent inside the tie band and wherever
    ``threshold.indifferent_everywhere``.
    """
    return _BEHAVIORS[_regime_index(x_H, threshold._x_bar)]


_BEHAVIORS = tuple(Behavior)  # by the index of _regime_index


def _regime_index(x_H, x_bar):
    """The index in ``Behavior`` of the regime at ``x_H``: corrupt (0) below
    ``x_bar - TIE_TOL``, honest (1) above ``x_bar + TIE_TOL``, indifferent (2)
    between, and everywhere at a NaN ``x_bar``.  Floats and arrays alike."""
    return 2 - 2 * (x_H < x_bar - TIE_TOL) - (x_H > x_bar + TIE_TOL)


def best_response(p: ModelParams, x: PopulationState) -> BestResponse:
    """Classify the optimal regime at ``x`` by :func:`regime_at` and solve it.

    Inside the tie band both regime values agree within tolerance; only the
    corrupt profile is solved and reported.
    """
    behavior = regime_at(classifier_xbar(p), x.x_H)
    u = HONEST_PROFILE if behavior is Behavior.HONEST else CORRUPT_PROFILE
    return BestResponse(behavior, solve_regime(p, x, u))


def solve_discounted(
    p: ModelParams, x: PopulationState, delta: float, u: StrategyProfile
) -> ValueFunction:
    """Absolute discounted values of an agent that follows profile ``u``.

    Solves, by elimination, the three Bellman lines::

        (delta + r) g_R - r g_H                              = w_R
        (delta + a) g_H - a g_C                              = w_H
        (delta + s + k) g_C - s g_H - k g_R                  = w_C - k f

    with the C->R rate ``k = b + q_soc x_H``, the H->C rate ``a = lam u_H +
    q_inf x_C`` and the C->H rate ``s = lam u_C`` of ``u``.
    Lines 1-2 make ``g_R``, ``g_H`` affine in ``g_C``; line 3 then divides by
    ``delta + s (1 - h1) + k (1 - r1) >= delta > 0`` (``h1, r1`` the slopes
    of ``g_H``, ``g_R``), formed as a sum of positive terms.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0 for the discounted criterion")
    k, _, a, s = transition_rates(p, x.x_H, x.x_C, u)
    d_h = delta + a
    d_r = delta + p.r
    h0 = p.w_H / d_h
    r0 = (p.w_R + p.r * h0) / d_r
    den = delta * (1.0 + (s + k * (d_r + a) / d_r) / d_h)
    g_C = (p.w_C - k * p.f + s * h0 + k * r0) / den
    g_H = (p.w_H + a * g_C) / d_h
    g_R = (p.w_R + p.r * g_H) / d_r
    return ValueFunction(g_R, g_H, g_C)
