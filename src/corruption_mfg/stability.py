"""Linear stability of the stationary equilibria.

Mass conservation makes the third direction redundant, so the kinetics are
reduced to the plane ``(x_H, x_C)`` via ``x_R = 1 - x_H - x_C`` and a fixed
point is classified through the 2x2 Jacobian there: asymptotically stable
iff its trace is negative and its determinant positive (equivalently both
eigenvalue real parts negative).

An equilibrium's classification comes from the closed-form rule of its
type wherever that rule is conclusive: a sufficient band on ``q_soc -
q_inf`` for the corrupt root, the explicit boundary eigenvalues ``{-r,
q_inf - q_soc - lam - b}`` for the all-honest point, and positivity of both
characteristic coefficients for the honest interior point.  There the
Jacobian entry ``-(b + lam) + (q_inf - q_soc) x_H`` vanishes, so the
coefficients are explicit: ``-trace = r + q_inf x_C`` and ``det = (q_inf -
q_soc) x_C (r - lam + q_inf x_H)``.  Only where the rule is inconclusive
(the corrupt root outside its band, an interior coefficient within the
margin) do the eigenvalue real parts decide.

The margin band belongs to the eigenvalue test.  The boundary rule is that
test on the exact eigenvalues, so a boundary with ``r`` inside the band
reads marginal, as its float eigenvalues do wherever they are accurate.
The corrupt and interior rules yield signs, not eigenvalues: where they
hold the point reads stable, however slow its decay.

Each rule and the real parts take ``where`` and ``sqrt`` (a conditional and
:func:`math.sqrt` on floats, ``np.where`` and ``np.sqrt`` on arrays), so the
sweep's grid pass gets the scalar verdicts' bits.  The root is ``sqrt``,
which IEEE 754 rounds correctly on every platform; ``pow(x, 0.5)`` is not
(glibc's misrounds about one input in a thousand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .equilibria import EquilibriumReport, Provenance, _where
from .model import ModelParams, PopulationState, StrategyProfile

__all__ = [
    "Classification", "Method", "StabilityVerdict",
    "classify_equilibrium", "corrupt_stability_band", "jacobian",
]

# Half-width of the sign-test band around zero; inside it a verdict is
# Marginal rather than a round-off coin flip.
MARGIN = 1e-9


class Classification(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


_CLASSIFICATIONS = tuple(Classification)  # by the index of _verdict_index


class Method(Enum):
    """How a verdict was reached."""

    CLOSED_FORM = "closed_form"        # the explicit rule decided
    FALLBACK = "trace_det_fallback"    # rule inconclusive; eigenvalues decided


@dataclass(frozen=True)
class StabilityVerdict:
    classification: Classification
    method: Method
    eigen_real_parts: tuple[float, float]
    trace: float
    det: float
    flags: tuple[tuple[str, bool], ...] = ()


def jacobian(p: ModelParams, x: PopulationState, s: StrategyProfile) -> tuple:
    """Analytic Jacobian ``((j11, j12), (j21, j22))``, of floats, at ``x``.

    Rows differentiate the reduced ``(x_H, x_C)`` kinetics::

        dx_H/dt = r (1 - x_H - x_C) - lam (x_H u_H - x_C u_C) - q_inf x_H x_C
        dx_C/dt = -(b + q_soc x_H) x_C + lam (x_H u_H - x_C u_C) + q_inf x_H x_C
    """
    lam, r, b = p.lam, p.r, p.b
    u_h, u_c = s.u_H, s.u_C
    x_h, x_c = x.x_H, x.x_C
    return (
        (-r - lam * u_h - p.q_inf * x_c, -r + lam * u_c - p.q_inf * x_h),
        (
            lam * u_h + (p.q_inf - p.q_soc) * x_c,
            -(b + p.q_soc * x_h) - lam * u_c + p.q_inf * x_h,
        ),
    )


def _trace_det(p: ModelParams, x: PopulationState, s: StrategyProfile) -> tuple:
    (a, b), (c, d) = jacobian(p, x, s)
    return a + d, a * d - b * c


def eigen_real_parts(trace, det, sqrt, where) -> tuple:
    """Real parts of the roots of ``xi^2 - trace xi + det``, ascending.

    The discriminant, clamped at 0, is rooted by ``sqrt``, correctly rounded
    on every IEEE platform unlike ``pow(disc, 0.5)``, so floats and arrays
    give the same bits; a negative or NaN discriminant gives ``trace / 2``
    twice.
    """
    disc = trace * trace - 4.0 * det
    real = disc >= 0.0
    # root >= 0, so the first part never exceeds the second.  trace - 0.0 is
    # trace, -0.0 included; trace + 0.0 is not, so a complex pair keeps trace.
    root = sqrt(where(real, disc, 0.0))
    return ((trace - root) / 2.0, where(real, trace + root, trace) / 2.0)


def _verdict_index(closed, parts, where):
    """The index in ``Classification`` of a verdict: ``closed`` where it is
    not negative, else the margin test on the top of the real parts
    ``parts``, taken as Python's ``max`` takes it (the first unless the
    second is greater): stable below ``-MARGIN``, unstable above ``MARGIN``,
    marginal between and at NaN.  Floats and arrays alike."""
    low, high = parts
    top = where(high > low, high, low)
    return where(closed >= 0, closed, 2 - 2 * (top < -MARGIN) - (top > MARGIN))


def corrupt_stability_band(p: ModelParams) -> bool:
    """Sufficient condition for stability of the corrupt fixed point.

    True iff ``-lam q_soc / r <= q_soc - q_inf <= (r q_inf + (r + b)(b r +
    r lam + b lam)) / r^2``.  Only sufficient: outside the band nothing is
    implied and the eigenvalue test decides.
    """
    diff = p.q_soc - p.q_inf
    lower = -p.lam * p.q_soc / p.r
    upper = (p.r * p.q_inf + (p.r + p.b) * (p.b * p.r + p.r * p.lam + p.b * p.lam)) / p.r**2
    # Not chained, so that fields that are arrays give the band of each value.
    return (lower <= diff) & (diff <= upper)


def _interior_coefficients(p: ModelParams, x: PopulationState) -> tuple[float, float]:
    """``(-trace, det)`` of the Jacobian at the honest interior point ``x``.

    At ``x_H = (b + lam) / (q_inf - q_soc)`` the lower-right entry of the
    honest-profile Jacobian is zero, which leaves ``-trace = r + q_inf x_C``
    and ``det = (q_inf - q_soc) x_C (r - lam + q_inf x_H)``.
    """
    neg_trace = p.r + p.q_inf * x.x_C
    det = (p.q_inf - p.q_soc) * x.x_C * (p.r - p.lam + p.q_inf * x.x_H)
    return neg_trace, det


def _boundary_eigenvalues(p: ModelParams) -> tuple:
    """The honest boundary's exact eigenvalues ``(-r, q_inf - q_soc - lam -
    b)``; floats and arrays alike."""
    return -p.r, p.q_inf - p.q_soc - p.lam - p.b


def _closed_form(p: ModelParams, provenance: Provenance, x, where) -> tuple:
    """The rule of ``provenance`` at its state ``x``: the index in
    ``Classification`` of its verdict (-1 where it does not decide) and its
    flag; floats and arrays alike."""
    if provenance is Provenance.CORRUPT_ROOT:
        band = corrupt_stability_band(p)
        return where(band, 0, -1), ("sufficient_band", band)  # 0: STABLE
    if provenance is Provenance.HONEST_BOUNDARY:
        # Both exact eigenvalues go through the margin test, like the
        # eigenvalues of the Jacobian.
        pair = _boundary_eigenvalues(p)
        return _verdict_index(-1, pair, where), ("boundary_rate_negative", pair[1] < 0.0)
    # Honest interior: stable when both characteristic coefficients exceed
    # the margin, which the existence condition implies.
    neg_trace, det = _interior_coefficients(p, x)
    positive = (neg_trace > MARGIN) & (det > MARGIN)
    return where(positive, 0, -1), ("char_coefficients_positive", positive)


def classify_equilibrium(p: ModelParams, e: EquilibriumReport) -> StabilityVerdict:
    """Stability verdict for an equilibrium report.

    The matching closed-form rule decides the classification wherever it is
    conclusive (method ``closed_form``); elsewhere the eigenvalues of the
    reduced Jacobian at the report's state under its strategy decide it
    (method ``trace_det_fallback``).  Trace, determinant and real parts
    always come from that Jacobian.  The verdict's flags are the rule's
    flag, then ``trace_negative`` and ``det_positive``.
    """
    trace, det = map(float, _trace_det(p, e.state, e.strategy))
    parts = eigen_real_parts(trace, det, math.sqrt, _where)
    closed, flag = _closed_form(p, e.provenance, e.state, _where)
    method = Method.CLOSED_FORM if closed >= 0 else Method.FALLBACK
    flags = (flag, ("trace_negative", trace < 0.0), ("det_positive", det > 0.0))
    classification = _CLASSIFICATIONS[_verdict_index(closed, parts, _where)]
    return StabilityVerdict(classification, method, parts, trace, det, flags)
