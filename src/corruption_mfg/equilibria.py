"""Enumeration of all stationary mean-field equilibria.

A stationary equilibrium is a distribution fixed under the common-strategy
kinetics whose strategy is individually optimal against that distribution.
:func:`enumerate_equilibria` makes one pass: it computes the classifier
threshold ``x_bar`` once and builds at most three candidate points:

* the *corrupt root*: the unique zero in (0, 1) of a quadratic ``Q`` in
  ``x_H``, not built where ``x_bar <= 0``;
* the *honest interior* point ``x_H** = (b + lam) / (q_inf - q_soc)`` when
  the infection pressure dominates the social norm strongly enough that
  ``x_H** < 1``;
* the *honest boundary* ``x = (0, 1, 0)``.

One rule, :func:`~corruption_mfg.hjb._regime_index` at the candidate's
``x_H``, admits each of them.  A candidate is dropped where it reads the
other profile's regime: honest at the corrupt root, corrupt at an honest
point.  Where it reads indifferent, within
:data:`~corruption_mfg.hjb.TIE_TOL` of ``x_bar``, the candidate is a tie:
it is reported indifferent, with a warning and its tie flag set.  In the
corner ``q_soc = 0`` with a zero classifier bracket the regimes tie at every
``x`` (a NaN ``x_bar`` to the rule), so every candidate on the simplex is a
tie, and the corrupt root's flag is ``indifferent_everywhere``.

Each piece of the enumeration is stated once and takes floats and arrays
alike, so the sweep's grid pass calls the same functions on arrays: the
candidates' table and order (``_CANDIDATES``), which of them exist
(:func:`_candidates`), the boundary and interior points, the admission and
the behavior it reads (:func:`_admission`), and each candidate's state and
residual (:func:`_state`).  On floats nothing is formed where it does not
exist: no root where ``x_bar <= 0`` and no interior point off the simplex.

The interaction-free case ``q_soc = q_inf = 0`` needs no case of its own:
``Q`` is then linear with root ``x_H* = r b / (lam r + lam b + r b)``,
``x_bar`` is infinite, and the sign of the classifier bracket (the wage/fine
inequality ``w_C - w_R >= b f + (w_H - w_R)(1 + b/r)``) picks the corrupt
root or the honest boundary; a zero bracket reports both, indifferent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import hjb
from .hjb import _BEHAVIORS, ClassifierThreshold, classifier_xbar
from .model import (
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    PopulationState,
    StrategyProfile,
    kinetic_rhs,
    validate_params,
)

__all__ = [
    "EquilibriumReport", "Provenance", "corrupt_root",
    "enumerate_equilibria", "q_coefficients",
]

# Relative threshold under which the quadratic's leading coefficient is
# treated as zero: (r+lam) q_soc - r q_inf crosses zero on a natural
# parameter surface, so the linear fallback must be seamless.
DEGENERATE_LEADING = 1e-14


class Provenance(Enum):
    """Which of the three candidates an equilibrium is."""

    CORRUPT_ROOT = "corrupt_root"
    HONEST_INTERIOR = "honest_interior"
    HONEST_BOUNDARY = "honest_boundary"


@dataclass(frozen=True)
class EquilibriumReport:
    """One equilibrium and its evidence: Q at the point, the threshold, the
    largest drift under ``strategy`` and the tie flag (a boundary that is not
    a tie records none)."""

    state: PopulationState
    behavior: Behavior
    strategy: StrategyProfile
    provenance: Provenance
    q_value: float
    x_bar: float
    residual: float
    flags: tuple[tuple[str, bool], ...] = ()
    warnings: tuple[str, ...] = ()


def q_coefficients(p: ModelParams) -> tuple[float, float, float]:
    """Coefficients (alpha, beta, gamma) of the corrupt fixed-point quadratic
    ``Q(x_H) = alpha x_H^2 + beta x_H + gamma``.

    ``Q(0) = -r b < 0`` and ``Q(1) = lam (q_soc + r + b) > 0`` for every
    valid parameter set, so Q has exactly one root in (0, 1).
    """
    alpha = (p.r + p.lam) * p.q_soc - p.r * p.q_inf
    beta = p.r * (p.q_inf - p.q_soc) + p.lam * p.r + p.lam * p.b + p.r * p.b
    gamma = -p.r * p.b
    return alpha, beta, gamma


def _q_at(coefficients: tuple[float, float, float], x_H: float) -> float:
    alpha, beta, gamma = coefficients
    return (alpha * x_H + beta) * x_H + gamma


def corrupt_root(p: ModelParams) -> tuple[float, float]:
    """The corrupt-branch fixed point ``(x_H*, x_C*)``.

    ``x_H*`` is the unique root of Q in (0, 1), extracted with the
    product-form companion root to avoid cancellation and polished with one
    Newton step; ``x_C* = (1 - x_H*) r / (r + b + q_soc x_H*)``.
    """
    return _corrupt_root(p, q_coefficients(p))


def _corrupt_root(p: ModelParams, coefficients: tuple[float, float, float]) -> tuple[float, float]:
    alpha, beta, gamma = coefficients
    if _degenerate(alpha, beta):
        root = -gamma / beta
    else:
        root, single = _polished_root(coefficients, math.sqrt, _where)
        if not single:
            # Sign change Q(0) < 0 < Q(1) guarantees exactly one; reaching
            # here means a parameter invariant was violated upstream.
            candidates = [c for c in _companion_roots(*coefficients, math.sqrt) if 0.0 < c < 1.0]
            raise ArithmeticError(f"expected one root of Q in (0,1), got {candidates}")
    return root, _corrupt_x_c(p, root)


def _where(condition, x, y):
    return x if condition else y


def _polished_root(coefficients, sqrt, where) -> tuple:
    """Q's companion root in (0, 1), polished by one Newton step where the
    slope is nonzero and the step stays in (0, 1), and whether it is Q's only
    companion root in (0, 1).  ``sqrt`` and ``where`` are :func:`math.sqrt`
    and a conditional on floats, ``np.sqrt`` and ``np.where`` on arrays.
    The step divides by ``slope + (slope == 0.0)``, which is ``slope``
    wherever the step is kept, so that no division is by zero."""
    alpha, beta, _ = coefficients
    first, second = _companion_roots(*coefficients, sqrt)
    inside = (0.0 < first) & (first < 1.0)
    root = where(inside, first, second)
    slope = 2.0 * alpha * root + beta
    polished = root - _q_at(coefficients, root) / (slope + (slope == 0.0))
    root = where((slope != 0.0) & (0.0 < polished) & (polished < 1.0), polished, root)
    return root, inside != ((0.0 < second) & (second < 1.0))


def _degenerate(alpha, beta):
    # Q is taken as linear where this holds, for floats and arrays alike.
    return abs(alpha) <= DEGENERATE_LEADING * abs(beta)


def _companion_roots(alpha, beta, gamma, sqrt) -> tuple:
    # Q's two roots, q / alpha and gamma / q, by the product form; ``sqrt`` is
    # math.sqrt on floats or np.sqrt on arrays, both correctly rounded.
    disc = beta * beta - 4.0 * alpha * gamma
    q = -0.5 * (beta + (2.0 * (beta >= 0.0) - 1.0) * sqrt(disc))
    return q / alpha, gamma / q


def _corrupt_x_c(p: ModelParams, x_h: float) -> float:
    return (1.0 - x_h) * p.r / (p.r + p.b + p.q_soc * x_h)


# The candidates in enumerate_equilibria's order: provenance, profile, the
# regime (its index in Behavior) that drops it, and the warning of its tie.
_CANDIDATES = (
    (Provenance.CORRUPT_ROOT, CORRUPT_PROFILE, 1,
     "corrupt root sits on the classifier boundary; both regimes are optimal here"),
    (Provenance.HONEST_BOUNDARY, HONEST_PROFILE, 0,
     "classifier threshold ties with x_H = 1; both regimes are optimal here"),
    (Provenance.HONEST_INTERIOR, HONEST_PROFILE, 0,
     "interior honest point sits on the classifier boundary"),
)
_BOUNDARY = (1.0, 0.0)  # the honest boundary's (x_H, x_C)


def _candidates(p: ModelParams, x_bar) -> tuple:
    """Whether each candidate exists, in ``_CANDIDATES``' order; comparisons
    only, so floats and arrays alike.

    The corrupt root exists unless ``x_bar <= 0``, the boundary always, and
    the interior point iff
    ``q_inf > q_soc`` and ``x_H** < 1``, that is iff ``b + lam < q_inf -
    q_soc``.  For positive floats ``a / g < 1`` exactly where ``a < g``, so
    this is ``x_H** < 1`` to the bit, and nothing is divided.
    """
    return x_bar > 0.0, True, p.b + p.lam < p.q_inf - p.q_soc


def _interior_point(p: ModelParams) -> tuple:
    # (x_H**, x_C**) with x_H** = (b + lam) / (q_inf - q_soc), where it exists.
    gap = p.q_inf - p.q_soc
    x_c = p.r * (gap - p.b - p.lam) / ((p.r + p.b) * p.q_inf + (p.lam - p.r) * p.q_soc)
    return (p.b + p.lam) / gap, x_c


def _admission(present, x_h, x_bar, drop) -> tuple:
    """The regime index that :func:`~corruption_mfg.hjb._regime_index` reads
    at a candidate's ``x_h``, and whether the candidate is listed: it is
    ``present`` and does not read ``drop``, the other profile's regime.
    Floats and arrays alike."""
    regime = hjb._regime_index(x_h, x_bar)
    return regime, present & (regime != drop)


def _state(p: ModelParams, x_h, x_c, profile: StrategyProfile, make, where) -> tuple:
    """A candidate's state, ``x_R = 1 - x_H - x_C`` with ``x_H``, ``x_C``
    built by ``make``, and its residual there: the largest ``|kinetic_rhs|``
    under ``profile``, as Python's ``max`` takes it.  Floats and arrays
    alike."""
    x = make(x_R=1.0 - x_h - x_c, x_H=x_h, x_C=x_c)
    first, second, third = map(abs, kinetic_rhs(p, x, profile))
    top = where(second > first, second, first)
    return x, where(third > top, third, top)


def _report(p: ModelParams, coefficients: tuple[float, float, float],
            threshold: ClassifierThreshold, x_bar: float, candidate: tuple,
            point) -> EquilibriumReport | None:
    # A candidate of ``_CANDIDATES`` at ``point`` (False where it does not
    # exist), admitted by _admission at ``x_bar``, the threshold as
    # _regime_index reads it; where its regime reads indifferent it is a tie,
    # reported with its warning.
    if not point:
        return None
    provenance, strategy, drop, warning = candidate
    regime, listed = _admission(True, point[0], x_bar, drop)
    if not listed:
        return None
    tie = regime == 2
    flag = "classifier_tie"
    if provenance is Provenance.CORRUPT_ROOT and threshold.indifferent_everywhere:
        flag = "indifferent_everywhere"
        warning = "regimes tie at every x (q_soc = 0 with zero bracket)"
    state, residual = _state(p, *point, strategy, PopulationState, _where)
    return EquilibriumReport(
        state, _BEHAVIORS[regime], strategy, provenance,
        q_value=_q_at(coefficients, state.x_H),
        x_bar=threshold.value,
        residual=residual,
        flags=((flag, tie),) if tie or provenance is not Provenance.HONEST_BOUNDARY else (),
        warnings=(warning,) if tie else (),
    )


def enumerate_equilibria(p: ModelParams) -> list[EquilibriumReport]:
    """All stationary equilibria for ``p``, sorted by ``x_H`` (1 to 3 of them).

    :func:`_candidates` says which of the corrupt root, the honest boundary
    and the honest interior point exist, and :func:`_admission`, the tie
    band of :func:`~corruption_mfg.hjb._regime_index` at each one's ``x_H``,
    admits it.
    """
    validate_params(p)
    threshold = classifier_xbar(p)
    coefficients = q_coefficients(p)
    # The root and the interior point are formed only where they exist.
    root, _, interior = _candidates(p, threshold.value)
    points = (root and _corrupt_root(p, coefficients), _BOUNDARY, interior and _interior_point(p))
    x_bar = threshold._x_bar
    reports = [rep for candidate, point in zip(_CANDIDATES, points)
               if (rep := _report(p, coefficients, threshold, x_bar, candidate, point))]
    reports.sort(key=lambda rep: rep.state.x_H)
    return reports
