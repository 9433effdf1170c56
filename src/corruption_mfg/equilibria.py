"""Enumeration of all stationary mean-field equilibria.

A stationary equilibrium is a distribution fixed under the common-strategy
kinetics whose strategy is individually optimal against that distribution.
:func:`enumerate_equilibria` makes one pass: it computes the classifier
threshold ``x_bar`` once, and ``x_bar`` decides each of at most three
candidates:

* the *corrupt root*: the unique zero in (0, 1) of a quadratic ``Q`` in
  ``x_H``, admissible while corruption stays optimal there (``x_H* <=
  x_bar``);
* the *honest interior* point ``x_H** = (b + lam) / (q_inf - q_soc)`` when
  the infection pressure dominates the social norm strongly enough and
  honesty is optimal there (``x_H** >= x_bar``);
* the *honest boundary* ``x = (0, 1, 0)``, present whenever honesty is
  optimal in a fully honest society (``x_bar < 1``).

A candidate within :data:`~corruption_mfg.hjb.TIE_TOL` of ``x_bar`` is
admitted and reported indifferent, with a warning and its tie flag set.

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

from .hjb import TIE_TOL, ClassifierThreshold, best_response, classifier_xbar
from .model import (
    Behavior,
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    PopulationState,
    StrategyProfile,
    kinetic_rhs,
    validate_params,
)

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
class EquilibriumDiagnostics:
    """Evidence attached to a report: Q at the point, the threshold, residual."""

    q_value: float
    x_bar: float
    residual: float
    flags: tuple[tuple[str, bool], ...] = ()


@dataclass(frozen=True)
class EquilibriumReport:
    state: PopulationState
    behavior: Behavior
    strategy: StrategyProfile
    provenance: Provenance
    diagnostics: EquilibriumDiagnostics
    warnings: tuple[str, ...] = ()


def q_coefficients(p: ModelParams) -> tuple[float, float, float]:
    """Coefficients (alpha, beta, gamma) of the corrupt fixed-point quadratic."""
    alpha = (p.r + p.lam) * p.q_soc - p.r * p.q_inf
    beta = p.r * (p.q_inf - p.q_soc) + p.lam * p.r + p.lam * p.b + p.r * p.b
    gamma = -p.r * p.b
    return alpha, beta, gamma


def q_polynomial(p: ModelParams, x_H: float) -> float:
    """Evaluate the corrupt-branch fixed-point quadratic at ``x_H``.

    ``Q(0) = -r b < 0`` and ``Q(1) = lam (q_soc + r + b) > 0`` for every
    valid parameter set, so Q has exactly one root in (0, 1).
    """
    alpha, beta, gamma = q_coefficients(p)
    return (alpha * x_H + beta) * x_H + gamma


def corrupt_root(p: ModelParams) -> tuple[float, float]:
    """The corrupt-branch fixed point ``(x_H*, x_C*)``.

    ``x_H*`` is the unique root of Q in (0, 1), extracted with the
    product-form companion root to avoid cancellation and polished with one
    Newton step; ``x_C* = (1 - x_H*) r / (r + b + q_soc x_H*)``.
    """
    alpha, beta, gamma = q_coefficients(p)
    if abs(alpha) <= DEGENERATE_LEADING * abs(beta):
        root = -gamma / beta
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        sign_b = 1.0 if beta >= 0.0 else -1.0
        q = -0.5 * (beta + sign_b * math.sqrt(disc))
        candidates = [c for c in (q / alpha, gamma / q) if 0.0 < c < 1.0]
        if len(candidates) != 1:
            # Sign change Q(0) < 0 < Q(1) guarantees exactly one; reaching
            # here means a parameter invariant was violated upstream.
            raise ArithmeticError(f"expected one root of Q in (0,1), got {candidates}")
        root = candidates[0]
        slope = 2.0 * alpha * root + beta
        if slope != 0.0:
            polished = root - ((alpha * root + beta) * root + gamma) / slope
            if 0.0 < polished < 1.0:
                root = polished
    return root, (1.0 - root) * p.r / (p.r + p.b + p.q_soc * root)


def _report(
    p: ModelParams,
    point: tuple[float, float],
    provenance: Provenance,
    x_bar: float,
    warning: str | None = None,
    flag: str | None = "classifier_tie",
) -> EquilibriumReport:
    # The one place a report is built from ``(x_H, x_C)``.  A warning marks
    # a tie: the report is indifferent and ``flag`` is set; ``flag=None``
    # records no flag at all.
    x_h, x_c = point
    state = PopulationState(1.0 - x_h - x_c, x_h, x_c)
    corrupt = provenance is Provenance.CORRUPT_ROOT
    strategy = CORRUPT_PROFILE if corrupt else HONEST_PROFILE
    tie = warning is not None
    if tie:
        behavior = Behavior.INDIFFERENT
    else:
        behavior = Behavior.CORRUPT if corrupt else Behavior.HONEST
    diag = EquilibriumDiagnostics(
        q_value=q_polynomial(p, state.x_H),
        x_bar=x_bar,
        residual=max(abs(v) for v in kinetic_rhs(p, state, strategy)),
        flags=((flag, tie),) if flag else (),
    )
    return EquilibriumReport(
        state, behavior, strategy, provenance, diag, (warning,) if tie else ()
    )


def _corrupt(p: ModelParams, threshold: ClassifierThreshold) -> EquilibriumReport | None:
    # Admitted when x_bar > 1, or when x_bar lies in (0, 1] with Q(x_bar) >=
    # 0 (equivalently x_H* <= x_bar; both forms are evaluated and must agree).
    x_bar = threshold.value
    if threshold.indifferent_everywhere:
        return _report(
            p, corrupt_root(p), Provenance.CORRUPT_ROOT, x_bar,
            "regimes tie at every x (q_soc = 0 with zero bracket)", "indifferent_everywhere",
        )
    if x_bar > 1.0 + TIE_TOL:
        return _report(p, corrupt_root(p), Provenance.CORRUPT_ROOT, x_bar)
    if not x_bar > 0.0:
        return None
    # Q(1) = lam (q_soc + r + b) exactly; alpha + beta + gamma can cancel below 0.
    q_at_bar = p.lam * (p.q_soc + p.r + p.b) if x_bar >= 1.0 else q_polynomial(p, x_bar)
    root = corrupt_root(p)
    x_h_star = root[0]
    below = x_h_star <= x_bar + TIE_TOL
    off = abs(x_h_star - x_bar)
    if (q_at_bar >= 0.0) != below and off > TIE_TOL:
        raise ArithmeticError(
            "admissibility checks disagree: "
            f"Q(x_bar)={q_at_bar!r} vs x_H*={x_h_star!r}, x_bar={x_bar!r}"
        )
    if not below:
        return None
    return _report(
        p, root, Provenance.CORRUPT_ROOT, x_bar,
        "corrupt root sits on the classifier boundary; both regimes are optimal here"
        if off <= TIE_TOL else None,
    )


def _boundary(p: ModelParams, threshold: ClassifierThreshold) -> EquilibriumReport | None:
    # x = (0, 1, 0): honest while x_bar < 1, absent when x_bar > 1 (corruption
    # pays even in a fully honest society), indifferent at x_bar = 1.
    x_bar = threshold.value
    if threshold.indifferent_everywhere or abs(x_bar - 1.0) <= TIE_TOL:
        return _report(
            p, (1.0, 0.0), Provenance.HONEST_BOUNDARY, x_bar,
            "classifier threshold ties with x_H = 1; both regimes are optimal here",
        )
    if x_bar > 1.0:
        return None
    return _report(p, (1.0, 0.0), Provenance.HONEST_BOUNDARY, x_bar, flag=None)


def _interior(p: ModelParams, x_bar: float) -> EquilibriumReport | None:
    # x_H** = (b + lam) / (q_inf - q_soc), present iff q_inf > q_soc and
    # x_bar - TIE_TOL <= x_H** < 1 (the tie band admits it, as it admits the
    # other two); then x_C** = r (q_inf - q_soc - b - lam) / ((r + b) q_inf +
    # (lam - r) q_soc).
    gap = p.q_inf - p.q_soc
    if gap <= 0.0:
        return None
    x_h = (p.b + p.lam) / gap
    if x_h >= 1.0 or x_h < x_bar - TIE_TOL:
        return None
    x_c = p.r * (gap - p.b - p.lam) / ((p.r + p.b) * p.q_inf + (p.lam - p.r) * p.q_soc)
    return _report(
        p, (x_h, x_c), Provenance.HONEST_INTERIOR, x_bar,
        "interior honest point sits on the classifier boundary"
        if abs(x_h - x_bar) <= TIE_TOL else None,
    )


def enumerate_equilibria(p: ModelParams) -> list[EquilibriumReport]:
    """All stationary equilibria for ``p``, sorted by ``x_H`` (1 to 3 of them).

    One threshold ``x_bar`` decides each of the three candidates: the
    corrupt root, the honest boundary and the honest interior point.
    """
    validate_params(p)
    threshold = classifier_xbar(p)
    candidates = (
        _corrupt(p, threshold),
        _boundary(p, threshold),
        _interior(p, threshold.value),
    )
    reports = [rep for rep in candidates if rep is not None]
    reports.sort(key=lambda rep: rep.state.x_H)
    return reports


def mfg_consistent(p: ModelParams, report: EquilibriumReport) -> bool:
    """Check that the report's behavior is a best response at its state.

    Ties at the classifier boundary accept any behavior.
    """
    response = best_response(p, report.state)
    if response.behavior is Behavior.INDIFFERENT or report.behavior is Behavior.INDIFFERENT:
        return True
    return response.behavior is report.behavior
