"""Core types and transition kinetics of the three-state corruption game.

Agents occupy one of three states: ``H`` (honest), ``C`` (corrupt) and ``R``
(reserved, the low-wage punishment job after detection).  Honest and corrupt
agents hold a binary intent ``u`` (stay / switch), executed at rate ``lam``;
detected corruption sends an agent to ``R`` at rate ``b + q_soc * x_H``
(principal's effort plus social-norm pressure), corrupt peers push honest
agents toward corruption at rate ``q_inf * x_C``, and reserved agents are
re-recruited into ``H`` at rate ``r``.

This module holds the parameter set, population/strategy value types, the
per-capita rate kernel :func:`transition_rates` of the four rates above for
a :class:`StrategyProfile` (read by the Bellman solvers, the tagged agent
and the payoff flows; a :class:`Behavior` only names a regime) and the
mean-field drift of the fraction vector ``x = (x_R, x_H, x_C)``.  All
functions are pure; all value types are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ALL_PROFILES", "Behavior", "CORRUPT_PROFILE", "HONEST_PROFILE", "ModelParams",
    "ParameterError", "PopulationCounts", "PopulationState", "SimplexError", "StrategyProfile",
    "TRANSITION_LABELS", "kinetic_rhs", "rate_scale", "transition_rates", "validate_params",
]

# Simplex acceptance: integrators drift at round-off scale, so states are
# accepted with |sum - 1| <= SUM_TOL and components >= COMPONENT_FLOOR,
# then clamped into [0, 1].
SUM_TOL = 1e-9
COMPONENT_FLOOR = -1e-12


class ParameterError(ValueError):
    """A model parameter violates the admissibility inequalities."""


class SimplexError(ValueError):
    """A fraction vector is not on the 2-simplex within tolerance."""


@dataclass(frozen=True)
class ModelParams:
    """Exogenous coefficients of the game.

    Rates (per unit time): ``lam`` intent execution, ``r`` recruitment out of
    R, ``b`` principal's detection effort, ``q_soc`` social-norm boost to
    detection per unit honest fraction, ``q_inf`` corruption-infection rate
    per unit corrupt fraction.  Payoffs: wages ``w_R < w_H < w_C`` per unit
    time and fine ``f`` charged (as a flow, times the detection rate) while
    corrupt.  A discount rate is not a coefficient of the game: the
    discounted-criterion operations take it as an argument.
    """

    lam: float
    r: float
    b: float
    f: float
    q_soc: float
    q_inf: float
    w_R: float
    w_H: float
    w_C: float


_PARAM_FIELDS = ("lam", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")

# The admissibility inequalities in the order they are checked, by the
# message of each one's violation; ``_rules_hold`` tests them in this order.
_RULES = (
    "lambda > 0 violated", "r > 0 violated", "b > 0 violated", "f >= 0 violated",
    "q_soc >= 0 violated", "q_inf >= 0 violated", "w_C > w_H violated",
    "w_H > w_R violated", "w_R >= 0 violated",
)


def _rules_hold(p: ModelParams) -> tuple:
    """Whether each inequality of :data:`_RULES` holds at ``p``.  Comparisons
    only, so floats and arrays alike: the sweep's grid pass reads them on
    arrays."""
    return (p.lam > 0, p.r > 0, p.b > 0, p.f >= 0, p.q_soc >= 0, p.q_inf >= 0,
            p.w_C > p.w_H, p.w_H > p.w_R, p.w_R >= 0)


def _first_violation(p: ModelParams, where):
    """The index in :data:`_RULES` of the first inequality that ``p``
    violates, ``len(_RULES)`` where it violates none; ``where`` is
    ``np.where`` where a field is an array.  A rule that holds outright, a
    comparison of floats, takes no ``where``."""
    first = len(_RULES)
    for k, holds in reversed(list(enumerate(_rules_hold(p)))):
        if holds is not True:
            first = where(holds, first, k)
    return first


def validate_params(p: ModelParams) -> ModelParams:
    """Return ``p`` unchanged iff every admissibility inequality holds.

    Raises :class:`ParameterError` naming the first field that is not a
    finite number, in field order, else the first violated inequality, in
    the order of :data:`_RULES`: lam > 0, r > 0, b > 0, f >= 0, q_soc >= 0,
    q_inf >= 0, w_C > w_H, w_H > w_R, w_R >= 0.
    """
    values = (p.lam, p.r, p.b, p.f, p.q_soc, p.q_inf, p.w_R, p.w_H, p.w_C)
    for name, v in zip(_PARAM_FIELDS, values):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ParameterError(f"{name} must be a finite number, got {v!r}")
    holds = _rules_hold(p)
    if False in holds:
        raise ParameterError(_RULES[holds.index(False)])
    return p


@dataclass(frozen=True)
class PopulationState:
    """A point ``(x_R, x_H, x_C)`` on the 2-simplex (mean-field distribution)."""

    x_R: float
    x_H: float
    x_C: float

    def __post_init__(self):
        total = self.x_R + self.x_H + self.x_C
        if abs(total - 1.0) > SUM_TOL:
            raise SimplexError(f"fractions sum to {total!r}, not 1")
        for name, v in (("x_R", self.x_R), ("x_H", self.x_H), ("x_C", self.x_C)):
            if not math.isfinite(v) or v < COMPONENT_FLOOR or v > 1.0 + SUM_TOL:
                raise SimplexError(f"{name} = {v!r} outside [0, 1]")
            # Inside [0, 1] the clamp returns v itself (-0.0 included).
            if v < 0.0 or v > 1.0:
                object.__setattr__(self, name, min(max(v, 0.0), 1.0))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x_R, self.x_H, self.x_C)


@dataclass(frozen=True)
class PopulationCounts:
    """Agent head-counts ``(n_R, n_H, n_C)`` of a finite population."""

    n_R: int
    n_H: int
    n_C: int

    def __post_init__(self):
        for name in ("n_R", "n_H", "n_C"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        if self.N < 1:
            raise ValueError("total population must be >= 1")

    @property
    def N(self) -> int:
        return self.n_R + self.n_H + self.n_C


@dataclass(frozen=True)
class StrategyProfile:
    """Binary switching intent for the two controllable states.

    ``u_H = 1`` means honest agents try to become corrupt, ``u_C = 1`` means
    corrupt agents try to clean themselves; 0 means stay put.  There is no
    control in state R.
    """

    u_H: int
    u_C: int

    def __post_init__(self):
        if self.u_H not in (0, 1) or self.u_C not in (0, 1):
            raise ValueError(f"controls must be 0 or 1, got ({self.u_H!r}, {self.u_C!r})")


CORRUPT_PROFILE = StrategyProfile(u_H=1, u_C=0)
HONEST_PROFILE = StrategyProfile(u_H=0, u_C=1)
ALL_PROFILES = (
    StrategyProfile(0, 0),
    StrategyProfile(0, 1),
    StrategyProfile(1, 0),
    StrategyProfile(1, 1),
)


class Behavior(Enum):
    """Named behavioral regimes of an individually optimal strategy."""

    CORRUPT = "corrupt"
    HONEST = "honest"
    INDIFFERENT = "indifferent"


# The four transitions, in the order of the rates returned by
# ``transition_rates``; the population chain's event selection walks its
# cumulative rates in this order too.
TRANSITION_LABELS = ("C->R", "R->H", "H->C", "C->H")


def transition_rates(
    p: ModelParams, x_H: float, x_C: float, u: StrategyProfile
) -> tuple[float, float, float, float]:
    """Per-capita rates of one agent with intent ``u`` at background ``(x_H, x_C)``.

    In :data:`TRANSITION_LABELS` order: C->R at ``b + q_soc x_H``, R->H at
    ``r``, H->C at ``lam u_H + q_inf x_C``, C->H at ``lam u_C``.  The
    aggregate rate of a transition in a population of N agents is the count
    in its source state times this rate at ``x = n / N``.
    """
    return (p.b + p.q_soc * x_H, p.r, p.lam * u.u_H + p.q_inf * x_C, p.lam * u.u_C)


def rate_scale(p: ModelParams) -> float:
    """Magnitude scale of the kinetics: no per-capita rate exceeds it."""
    return p.lam + p.r + p.b + p.q_soc + p.q_inf


def kinetic_rhs(
    p: ModelParams, x: PopulationState, s: StrategyProfile
) -> tuple[float, float, float]:
    """Mean-field drift ``(dx_R/dt, dx_H/dt, dx_C/dt)`` under common strategy ``s``.

    Flows: C -> R at ``(b + q_soc x_H) x_C``, R -> H at ``r x_R``, net H <-> C
    switching ``lam (x_H u_H - x_C u_C)`` plus infection ``q_inf x_H x_C``.
    The three components sum to zero exactly (mass conservation).
    ``simulate.integrate_ode`` writes this drift out inline, term for term.
    """
    x_R, x_H, x_C = x.x_R, x.x_H, x.x_C
    # Shared flow terms so the three components cancel exactly in floats.
    detection = (p.b + p.q_soc * x_H) * x_C
    recruitment = p.r * x_R
    switching = p.lam * (x_H * s.u_H - x_C * s.u_C)
    infection = p.q_inf * x_H * x_C
    return (
        detection - recruitment,
        recruitment - switching - infection,
        -detection + switching + infection,
    )
