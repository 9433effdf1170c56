"""Solver and simulator for a three-state mean-field game of corruption.

Agents are honest, corrupt or reserved (punished); each rationally chooses
when to switch between honesty and corruption against the aggregate
distribution of everyone else, under a detecting principal and two social
interaction channels (corruption infection, social-norm pressure on
detection).  The package enumerates all stationary equilibria in closed
form, classifies their stability, and validates them against the mean-field
ODE flow and exact finite-population simulation.
"""

from .model import (
    ALL_PROFILES,
    Behavior,
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    ParameterError,
    PopulationCounts,
    PopulationState,
    SimplexError,
    StrategyProfile,
    TRANSITION_LABELS,
    kinetic_rhs,
    rate_scale,
    transition_rates,
    validate_params,
)
from .hjb import (
    TIE_TOL,
    BestResponse,
    ClassifierThreshold,
    ValueFunction,
    best_response,
    classifier_xbar,
    classifier_xbar_discounted,
    regime_at,
    solve_discounted,
    solve_regime,
)
from .equilibria import (
    EquilibriumDiagnostics,
    EquilibriumReport,
    Provenance,
    corrupt_root,
    enumerate_equilibria,
    mfg_consistent,
    q_coefficients,
    q_polynomial,
)
from .stability import (
    Classification,
    Method,
    StabilityContradictionError,
    StabilityVerdict,
    classify_equilibrium,
    corrupt_stability_band,
    jacobian,
    trace_det_verdict,
)
from .simulate import (
    DeviationGainEstimate,
    EventPath,
    StepSizeError,
    Trajectory,
    constant_trajectory,
    deviation_gain,
    integrate_ode,
    lln_convergence,
    round_counts,
    simulate_population,
    simulate_tagged_agent,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PROFILES",
    "Behavior",
    "BestResponse",
    "CORRUPT_PROFILE",
    "Classification",
    "ClassifierThreshold",
    "DeviationGainEstimate",
    "EquilibriumDiagnostics",
    "EquilibriumReport",
    "EventPath",
    "HONEST_PROFILE",
    "Method",
    "ModelParams",
    "ParameterError",
    "PopulationCounts",
    "PopulationState",
    "Provenance",
    "SimplexError",
    "StabilityContradictionError",
    "StabilityVerdict",
    "StepSizeError",
    "StrategyProfile",
    "TIE_TOL",
    "TRANSITION_LABELS",
    "Trajectory",
    "ValueFunction",
    "best_response",
    "classifier_xbar",
    "classifier_xbar_discounted",
    "classify_equilibrium",
    "constant_trajectory",
    "corrupt_root",
    "corrupt_stability_band",
    "deviation_gain",
    "enumerate_equilibria",
    "integrate_ode",
    "jacobian",
    "kinetic_rhs",
    "lln_convergence",
    "mfg_consistent",
    "q_coefficients",
    "q_polynomial",
    "rate_scale",
    "regime_at",
    "round_counts",
    "simulate_population",
    "simulate_tagged_agent",
    "solve_discounted",
    "solve_regime",
    "trace_det_verdict",
    "transition_rates",
    "validate_params",
]
