"""Parameter validation, kinetics and the per-capita rate kernel."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg.model import COMPONENT_FLOOR, SUM_TOL
from support import BASELINE, make_params, random_params, random_simplex


# ---------------------------------------------------------------------------
# validate_params


def test_validate_accepts_baseline():
    assert cm.validate_params(BASELINE) is BASELINE


@pytest.mark.parametrize(
    "override, message",
    [
        ({"lam": 0.0}, "lambda > 0"),
        ({"r": -1.0}, "r > 0"),
        ({"b": 0.0}, "b > 0"),
        ({"f": -0.1}, "f >= 0"),
        ({"q_soc": -1e-9}, "q_soc >= 0"),
        ({"q_inf": -2.0}, "q_inf >= 0"),
        ({"w_C": 1.0, "w_H": 1.0}, "w_C > w_H"),
        ({"w_H": 0.0, "w_R": 0.0}, "w_H > w_R"),
        ({"w_R": -0.5, "w_H": 0.5, "w_C": 1.0}, "w_R >= 0"),
    ],
)
def test_validate_names_first_failure(override, message):
    p = dataclasses.replace(BASELINE, **override)
    with pytest.raises(cm.ParameterError, match=message):
        cm.validate_params(p)


def test_validate_rejects_non_finite():
    with pytest.raises(cm.ParameterError, match="finite"):
        cm.validate_params(dataclasses.replace(BASELINE, b=float("nan")))


_PARAM_FIELDS = ("lam", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")
# The documented precedence: a non-finite field, in field order, before
# every inequality; then the inequalities in this order.
_INEQUALITIES = (
    ("lambda > 0", lambda p: p.lam > 0),
    ("r > 0", lambda p: p.r > 0),
    ("b > 0", lambda p: p.b > 0),
    ("f >= 0", lambda p: p.f >= 0),
    ("q_soc >= 0", lambda p: p.q_soc >= 0),
    ("q_inf >= 0", lambda p: p.q_inf >= 0),
    ("w_C > w_H", lambda p: p.w_C > p.w_H),
    ("w_H > w_R", lambda p: p.w_H > p.w_R),
    ("w_R >= 0", lambda p: p.w_R >= 0),
)


def _first_violation(p):
    for name in _PARAM_FIELDS:
        v = getattr(p, name)
        if not math.isfinite(v):
            return f"{name} must be a finite number, got {v!r}"
    for text, holds in _INEQUALITIES:
        if not holds(p):
            return f"{text} violated"
    return None


# Mostly boundary values, so one set often breaks several rules at once.
_PARAM_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(-1.0, 3.0),
)


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[_PARAM_VALUE] * len(_PARAM_FIELDS)))
@example((0.0, 1.0, math.nan, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0))  # names b, not lambda
@example((-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, math.inf))
@example((1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0, -3.0))
def test_validate_reports_the_first_violation(values):
    p = cm.ModelParams(*values)
    expected = _first_violation(p)
    if expected is None:
        assert cm.validate_params(p) is p
        return
    with pytest.raises(cm.ParameterError) as info:
        cm.validate_params(p)
    assert str(info.value) == expected


# ---------------------------------------------------------------------------
# state / counts / strategy types


def test_population_state_accepts_roundoff_and_clamps():
    x = cm.PopulationState(-1e-13, 0.5, 0.5 + 1e-13)
    assert x.x_R == 0.0
    assert 0.0 <= x.x_C <= 1.0


_STATE_FIELDS = ("x_R", "x_H", "x_C")
_COMPONENT = st.one_of(
    st.sampled_from([COMPONENT_FLOOR, 2 * COMPONENT_FLOOR, -0.0, 0.0, 1.0, 1.0 + SUM_TOL,
                     1.0 + 2 * SUM_TOL, math.nan, math.inf, -math.inf]),
    st.floats(-0.01, 1.01),
)


def _expected_state(x):
    """The sum check, then each component in order, then the clamp into [0, 1]."""
    total = x[0] + x[1] + x[2]
    if abs(total - 1.0) > SUM_TOL:
        return f"fractions sum to {total!r}, not 1"
    for name, v in zip(_STATE_FIELDS, x):
        if not (math.isfinite(v) and COMPONENT_FLOOR <= v <= 1.0 + SUM_TOL):
            return f"{name} = {v!r} outside [0, 1]"
    return tuple(repr(0.0 if v < 0.0 else 1.0 if v > 1.0 else v) for v in x)


@settings(max_examples=500, deadline=None)
@given(x_R=_COMPONENT, x_H=_COMPONENT, x_C=st.one_of(st.none(), _COMPONENT))
@example(x_R=-0.0, x_H=0.5, x_C=None)
@example(x_R=COMPONENT_FLOOR, x_H=1.0 + SUM_TOL, x_C=-0.0)
@example(x_R=2.0, x_H=-1.0, x_C=0.5)
@example(x_R=1.5, x_H=-0.5, x_C=0.0)
@example(x_R=math.nan, x_H=0.5, x_C=0.5)
def test_population_state_checks_in_order_and_clamps(x_R, x_H, x_C):
    # x_C = None puts the state on the simplex up to the round-off of 1 - x_R - x_H.
    x = (x_R, x_H, 1.0 - x_R - x_H if x_C is None else x_C)
    expected = _expected_state(x)
    if isinstance(expected, str):
        with pytest.raises(cm.SimplexError) as info:
            cm.PopulationState(*x)
        assert str(info.value) == expected
    else:
        state = cm.PopulationState(*x)
        assert tuple(repr(v) for v in state.as_tuple()) == expected


def test_population_state_rejects_bad_sum():
    with pytest.raises(cm.SimplexError):
        cm.PopulationState(0.5, 0.5, 0.1)
    with pytest.raises(cm.SimplexError):
        cm.PopulationState(-1e-6, 0.5, 0.5 + 1e-6)


def test_population_counts():
    n = cm.PopulationCounts(1, 2, 3)
    assert n.N == 6
    frac = cm.PopulationState(n.n_R / n.N, n.n_H / n.N, n.n_C / n.N)
    assert frac.as_tuple() == (1 / 6, 2 / 6, 3 / 6)
    with pytest.raises(ValueError):
        cm.PopulationCounts(-1, 1, 1)
    with pytest.raises(ValueError):
        cm.PopulationCounts(0, 0, 0)


def test_strategy_profile_and_behavior():
    with pytest.raises(ValueError):
        cm.StrategyProfile(2, 0)


# ---------------------------------------------------------------------------
# kinetic_rhs


def test_rhs_all_reserved_flows_to_honest():
    p = make_params(r=0.7)
    x = cm.PopulationState(1.0, 0.0, 0.0)
    for s in cm.ALL_PROFILES:
        assert cm.kinetic_rhs(p, x, s) == (-0.7, 0.7, 0.0)


def test_rhs_vanishes_at_interaction_free_equilibrium():
    # x_H* = r b / (lam r + lam b + r b) = 1/3 at unit rates; x_C* = x_R* = 1/3.
    x = cm.PopulationState(1 / 3, 1 / 3, 1 / 3)
    rhs = cm.kinetic_rhs(BASELINE, x, cm.CORRUPT_PROFILE)
    assert max(abs(v) for v in rhs) < 1e-15


def test_rhs_conserves_mass():
    rng = np.random.default_rng(1)
    for i in range(500):
        p = random_params(rng)
        x = random_simplex(rng)
        s = cm.ALL_PROFILES[i % 4]
        rhs = cm.kinetic_rhs(p, x, s)
        scale = max(1.0, max(abs(v) for v in rhs))
        assert abs(sum(rhs)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# transition_rates: the population chain's aggregate rates are the count in
# each source state times the per-capita kernel at x = n / N.

SOURCES = {"C->R": 2, "R->H": 0, "H->C": 1, "C->H": 2}  # index into (n_R, n_H, n_C)


def aggregate_rates(p, n, s):
    """Kernel times occupancy, keyed by transition label."""
    x = cm.PopulationState(n.n_R / n.N, n.n_H / n.N, n.n_C / n.N)
    occupancy = (n.n_R, n.n_H, n.n_C)
    rates = cm.transition_rates(p, x.x_H, x.x_C, s)
    return {label: occupancy[SOURCES[label]] * rate
            for label, rate in zip(cm.TRANSITION_LABELS, rates)}


def test_population_rates_hand_values():
    p = make_params()
    rates = aggregate_rates(p, cm.PopulationCounts(1, 1, 1), cm.CORRUPT_PROFILE)
    assert rates == {"C->R": 1.0, "R->H": 1.0, "H->C": 1.0, "C->H": 0.0}


def test_population_rates_social_norm_term():
    p = make_params(q_soc=2.0)
    rates = aggregate_rates(p, cm.PopulationCounts(0, 1, 1), cm.CORRUPT_PROFILE)
    assert rates["C->R"] == 1.0 * (1.0 + 2.0 * 0.5)


def test_population_rates_empty_corrupt_class():
    p = make_params(q_soc=1.0, q_inf=1.0)
    rates = aggregate_rates(p, cm.PopulationCounts(2, 3, 0), cm.CORRUPT_PROFILE)
    assert rates["C->R"] == 0.0
    assert rates["C->H"] == 0.0


def test_population_drift_matches_ode_field():
    # (1/N) * sum over transitions of rate * (target - source indicator)
    # must reproduce the mean-field drift at x = n / N; kinetic_rhs is
    # written independently of the kernel.
    basis = {"R": np.array([1.0, 0, 0]), "H": np.array([0, 1.0, 0]), "C": np.array([0, 0, 1.0])}
    rng = np.random.default_rng(2)
    for i in range(300):
        p = random_params(rng)
        counts = rng.integers(0, 40, size=3)
        if counts.sum() == 0:
            counts[0] = 1
        n = cm.PopulationCounts(int(counts[0]), int(counts[1]), int(counts[2]))
        s = cm.ALL_PROFILES[i % 4]
        drift = np.zeros(3)
        for label, rate in aggregate_rates(p, n, s).items():
            src, tgt = label.split("->")
            drift += rate * (basis[tgt] - basis[src])
        drift /= n.N
        x = cm.PopulationState(n.n_R / n.N, n.n_H / n.N, n.n_C / n.N)
        rhs = np.array(cm.kinetic_rhs(p, x, s))
        assert np.max(np.abs(drift - rhs)) <= 1e-12


def test_population_rates_are_individual_rates_per_capita():
    # Kernel times occupancy equals the finite-N chain's aggregate rates,
    # written here from the counts directly.
    rng = np.random.default_rng(3)
    for i in range(200):
        p = random_params(rng)
        counts = rng.integers(1, 30, size=3)
        n_r, n_h, n_c = (int(v) for v in counts)
        n = cm.PopulationCounts(n_r, n_h, n_c)
        s = cm.ALL_PROFILES[i % 4]
        N = n.N
        want = {
            "C->R": n_c * (p.b + p.q_soc * n_h / N),
            "R->H": n_r * p.r,
            "H->C": n_h * (p.lam * s.u_H + p.q_inf * n_c / N),
            "C->H": p.lam * n_c * s.u_C,
        }
        got = aggregate_rates(p, n, s)
        for label in cm.TRANSITION_LABELS:
            assert got[label] == pytest.approx(want[label], rel=1e-12, abs=0)


def test_individual_rates_hand_values():
    p = make_params(lam=3.0, r=0.5, b=0.25, q_soc=1.0, q_inf=2.0)
    assert cm.transition_rates(p, 0.5, 0.25, cm.CORRUPT_PROFILE) == (0.75, 0.5, 3.5, 0.0)
    assert cm.transition_rates(p, 0.5, 0.25, cm.HONEST_PROFILE) == (0.75, 0.5, 0.5, 3.0)
    assert cm.transition_rates(p, 1.0, 0.0, cm.StrategyProfile(1, 1)) == (1.25, 0.5, 3.0, 3.0)
    assert all(type(v) is float for v in cm.transition_rates(p, 0.5, 0.25, cm.HONEST_PROFILE))
    assert cm.TRANSITION_LABELS == ("C->R", "R->H", "H->C", "C->H")


def test_reserved_state_only_exits_to_honest():
    rng = np.random.default_rng(4)
    for i in range(50):
        p = random_params(rng)
        x = random_simplex(rng)
        rates = cm.transition_rates(p, x.x_H, x.x_C, cm.ALL_PROFILES[i % 4])
        outgoing = [label for label, rate in zip(cm.TRANSITION_LABELS, rates)
                    if label.startswith("R->") and rate > 0]
        assert outgoing == ["R->H"]


def test_honest_state_absorbing_without_intent_or_infection():
    p = make_params(q_inf=0.0)
    rates = cm.transition_rates(p, 0.3, 0.5, cm.StrategyProfile(0, 0))
    assert all(rate == 0.0 for label, rate in zip(cm.TRANSITION_LABELS, rates)
               if label.startswith("H->"))


def test_all_rates_nonnegative():
    rng = np.random.default_rng(5)
    for i in range(200):
        p = random_params(rng)
        x = random_simplex(rng)
        s = cm.ALL_PROFILES[i % 4]
        assert all(rate >= 0.0 for rate in cm.transition_rates(p, x.x_H, x.x_C, s))
