"""Regime thresholds, closed-form value functions, discounted solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from support import BASELINE, make_params, moderate_params, random_params, random_simplex


# ---------------------------------------------------------------------------
# classifier threshold


def test_classifier_hand_values():
    # (1/q_soc) * [ r (w_C - w_H) / (w_H - w_R + r f) - b ]
    p = make_params(q_soc=1.0)  # w = (0, 1, 10), f = 0, r = b = 1
    assert cm.classifier_xbar(p).value == pytest.approx(8.0, abs=1e-15)
    p = make_params(q_soc=1.0, f=1.0, w_H=5.0)
    assert cm.classifier_xbar(p).value == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_classifier_infinite_conventions():
    up = cm.classifier_xbar(BASELINE)  # bracket = 9 - 1 > 0, q_soc = 0
    assert up.value == math.inf and not up.indifferent_everywhere
    down = cm.classifier_xbar(make_params(w_H=5.0, f=1.0))  # bracket = 5/6 - 1 < 0
    assert down.value == -math.inf
    # zero bracket: r (w_C - w_H) / (w_H - w_R + r f) = b exactly
    tie = cm.classifier_xbar(make_params(b=9.0))
    assert tie.value == math.inf and tie.indifferent_everywhere


def test_classifier_overflowing_bracket_takes_its_limit():
    # Where r f or r (w_C - w_H) overflows, the bracket is formed with every
    # term divided by r: (w_C - w_H) / ((w_H - w_R) / r + f) - b.
    p = make_params(r=1e308, f=10.0, q_soc=1.0)  # 9 / 10 - 1
    assert cm.classifier_xbar(p).value == pytest.approx(-0.1, rel=1e-15)
    corner = cm.classifier_xbar(make_params(r=1e308, f=10.0))  # q_soc = 0
    assert corner.value == -math.inf and not corner.indifferent_everywhere
    # r + delta overflows to inf at f = 0: the bracket has no bound.
    assert cm.classifier_xbar_discounted(make_params(r=1e308, q_soc=1.0), 1e308).value == math.inf
    # f = 0 and (w_H - w_R) / (r + delta) underflows to 0: +inf, not a
    # ZeroDivisionError.
    p = make_params(w_H=1e-20, q_soc=1.0)
    assert cm.classifier_xbar_discounted(p, 1e308).value == math.inf
    # At q_soc = 0 with r + delta = inf the sign is the limit's over the rate,
    # that of w_C - w_H - b f = 9 - f.
    for f, value, tie in ((0.0, math.inf, False), (9.0, math.inf, True), (10.0, -math.inf, False)):
        limit = cm.classifier_xbar_discounted(make_params(r=1e308, f=f), 1e308)
        assert (limit.value, limit.indifferent_everywhere) == (value, tie)


def test_discounted_classifier_hand_value_and_delta_zero():
    p = make_params(q_soc=1.0, f=1.0, w_H=5.0)
    # (r+delta)(w_C-w_H)/(w_H-w_R+(r+delta)f) - b = 2*5/7 - 1 = 3/7 at delta=1
    assert cm.classifier_xbar_discounted(p, 1.0).value == pytest.approx(3.0 / 7.0, abs=1e-15)
    assert cm.classifier_xbar_discounted(p, 0.0).value == cm.classifier_xbar(p).value
    # (r+delta)(w_C-w_H) = 10 < (w_H-w_R+(r+delta)f) b = 11: negative bracket
    down = cm.classifier_xbar_discounted(make_params(w_H=5.0, f=3.0), 1.0)
    assert down.value == -math.inf


def test_discounted_classifier_small_delta_continuity():
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = moderate_params(rng)
        base = cm.classifier_xbar(p).value
        assert abs(cm.classifier_xbar_discounted(p, 1e-8).value - base) <= 1e-6


# ---------------------------------------------------------------------------
# regime solvers: frozen hand solutions


def test_corrupt_regime_hand_solution():
    # unit rates, no fine, no coupling, wages (0, 1, 10):
    #   w_H + lam (g_C - g_H) = r g_H    and    w_C - b g_C = r g_H
    # => denominator r(a+k)+a k = 3, g_C = (2*10 - 1)/3, g_H = (10 + 1)/3.
    x = cm.PopulationState(0.2, 0.3, 0.5)
    sol = cm.solve_regime(BASELINE, x, cm.CORRUPT_PROFILE)
    assert sol.g_C == pytest.approx(19.0 / 3.0, abs=1e-14)
    assert sol.g_H == pytest.approx(11.0 / 3.0, abs=1e-14)
    assert sol.mu == pytest.approx(11.0 / 3.0, abs=1e-14)
    assert sol.g_R == 0.0
    assert sol.g_C >= sol.g_H - cm.TIE_TOL


def test_corrupt_regime_restores_reserved_wage():
    # Shifting all wages by w_R leaves (g_H, g_C) unchanged and adds w_R to mu.
    x = cm.PopulationState(0.2, 0.3, 0.5)
    shifted = make_params(w_R=2.0, w_H=3.0, w_C=12.0)
    sol = cm.solve_regime(shifted, x, cm.CORRUPT_PROFILE)
    assert sol.g_C == pytest.approx(19.0 / 3.0, abs=1e-12)
    assert sol.g_H == pytest.approx(11.0 / 3.0, abs=1e-12)
    assert sol.mu == pytest.approx(11.0 / 3.0 + 2.0, abs=1e-12)


def test_honest_regime_hand_solution_corruption_pays():
    x = cm.PopulationState(0.2, 0.3, 0.5)
    sol = cm.solve_regime(BASELINE, x, cm.HONEST_PROFILE)
    assert sol.g_C == pytest.approx(5.0, abs=1e-14)
    assert sol.g_H == pytest.approx(1.0, abs=1e-14)
    assert sol.g_C > sol.g_H + cm.TIE_TOL  # corruption pays here


def test_honest_regime_hand_solution_consistent():
    p = make_params(f=1.0, q_soc=1.0, w_H=5.0, w_C=5.5)
    x = cm.PopulationState(0.0, 1.0, 0.0)
    sol = cm.solve_regime(p, x, cm.HONEST_PROFILE)
    assert sol.g_C == pytest.approx(3.5 / 3.0, abs=1e-14)
    assert sol.g_H == pytest.approx(5.0, abs=1e-14)
    assert sol.g_C <= sol.g_H + cm.TIE_TOL


def test_honest_regime_large_fine_dominates():
    p = make_params(f=100.0, q_soc=0.5, w_H=1.0, w_C=1.0 + 1e-6)
    x = cm.PopulationState(0.3, 0.4, 0.3)
    sol = cm.solve_regime(p, x, cm.HONEST_PROFILE)
    assert sol.g_C < sol.g_H
    assert sol.g_C <= sol.g_H + cm.TIE_TOL


def _branch_residuals(p, x, u, sol):
    """Restate both Bellman lines of the profile ``u`` and evaluate them."""
    g_h, g_c = sol.g_H, sol.g_C
    w_h, w_c = p.w_H - p.w_R, p.w_C - p.w_R
    k = p.b + p.q_soc * x.x_H
    if u == cm.CORRUPT_PROFILE:
        a = p.lam + p.q_inf * x.x_C
        eq1 = w_h + a * (g_c - g_h) - p.r * g_h
        eq2 = w_c - k * p.f - k * g_c - p.r * g_h
    else:
        eq1 = w_h + p.q_inf * x.x_C * (g_c - g_h) - p.r * g_h
        eq2 = w_c - k * p.f + p.lam * (g_h - g_c) - k * g_c - p.r * g_h
    return abs(eq1), abs(eq2)


def test_branch_solutions_satisfy_their_systems():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = random_params(rng)
        x = random_simplex(rng)
        tol = 1e-10 * max(1.0, abs(p.w_C), abs(p.w_H))
        for u in (cm.CORRUPT_PROFILE, cm.HONEST_PROFILE):
            sol = cm.solve_regime(p, x, u)
            r1, r2 = _branch_residuals(p, x, u, sol)
            assert r1 <= tol and r2 <= tol


def test_consistency_flags_match_threshold():
    # For both branches, sign(g_C - g_H) agrees with sign(x_bar - x_H).
    rng = np.random.default_rng(12)
    for _ in range(2000):
        p = random_params(rng)
        x = random_simplex(rng)
        x_bar = cm.classifier_xbar(p).value
        if abs(x.x_H - x_bar) <= 1e-9:
            continue
        corrupt_ok = x.x_H < x_bar
        corrupt = cm.solve_regime(p, x, cm.CORRUPT_PROFILE)
        honest = cm.solve_regime(p, x, cm.HONEST_PROFILE)
        assert (corrupt.g_C >= corrupt.g_H - cm.TIE_TOL) == corrupt_ok
        assert (honest.g_C <= honest.g_H + cm.TIE_TOL) == (not corrupt_ok)


# ---------------------------------------------------------------------------
# best_response


def test_best_response_corrupt_region():
    p = make_params(q_soc=1.0)  # x_bar = 8
    x = cm.PopulationState(0.25, 0.5, 0.25)
    resp = cm.best_response(p, x)
    corrupt = cm.solve_regime(p, x, cm.CORRUPT_PROFILE)
    assert resp.behavior is cm.Behavior.CORRUPT
    assert resp.value == corrupt
    assert corrupt.g_C >= corrupt.g_H - cm.TIE_TOL


def test_best_response_honest_region():
    p = make_params(q_soc=1.0, f=1.0, w_H=5.0)  # x_bar = -1/6
    for x_h in (0.0, 0.3, 1.0):
        x = cm.PopulationState(1.0 - x_h, x_h, 0.0)
        assert cm.best_response(p, x).behavior is cm.Behavior.HONEST


def test_best_response_tie_is_indifferent():
    p = make_params(q_soc=1.0, w_C=2.5)  # x_bar = (2.5 - 1) - 1 = 0.5 exactly
    x = cm.PopulationState(0.25, 0.5, 0.25)
    resp = cm.best_response(p, x)
    assert resp.behavior is cm.Behavior.INDIFFERENT
    corrupt = cm.solve_regime(p, x, cm.CORRUPT_PROFILE)
    honest = cm.solve_regime(p, x, cm.HONEST_PROFILE)
    assert corrupt.g_C - corrupt.g_H == pytest.approx(0.0, abs=1e-12)
    assert honest.g_C - honest.g_H == pytest.approx(0.0, abs=1e-12)


def test_best_response_threshold_bounds():
    # Never corrupt when x_bar < 0, never honest when x_bar > 1.
    rng = np.random.default_rng(13)
    seen_neg = seen_big = 0
    while seen_neg < 50 or seen_big < 50:
        p = random_params(rng)
        x_bar = cm.classifier_xbar(p).value
        x = random_simplex(rng)
        resp = cm.best_response(p, x)
        if x_bar < 0:
            seen_neg += 1
            assert resp.behavior is not cm.Behavior.CORRUPT
        elif x_bar > 1:
            seen_big += 1
            assert resp.behavior is not cm.Behavior.HONEST


def test_best_response_indifferent_everywhere_flag():
    p = make_params(b=9.0)  # q_soc = 0 with zero bracket
    resp = cm.best_response(p, cm.PopulationState(0.4, 0.3, 0.3))
    assert resp.behavior is cm.Behavior.INDIFFERENT
    assert cm.classifier_xbar(p).indifferent_everywhere


def test_best_response_value_solves_full_bellman_system():
    # The returned value must satisfy all three stationary optimality lines
    # with the max over the binary control taken explicitly.
    rng = np.random.default_rng(16)
    for _ in range(500):
        p = random_params(rng)
        x = random_simplex(rng)
        resp = cm.best_response(p, x)
        g_h, g_c = resp.value.g_H, resp.value.g_C
        mu = p.r * g_h  # shifted average payoff; g_R = 0
        k = p.b + p.q_soc * x.x_H
        line_h = (
            (p.w_H - p.w_R)
            + p.q_inf * x.x_C * (g_c - g_h)
            + p.lam * max(g_c - g_h, 0.0)
        )
        line_c = (
            (p.w_C - p.w_R) - k * p.f
            + p.lam * max(g_h - g_c, 0.0)
            - k * g_c
        )
        tol = 1e-9 * max(1.0, abs(p.w_C), abs(p.w_H))
        assert abs(line_h - mu) <= tol
        assert abs(line_c - mu) <= tol
        assert resp.value.mu == pytest.approx(mu + p.w_R, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# discounted solver


def _discounted_residuals(p, x, delta, u, v):
    a = p.lam * u.u_H + p.q_inf * x.x_C
    k = p.b + p.q_soc * x.x_H
    eq1 = p.w_R + p.r * (v.g_H - v.g_R) - delta * v.g_R
    eq2 = p.w_H + a * (v.g_C - v.g_H) - delta * v.g_H
    eq3 = (
        p.w_C - k * p.f + p.lam * u.u_C * (v.g_H - v.g_C) + k * (v.g_R - v.g_C)
        - delta * v.g_C
    )
    return abs(eq1), abs(eq2), abs(eq3)


def test_discounted_solution_residuals():
    rng = np.random.default_rng(14)
    for _ in range(300):
        p = random_params(rng)
        x = random_simplex(rng)
        delta = float(10 ** rng.uniform(-2, 1))
        for u in cm.ALL_PROFILES:
            v = cm.solve_discounted(p, x, delta, u)
            scale = max(1.0, abs(v.g_R), abs(v.g_H), abs(v.g_C))
            assert max(_discounted_residuals(p, x, delta, u, v)) <= 1e-10 * scale
            assert v.mu is None


def test_discounted_myopic_limit():
    # At enormous delta the values approach the instantaneous payoff flows / delta.
    p = make_params(w_R=0.5, w_H=2.0, w_C=11.0, f=0.3, q_soc=0.7, q_inf=0.4)
    x = cm.PopulationState(0.3, 0.4, 0.3)
    delta = 1e6
    v = cm.solve_discounted(p, x, delta, cm.CORRUPT_PROFILE)
    k = p.b + p.q_soc * x.x_H
    assert v.g_R * delta == pytest.approx(p.w_R, rel=1e-3)
    assert v.g_H * delta == pytest.approx(p.w_H, rel=1e-3)
    assert v.g_C * delta == pytest.approx(p.w_C - k * p.f, rel=1e-3)


def test_discounted_regime_matches_discounted_threshold():
    # At delta -> 0 the preferred state ordering follows the discounted
    # threshold: g_C > g_H iff x_H < x_bar(delta), away from the boundary.
    rng = np.random.default_rng(15)
    delta = 1e-8
    checked = 0
    while checked < 200:
        p = moderate_params(rng)
        x = random_simplex(rng)
        x_bar = cm.classifier_xbar_discounted(p, delta).value
        if abs(x.x_H - x_bar) < 1e-3:
            continue
        u = cm.CORRUPT_PROFILE if x.x_H < x_bar else cm.HONEST_PROFILE
        v = cm.solve_discounted(p, x, delta, u)
        assert (v.g_C > v.g_H) == (x.x_H < x_bar)
        checked += 1


def test_discounted_requires_positive_delta():
    with pytest.raises(ValueError):
        cm.solve_discounted(BASELINE, cm.PopulationState(0.4, 0.3, 0.3), 0.0, cm.CORRUPT_PROFILE)


def test_discounted_rejects_nan_delta():
    with pytest.raises(ValueError):
        cm.solve_discounted(
            BASELINE, cm.PopulationState(0.4, 0.3, 0.3), math.nan, cm.CORRUPT_PROFILE
        )


def _row_scaled_residuals(p, x, delta, u, v):
    # Each Bellman line as its separate terms; the residual is their exact
    # sum over the sum of their magnitudes.
    a = p.lam * u.u_H + p.q_inf * x.x_C
    s = p.lam * u.u_C
    k = p.b + p.q_soc * x.x_H
    rows = (
        (p.w_R, p.r * v.g_H, -p.r * v.g_R, -delta * v.g_R),
        (p.w_H, a * v.g_C, -a * v.g_H, -delta * v.g_H),
        (p.w_C, -k * p.f, s * v.g_H, -s * v.g_C, k * v.g_R, -k * v.g_C, -delta * v.g_C),
    )
    return [abs(math.fsum(row)) / math.fsum(abs(t) for t in row) for row in rows]


_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)  # 12 decades
_OR_ZERO = st.one_of(st.just(0.0), _DECADES)


@settings(max_examples=400, deadline=None)
@given(rates=st.tuples(_DECADES, _DECADES, _DECADES, _OR_ZERO, _OR_ZERO, _OR_ZERO),
       wages=st.tuples(_OR_ZERO, _DECADES, _DECADES),
       x=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       delta=st.floats(-8.0, 6.0).map(lambda e: 10.0**e),
       u=st.sampled_from(cm.ALL_PROFILES))
def test_discounted_row_scaled_residuals_over_twelve_decades(rates, wages, x, delta, u):
    lam, r, b, f, q_soc, q_inf = rates
    w_R, gap_h, gap_c = wages
    p = cm.validate_params(make_params(lam=lam, r=r, b=b, f=f, q_soc=q_soc, q_inf=q_inf,
                                       w_R=w_R, w_H=w_R + gap_h, w_C=w_R + gap_h + gap_c))
    x_h = x[0]
    x_c = (1.0 - x_h) * x[1]
    state = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
    v = cm.solve_discounted(p, state, delta, u)
    assert max(_row_scaled_residuals(p, state, delta, u, v)) <= 1e-13
