"""The Bellman solvers against independent oracles.

The regime solver gives, for each of the four strategy profiles, the exact
Poisson pair of its float inputs to round-off in the terms its values are
formed from, and the values that a linear solve of the profile's Poisson
and discounted systems gives.
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import corruption_mfg as cm  # noqa: E402
from support import make_params  # noqa: E402

_DECADES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)  # 16 decades
_OR_ZERO = st.one_of(st.just(0.0), _DECADES)
_CORNERS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
            (0.5, 0.0, 0.5)]
_STATES = st.one_of(
    st.sampled_from(_CORNERS),
    st.tuples(*[st.floats(0.0, 1.0)] * 3)
    .filter(lambda x: sum(x) > 0.0)
    .map(lambda x: tuple(v / sum(x) for v in x)),
)


def _params(rates, wages):
    lam, r, b, f, q_soc, q_inf = rates
    w_R, gap_h, gap_c = wages
    w_H, w_C = w_R + gap_h, w_R + gap_h + gap_c
    # A gap under half an ulp of the wage below it rounds away, and equal
    # wages are invalid parameters, not a case of the solver.
    assume(w_R < w_H < w_C)
    return cm.validate_params(make_params(lam=lam, r=r, b=b, f=f, q_soc=q_soc, q_inf=q_inf,
                                          w_R=w_R, w_H=w_H, w_C=w_C))


def exact_poisson_pair(p, x, u):
    """``(g_H, g_C, mu)`` of an agent with intent ``u``, as Fractions: the
    rows R, H, C of ``w + Q g = mu 1`` with ``g_R = 0``, solved exactly in
    the float inputs by Gauss-Jordan elimination."""
    F = Fraction
    k = F(p.b) + F(p.q_soc) * F(x.x_H)  # C -> R
    a = F(p.lam) * u.u_H + F(p.q_inf) * F(x.x_C)  # H -> C
    s = F(p.lam) * u.u_C  # C -> H
    r = F(p.r)
    # Unknowns (g_H, g_C, mu), then the right-hand side -w.
    rows = [[r, F(0), F(-1), -F(p.w_R)],
            [-a, a, F(-1), -F(p.w_H)],
            [s, -(k + s), F(-1), k * F(p.f) - F(p.w_C)]]
    for i in range(3):
        pivot = next(j for j in range(i, 3) if rows[j][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for j in range(3):
            if j != i and rows[j][i] != 0:
                m = rows[j][i] / rows[i][i]
                rows[j] = [v - m * w for v, w in zip(rows[j], rows[i])]
    return [row[3] / row[i] for i, row in enumerate(rows)]


def term_scales(p, x, u):
    """The size of the terms each of ``(g_H, g_C, mu)`` is exactly the sum of,
    over the common denominator, with every wage entering as a difference:

        g_H = (a (w_C - w_R - k f) + (s + k) (w_H - w_R)) / den
        g_C = (r (w_C - w_H - k f) + a (w_C - w_R - k f) + s (w_H - w_R)) / den
        mu  = r g_H + w_R

    Each input and each operation rounds at most once relative to these."""
    k = p.b + p.q_soc * x.x_H
    a = p.lam * u.u_H + p.q_inf * x.x_C
    s = p.lam * u.u_C
    den = p.r * (s + a + k) + a * k
    fine = k * p.f
    net_c = abs(p.w_C - p.w_R) + fine
    w_h = abs(p.w_H - p.w_R)
    g_H = (a * net_c + (s + k) * w_h) / den
    g_C = (p.r * (abs(p.w_C - p.w_H) + fine) + a * net_c + s * w_h) / den
    return g_H, g_C, p.r * g_H + abs(p.w_R)


@settings(max_examples=400, deadline=None)
@given(rates=st.tuples(_DECADES, _DECADES, _DECADES, _OR_ZERO, _OR_ZERO, _OR_ZERO),
       wages=st.tuples(st.one_of(st.just(0.0), _DECADES), _DECADES, _DECADES),
       x=_STATES)
def test_solve_regime_is_the_exact_poisson_pair_to_round_off(rates, wages, x):
    # Bounded by the terms of formulas in wage differences, so a form that
    # cancels w_C against w_H through r (w_C - w_R) - r (w_H - w_R) fails
    # wherever w_C - w_H is small and r large.
    p = _params(rates, wages)
    x = cm.PopulationState(*x)
    for u in cm.ALL_PROFILES:
        sol = cm.solve_regime(p, x, u)
        assert sol.g_R == 0.0
        for got, want, scale in zip((sol.g_H, sol.g_C, sol.mu), exact_poisson_pair(p, x, u),
                                    term_scales(p, x, u)):
            assert abs(Fraction(got) - want) <= 1e-14 * scale, u


@pytest.mark.parametrize("r", [1.0, 1e3, 1e8])
@pytest.mark.parametrize("gap", [1e-9, 1e-15])
def test_solve_regime_keeps_a_small_corrupt_wage_gap(r, gap):
    # Nobody switches from H or C and no one is fined, so g_C = (w_C - w_H) / k
    # exactly with k = b = 1; it was formed as a difference of two terms of
    # size r and lost up to r * 2**-53 of it.
    p = make_params(lam=1.0, r=r, b=1.0, f=0.0, q_soc=0.0, q_inf=0.0, w_R=0.0, w_H=1.0,
                    w_C=1.0 + gap)
    x = cm.PopulationState(0.5, 0.5, 0.0)
    sol = cm.solve_regime(p, x, cm.StrategyProfile(0, 0))
    want = exact_poisson_pair(p, x, cm.StrategyProfile(0, 0))[1]
    assert abs(Fraction(sol.g_C) - want) <= 1e-15 * abs(want)


# The oracles below build the tagged agent's chain from the model's
# definition, over the states (R, H, C), and use nothing of the package.
def generator(p, x, u):
    """The 3x3 generator of an agent with intent ``u`` at background ``x``."""
    k = p.b + p.q_soc * x.x_H  # C -> R
    a = p.lam * u.u_H + p.q_inf * x.x_C  # H -> C
    s = p.lam * u.u_C  # C -> H
    return np.array([[-p.r, p.r, 0.0], [0.0, -a, a], [k, s, -(k + s)]])


def payoff_flows(p, x):
    """Payoff per unit time in R, H and C; the fine is paid at the detection rate."""
    return np.array([p.w_R, p.w_H, p.w_C - (p.b + p.q_soc * x.x_H) * p.f])


def refined_solve(m, y):
    """``m z = y`` by ``numpy.linalg.solve`` and one step of iterative
    refinement, with the componentwise error scale ``|m^-1| (|m| |z| + |y|)``.

    Rates over many decades make ``m`` badly scaled.  The refined ``z`` is
    then exact to a small multiple of the scale times the float epsilon, and
    a solution is compared to it relative to that scale: the magnitude of the
    terms each component is formed from.
    """
    z = np.linalg.solve(m, y)
    z = z + np.linalg.solve(m, y - m @ z)
    return z, np.abs(np.linalg.inv(m)) @ (np.abs(m) @ np.abs(z) + np.abs(y))


def stationary_law(q):
    """The stationary law of ``q``, by the Markov chain tree theorem: each
    state's weight is the sum over spanning trees into it of the products of
    their rates (the chain has no R->C or H->R move).  All terms are
    positive, so no digit cancels."""
    r, a, k, s = q[0, 1], q[1, 2], q[2, 0], q[2, 1]
    weights = np.array([a * k, r * (s + k), r * a])
    return weights / weights.sum()


_TWELVE_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_RATES = st.tuples(*[_TWELVE_DECADES] * 3, *[st.one_of(st.just(0.0), _TWELVE_DECADES)] * 3)
_WAGES = st.tuples(st.one_of(st.just(0.0), _TWELVE_DECADES), _TWELVE_DECADES, _TWELVE_DECADES)


@settings(max_examples=300, deadline=None)
@given(rates=_RATES, wages=_WAGES, x=_STATES)
def test_solve_regime_is_the_poisson_pair_of_every_profile(rates, wages, x):
    # The long-run average payoff mu and the relative values g with g_R = 0
    # solve w + Q g = mu 1, three linear equations in (g_H, g_C, mu).
    p = _params(rates, wages)
    x = cm.PopulationState(*x)
    w = payoff_flows(p, x)
    for u in cm.ALL_PROFILES:
        q = generator(p, x, u)
        sol = cm.solve_regime(p, x, u)
        want, scale = refined_solve(np.column_stack([q[:, 1], q[:, 2], -np.ones(3)]), -w)
        got = np.array([sol.g_H, sol.g_C, sol.mu])
        assert sol.g_R == 0.0
        assert np.all(np.abs(got - want) <= 1e-10 * scale), u
        # mu is the payoff flow averaged over the stationary law.
        pi = stationary_law(q)
        assert np.abs(pi @ q).max() <= 1e-13 * np.abs(q).max(), u
        assert abs(sol.mu - pi @ w) <= 1e-10 * (pi @ np.abs(w)), u


@settings(max_examples=300, deadline=None)
@given(rates=_RATES, wages=_WAGES, x=_STATES, delta=_TWELVE_DECADES)
def test_solve_discounted_is_the_resolvent_of_every_profile(rates, wages, x, delta):
    # Discounted values solve (delta I - Q) g = w.
    p = _params(rates, wages)
    x = cm.PopulationState(*x)
    w = payoff_flows(p, x)
    for u in cm.ALL_PROFILES:
        v = cm.solve_discounted(p, x, delta, u)
        want, scale = refined_solve(delta * np.eye(3) - generator(p, x, u), w)
        got = np.array([v.g_R, v.g_H, v.g_C])
        assert np.all(np.abs(got - want) <= 1e-10 * scale), u
