"""ODE integration, exact event simulation, tagged agents and estimators."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import corruption_mfg as cm
from corruption_mfg import simulate
from support import BASELINE, THREE_EQ, make_params

THIRDS = cm.PopulationState(1 / 3, 1 / 3, 1 / 3)


# ---------------------------------------------------------------------------
# ODE integration


def test_step_guard():
    with pytest.raises(cm.StepSizeError):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 1.0, 0.05)  # guard 0.1/3
    with pytest.raises(ValueError):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 1.0, 0.0)
    with pytest.raises(ValueError):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, -1.0, 0.01)


def test_sample_count_and_times():
    traj = cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 5.0, 0.01)
    assert len(traj.times) == 501
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(5.0, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)


def test_equilibrium_is_invariant():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    traj = cm.integrate_ode(BASELINE, rep.state, rep.strategy, 20.0, 0.01)
    drift = np.max(np.abs(traj.states - np.array(rep.state.as_tuple())))
    assert drift <= 1e-8


def test_flow_converges_to_stable_equilibrium():
    x0 = cm.PopulationState(0.0, 1.0, 0.0)
    traj = cm.integrate_ode(BASELINE, x0, cm.CORRUPT_PROFILE, 50.0, 0.01)
    final = traj.final_state()
    assert max(abs(a - b) for a, b in zip(final.as_tuple(), THIRDS.as_tuple())) <= 1e-6


def test_simplex_conservation_along_trajectory():
    traj = cm.integrate_ode(THREE_EQ, cm.PopulationState(0.8, 0.1, 0.1),
                            cm.CORRUPT_PROFILE, 30.0, 0.02)
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9
    assert traj.states.min() >= 0.0


def test_integration_order_is_fourth():
    # Richardson: halving dt divides the endpoint change by ~2^4.
    x0 = cm.PopulationState(0.5, 0.3, 0.2)
    ends = {
        dt: cm.integrate_ode(BASELINE, x0, cm.CORRUPT_PROFILE, 2.0, dt).states[-1]
        for dt in (0.02, 0.01, 0.005)
    }
    e_coarse = np.max(np.abs(ends[0.02] - ends[0.01]))
    e_fine = np.max(np.abs(ends[0.01] - ends[0.005]))
    assert e_coarse > 1e-13  # above float noise, so the ratio is meaningful
    assert math.log2(e_coarse / e_fine) >= 3.5


# ---------------------------------------------------------------------------
# population event paths


def test_population_determinism():
    n0 = cm.PopulationCounts(5, 5, 5)
    a = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 4.0, seed=9)
    b = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 4.0, seed=9)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.transition_codes, b.transition_codes)
    assert np.array_equal(a.counts, b.counts)
    c = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 4.0, seed=10)
    assert not np.array_equal(a.times, c.times)


def test_population_events_move_one_agent():
    n0 = cm.PopulationCounts(4, 7, 9)
    path = cm.simulate_population(THREE_EQ, n0, cm.CORRUPT_PROFILE, 6.0, seed=17)
    assert len(path) > 0
    assert np.all(np.diff(path.times) > 0)
    prev = np.array([n0.n_R, n0.n_H, n0.n_C])
    for row in path.counts:
        step = row - prev
        assert sorted(step.tolist()) == [-1, 0, 1]
        assert row.sum() == n0.N
        assert row.min() >= 0
        prev = row


def test_population_all_honest_is_absorbing():
    # u_H = 0 and no corrupt agents: every rate vanishes immediately.
    p = make_params(q_soc=1.0, q_inf=1.0)
    path = cm.simulate_population(p, cm.PopulationCounts(0, 30, 0), cm.HONEST_PROFILE,
                                  50.0, seed=1)
    assert len(path) == 0


def test_population_waiting_times_are_exponential():
    # Frozen-state harness: first waiting times from a fixed count vector
    # follow Exp(total rate); chi-squared GOF at the 1% level.
    n0 = cm.PopulationCounts(2, 3, 5)
    total = 5 * 1.0 + 2 * 1.0 + 3 * 1.0  # C->R + R->H + H->C at unit rates
    waits = [
        float(cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 5.0,
                                     seed=99, stream=i).times[0])
        for i in range(4000)
    ]
    k = 20
    edges = [-math.log1p(-j / k) / total for j in range(k)] + [math.inf]
    counts, _ = np.histogram(waits, bins=edges)
    _, p_value = stats.chisquare(counts)
    assert p_value >= 0.01


def test_event_path_accessors():
    n0 = cm.PopulationCounts(5, 5, 5)
    path = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 2.0, seed=3)
    assert path.counts_at(0.0) == (5, 5, 5)
    t_mid = float(path.times[0])
    assert path.counts_at(t_mid) == tuple(path.counts[0])
    events = list(path.events())
    assert len(events) == len(path)
    t0, label, counts0 = events[0]
    assert label in cm.TRANSITION_LABELS
    assert counts0.N == 15


# ---------------------------------------------------------------------------
# tagged agent


def test_tagged_agent_first_jump_from_reserved_is_recruitment():
    bg = cm.constant_trajectory(THIRDS, 50.0)
    for stream in range(5):
        path = cm.simulate_tagged_agent(BASELINE, bg, cm.StrategyProfile(1, 1),
                                        seed=2, stream=stream, initial_state="R")
        assert path[0] == (0.0, "R")
        assert path[1][1] == "H"


def test_tagged_agent_honest_absorbing_without_infection():
    bg = cm.constant_trajectory(cm.PopulationState(0.2, 0.3, 0.5), 100.0)
    path = cm.simulate_tagged_agent(BASELINE, bg, cm.StrategyProfile(0, 0),
                                    seed=4, initial_state="R")
    states = [s for _, s in path]
    assert states[-1] == "H"
    assert len(path) == 2  # R -> H and then nothing


def _occupation(path, horizon):
    occ = {"R": 0.0, "H": 0.0, "C": 0.0}
    for (t0, s0), (t1, _) in zip(path, path[1:]):
        occ[s0] += t1 - t0
    t_last, s_last = path[-1]
    occ[s_last] += horizon - t_last
    return occ


def _stationary_distribution(p, x, u):
    """Oracle: solve pi Q = 0 for the tagged chain's generator."""
    table = cm.individual_rates(p, x, u)
    states = ("R", "H", "C")
    q = np.zeros((3, 3))
    for i, src in enumerate(states):
        for j, tgt in enumerate(states):
            if i != j:
                q[i, j] = table.rate(src, tgt)
        q[i, i] = -q[i].sum()
    a = np.vstack([q.T, np.ones(3)])
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    pi, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return dict(zip(states, pi))


def test_tagged_agent_occupation_matches_stationary_distribution():
    p = make_params(q_soc=1.0, q_inf=2.0)
    x = cm.PopulationState(0.0, 0.5, 0.5)
    u = cm.StrategyProfile(1, 1)
    horizon = 4000.0
    bg = cm.constant_trajectory(x, horizon)
    path = cm.simulate_tagged_agent(p, bg, u, seed=5, initial_state="R")
    occ = _occupation(path, horizon)
    pi = _stationary_distribution(p, x, u)
    # batch means standard error over 40 blocks
    blocks = 40
    edges = np.linspace(0.0, horizon, blocks + 1)
    for state in ("R", "H", "C"):
        fractions = []
        times = [t for t, _ in path] + [horizon]
        labels = [s for _, s in path]
        for lo, hi in zip(edges[:-1], edges[1:]):
            inside = 0.0
            for (t0, s0), t1 in zip(zip(times[:-1], labels), times[1:]):
                a, b = max(t0, lo), min(t1, hi)
                if b > a and s0 == state:
                    inside += b - a
            fractions.append(inside / (hi - lo))
        se = np.std(fractions, ddof=1) / math.sqrt(blocks)
        assert abs(occ[state] / horizon - pi[state]) <= 3.5 * se + 1e-3


def test_tagged_agent_empirical_rates_match_generator():
    p = make_params(q_soc=1.0, q_inf=2.0)
    x = cm.PopulationState(0.0, 0.5, 0.5)
    u = cm.StrategyProfile(1, 1)
    horizon = 5000.0
    bg = cm.constant_trajectory(x, horizon)
    path = cm.simulate_tagged_agent(p, bg, u, seed=6, initial_state="R")
    occ = _occupation(path, horizon)
    jumps = {}
    for (_, s0), (_, s1) in zip(path, path[1:]):
        jumps[(s0, s1)] = jumps.get((s0, s1), 0) + 1
    table = cm.individual_rates(p, x, u)
    for (src, tgt), count in jumps.items():
        estimate = count / occ[src]
        se = math.sqrt(count) / occ[src]
        assert abs(estimate - table.rate(src, tgt)) <= 3.0 * se


def test_tagged_agent_holds_rates_constant_per_segment():
    # Piecewise background: no corrupt peers before t = 1, half the crowd
    # corrupt afterwards.  An agent with no switching intent can only be
    # infected, so every H -> C jump must happen strictly after t = 1 and
    # the waiting times past t = 1 must follow Exp(q_inf * 0.5).
    p = make_params(q_inf=2.0)
    times = np.array([0.0, 1.0, 21.0])
    states = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
    bg = cm.Trajectory(times=times, states=states, strategy=cm.StrategyProfile(0, 0),
                       dt=1.0, method="manual")
    waits = []
    for stream in range(800):
        path = cm.simulate_tagged_agent(p, bg, cm.StrategyProfile(0, 0),
                                        seed=21, stream=stream, initial_state="H")
        jumps = [(t, s) for t, s in path[1:] if s == "C"]
        if jumps:
            assert jumps[0][0] > 1.0
            waits.append(jumps[0][0] - 1.0)
    assert len(waits) > 700  # rate 1.0 over 20 time units: escapes are rare
    k = 10
    rate = p.q_inf * 0.5
    edges = [-math.log1p(-j / k) / rate for j in range(k)] + [math.inf]
    counts, _ = np.histogram(waits, bins=edges)
    _, p_value = stats.chisquare(counts)
    assert p_value >= 0.01, counts.tolist()


def test_tagged_agent_tracks_moving_background():
    # Against a background converging to the corrupt equilibrium the agent
    # must still jump; just exercise determinism and time ordering.
    bg = cm.integrate_ode(THREE_EQ, cm.PopulationState(0.0, 1.0, 0.0),
                          cm.CORRUPT_PROFILE, 30.0, 0.01)
    a = cm.simulate_tagged_agent(THREE_EQ, bg, cm.CORRUPT_PROFILE, seed=8)
    b = cm.simulate_tagged_agent(THREE_EQ, bg, cm.CORRUPT_PROFILE, seed=8)
    assert a == b
    times = [t for t, _ in a]
    assert times == sorted(times)
    assert times[-1] <= 30.0


# ---------------------------------------------------------------------------
# count rounding


def test_round_counts_largest_remainder():
    assert cm.round_counts(10, THIRDS) == cm.PopulationCounts(4, 3, 3)
    n = cm.round_counts(2, cm.PopulationState(0.5, 0.25, 0.25))
    assert n == cm.PopulationCounts(1, 1, 0)  # tie broken in state order R, H, C
    n = cm.round_counts(7, cm.PopulationState(0.0, 0.99, 0.01))
    assert n.N == 7
    with pytest.raises(ValueError):
        cm.round_counts(0, THIRDS)


# ---------------------------------------------------------------------------
# law of large numbers


def test_lln_requires_replications():
    with pytest.raises(ValueError, match="replications must be >= 1"):
        cm.lln_convergence(BASELINE, 10, THIRDS, cm.CORRUPT_PROFILE, 1.0, 0, seed=1)


def test_lln_improves_with_population_size():
    d_small = cm.lln_convergence(THREE_EQ, 50, THIRDS, cm.CORRUPT_PROFILE, 5.0, 10, seed=42)
    d_large = cm.lln_convergence(THREE_EQ, 5000, THIRDS, cm.CORRUPT_PROFILE, 5.0, 10, seed=42)
    assert d_large < d_small


def test_lln_deterministic():
    a = cm.lln_convergence(BASELINE, 100, THIRDS, cm.CORRUPT_PROFILE, 3.0, 5, seed=7)
    b = cm.lln_convergence(BASELINE, 100, THIRDS, cm.CORRUPT_PROFILE, 3.0, 5, seed=7)
    assert a == b


def test_lln_reuses_stream0_path(monkeypatch):
    n0 = cm.round_counts(200, THIRDS)
    path = cm.simulate_population(THREE_EQ, n0, cm.CORRUPT_PROFILE, 3.0, seed=9, stream=0)
    plain = cm.lln_convergence(THREE_EQ, 200, THIRDS, cm.CORRUPT_PROFILE, 3.0, 4, seed=9)
    streams = []
    simulate_population = simulate.simulate_population

    def counting(*args, **kwargs):
        streams.append(kwargs["stream"])
        return simulate_population(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_population", counting)
    handed = cm.lln_convergence(THREE_EQ, 200, THIRDS, cm.CORRUPT_PROFILE, 3.0, 4, seed=9,
                                stream0_path=path)
    assert handed == plain
    assert streams == [1, 2, 3]


@pytest.mark.parametrize("change", [
    {"seed": 10},
    {"stream": 1},
    {"t_end": 2.0},
    {"n0": cm.PopulationCounts(70, 64, 66)},   # same N, other counts
    {"n0": cm.PopulationCounts(33, 34, 33)},   # another N
    {"p": BASELINE},
    {"s": cm.HONEST_PROFILE},
])
def test_lln_rejects_mismatched_stream0_path(change):
    args = {"p": THREE_EQ, "n0": cm.round_counts(200, THIRDS), "s": cm.CORRUPT_PROFILE,
            "t_end": 3.0, "seed": 9, "stream": 0}
    args.update(change)
    path = cm.simulate_population(**args)
    with pytest.raises(ValueError, match="stream0_path"):
        cm.lln_convergence(THREE_EQ, 200, THIRDS, cm.CORRUPT_PROFILE, 3.0, 4, seed=9,
                           stream0_path=path)


# ---------------------------------------------------------------------------
# deviation gain


def test_deviation_gain_zero_horizon():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    est = cm.deviation_gain(BASELINE, rep, horizon=0.0, N=100, replications=5, seed=1)
    assert est.gain == 0.0
    assert est.baseline_mean == 0.0 and est.std_error == 0.0


def test_deviation_gain_deterministic_and_consistent():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    a = cm.deviation_gain(BASELINE, rep, horizon=20.0, N=100, replications=20, seed=3)
    b = cm.deviation_gain(BASELINE, rep, horizon=20.0, N=100, replications=20, seed=3)
    assert a == b
    assert a.gain == pytest.approx(a.deviation_mean - a.baseline_mean, abs=0)
    assert a.std_error >= 0.0
    assert a.replications == 20


def test_deviation_gain_detects_profitable_switch():
    # Forcing honesty at the corrupt equilibrium leaves a large payoff on
    # the table; the estimator must see it.
    rep = cm.enumerate_equilibria(BASELINE)[0]
    forced = dataclasses.replace(rep, strategy=cm.HONEST_PROFILE, behavior=cm.Behavior.HONEST)
    est = cm.deviation_gain(BASELINE, forced, horizon=60.0, N=100, replications=40, seed=11)
    assert est.gain >= 3.0 * est.std_error
    assert est.best_profile == cm.CORRUPT_PROFILE
