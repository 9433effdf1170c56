"""ODE integration, exact event simulation, tagged agents and estimators."""

import bisect
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg import cli, simulate
from support import BASELINE, THREE_EQ, THREE_EQ_CONFIG, make_params, report_of

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
    final = cm.PopulationState(*traj.states[-1])
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


def test_nan_step_or_horizon_is_rejected():
    with pytest.raises(ValueError, match="dt"):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 1.0, math.nan)
    with pytest.raises(ValueError, match="t_end"):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, math.nan, 0.01)


def test_step_count_cap_raises_before_allocating(monkeypatch):
    def no_buffer(*args):
        raise AssertionError("trajectory buffer allocated")

    monkeypatch.setattr(simulate, "array", no_buffer)
    dt = 2.0**-5  # t_end / dt is exact below
    for t_end in (math.inf, 1e300, simulate.MAX_ODE_ROWS * dt):  # the last is one row over
        with pytest.raises(cm.StepSizeError, match="trajectory rows"):
            cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, t_end, dt)


def test_step_count_cap_boundary(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_ODE_ROWS", 11)
    dt = 2.0**-5
    traj = cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 10 * dt, dt)
    assert traj.states.shape == (11, 3)
    with pytest.raises(cm.StepSizeError):
        cm.integrate_ode(BASELINE, THIRDS, cm.CORRUPT_PROFILE, 11 * dt, dt)


def _reference_rk4(p, x0, s, t_end, dt):
    """Classical RK4 on ``kinetic_rhs``, clamped and renormalised per step."""

    def drift(x):
        return cm.kinetic_rhs(p, SimpleNamespace(x_R=x[0], x_H=x[1], x_C=x[2]), s)

    half, sixth = dt / 2.0, dt / 6.0
    x = x0.as_tuple()
    rows = [x]
    for _ in range(math.floor(t_end / dt + 1e-9)):
        k1 = drift(x)
        k2 = drift([xi + half * ki for xi, ki in zip(x, k1)])
        k3 = drift([xi + half * ki for xi, ki in zip(x, k2)])
        k4 = drift([xi + dt * ki for xi, ki in zip(x, k3)])
        x = [xi + sixth * (a + 2.0 * (b + c) + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        x = [v if v > 0.0 else 0.0 for v in x]
        total = x[0] + x[1] + x[2]
        x = [v / total for v in x]
        rows.append(x)
    return np.array(rows, dtype=float)


_RATE = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)  # 12 decades
_COUPLING = st.one_of(st.just(0.0), _RATE)
_CORNERS = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
            (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (-0.0, 0.0, 1.0)]
_STATES = st.one_of(
    st.sampled_from(_CORNERS),
    st.tuples(*[st.floats(0.0, 1.0)] * 3)
    .filter(lambda x: sum(x) > 0.0)
    .map(lambda x: tuple(v / sum(x) for v in x)),
)


@settings(max_examples=200, deadline=None)
@given(rates=st.tuples(_RATE, _RATE, _RATE, _COUPLING, _COUPLING), x0=_STATES,
       s=st.sampled_from(cm.ALL_PROFILES), step_frac=st.floats(1e-3, 1.0),
       n_steps=st.integers(0, 50))
def test_integrate_ode_matches_reference_rk4_bit_for_bit(rates, x0, s, step_frac, n_steps):
    lam, r, b, q_soc, q_inf = rates
    p = make_params(lam=lam, r=r, b=b, q_soc=q_soc, q_inf=q_inf)
    x0 = cm.PopulationState(*x0)
    dt = step_frac * 0.1 / simulate.rate_scale(p)
    t_end = n_steps * dt
    states = cm.integrate_ode(p, x0, s, t_end, dt).states
    expected = _reference_rk4(p, x0, s, t_end, dt)
    assert states.shape == expected.shape
    # tobytes, not array_equal: a -0.0 where the reference has 0.0 fails.
    assert states.tobytes() == expected.tobytes()


def _trailing_run(states):
    """Number of final rows whose bytes equal the last row's."""
    rows = [row.tobytes() for row in states]
    k = 1
    while k < len(rows) and rows[-1 - k] == rows[-1]:
        k += 1
    return k


# (params, x0, strategy, t_end, dt) of flows that land on an exact fixed point
# and repeat it: THREE_EQ at about rows 3,566 and 3,640 of 20,001, the
# interaction-free baseline from row 0, and the honest boundary from row 1
# (row 0 holds -0.0, row 1 holds 0.0).
_SETTLING = {
    "three-corrupt": (THREE_EQ, cm.PopulationState(0.2, 0.5, 0.3), cm.CORRUPT_PROFILE,
                      200.0, 0.01),
    "three-honest": (THREE_EQ, cm.PopulationState(0.2, 0.5, 0.3), cm.HONEST_PROFILE,
                     200.0, 0.01),
    "baseline-thirds": (BASELINE, THIRDS, cm.CORRUPT_PROFILE, 50.0, 0.01),
    "honest-boundary": (THREE_EQ, cm.PopulationState(-0.0, 1.0, 0.0), cm.HONEST_PROFILE,
                        1.0, 0.01),
}


@pytest.mark.parametrize("n_steps", [0, 1, 2, None])
@pytest.mark.parametrize("case", sorted(_SETTLING))
def test_settled_flow_matches_reference_rk4_bit_for_bit(case, n_steps):
    # _reference_rk4 takes every step; integrate_ode stops at the fixed point.
    # n_steps None runs to the case's t_end, past the fixed point.
    p, x0, s, t_end, dt = _SETTLING[case]
    if n_steps is not None:
        t_end = n_steps * dt
    states = cm.integrate_ode(p, x0, s, t_end, dt).states
    expected = _reference_rk4(p, x0, s, t_end, dt)
    assert states.shape == expected.shape
    assert states.tobytes() == expected.tobytes()
    if n_steps is None:
        assert _trailing_run(expected) > 1
    if case == "honest-boundary" and n_steps != 0:
        assert _trailing_run(expected) == len(expected) - 1
        assert np.signbit(states[0, 0]) and not np.signbit(states[1, 0])


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


def test_event_cap_raises_before_drawing(monkeypatch):
    def no_stream(*args):
        raise AssertionError("uniform stream opened")

    monkeypatch.setattr(simulate, "UniformStream", no_stream)
    n0 = cm.PopulationCounts(0, 50, 50)  # rate_scale(BASELINE) * N = 300
    for t_end in (math.inf, 1e300, simulate.MAX_EVENTS / 200):  # the last predicts 1.5 cap
        with pytest.raises(cm.StepSizeError, match="events"):
            cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, t_end, seed=1)
    with pytest.raises(ValueError, match="t_end must be"):
        cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, math.nan, seed=1)


def test_event_cap_boundary(monkeypatch):
    n0 = cm.PopulationCounts(4, 3, 3)  # rate_scale(BASELINE) * N = 30
    want = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 2.0, seed=3)
    monkeypatch.setattr(simulate, "MAX_EVENTS", 60)
    got = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 2.0, seed=3)
    assert len(got) > 0
    assert got.times.tobytes() == want.times.tobytes()
    with pytest.raises(cm.StepSizeError):
        cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, math.nextafter(2.0, 3.0), seed=3)


def test_population_size_guard_raises_before_drawing(monkeypatch):
    # Counts above 2**53 are not exact in the event loop; N = 2**53 is accepted.
    def no_stream(*args):
        raise AssertionError("uniform stream opened")

    monkeypatch.setattr(simulate, "UniformStream", no_stream)
    t_end = 1e-20  # predicts about 0.03 events: only the size guard can fire
    big = cm.PopulationCounts(0, 2**53 + 1, 0)
    with pytest.raises(cm.StepSizeError, match=r"2\*\*53"):
        cm.simulate_population(THREE_EQ, big, cm.CORRUPT_PROFILE, t_end, seed=1)
    with pytest.raises(cm.StepSizeError, match=r"2\*\*53"):
        cm.lln_convergence(THREE_EQ, 2**53 + 1, THIRDS, cm.CORRUPT_PROFILE, t_end, 1, seed=1,
                           dt=t_end)
    monkeypatch.undo()
    edge = cm.PopulationCounts(0, 2**53, 0)
    assert len(cm.simulate_population(THREE_EQ, edge, cm.CORRUPT_PROFILE, t_end, seed=1)) == 0
    distance, path = cm.lln_convergence(THREE_EQ, 2**53, THIRDS, cm.CORRUPT_PROFILE, t_end, 1,
                                        seed=1, dt=t_end)
    assert path.N == 2**53 and math.isfinite(distance)


def _reference_population(p, n0, s, t_end, seed, stream):
    """The event loop on int counts, appending the count vector after each event."""
    uniform = simulate.UniformStream(seed, stream).uniform
    n_r, n_h, n_c = n0.n_R, n0.n_H, n0.n_C
    N = n0.N
    t, times, codes, counts = 0.0, [], [], []
    while True:
        rate_cr = n_c * (p.b + p.q_soc * n_h / N)
        upto_rh = rate_cr + n_r * p.r
        upto_hc = upto_rh + n_h * (p.lam * s.u_H + p.q_inf * n_c / N)
        total = upto_hc + p.lam * n_c * s.u_C
        if total <= 0.0:
            break
        t += -math.log1p(-uniform()) / total
        if t > t_end:
            break
        pick = uniform() * total
        code = 0 if pick < rate_cr else 1 if pick < upto_rh else 2 if pick < upto_hc else 3
        if code == 0:
            n_c, n_r = n_c - 1, n_r + 1
        elif code == 1:
            n_r, n_h = n_r - 1, n_h + 1
        elif code == 2:
            n_h, n_c = n_h - 1, n_c + 1
        else:
            n_c, n_h = n_c - 1, n_h + 1
        times.append(t)
        codes.append(code)
        counts.append((n_r, n_h, n_c))
    return (np.array(times, dtype=np.float64), np.array(codes, dtype=np.uint8),
            np.array(counts, dtype=np.int64).reshape(len(times), 3))


def _initial_total_rate(p, n0, s):
    n_r, n_h, n_c, N = n0.n_R, n0.n_H, n0.n_C, n0.N
    return (n_c * (p.b + p.q_soc * n_h / N) + n_r * p.r
            + n_h * (p.lam * s.u_H + p.q_inf * n_c / N) + p.lam * n_c * s.u_C)


def _assert_matches_reference(p, n0, s, t_end, seed, stream=0):
    path = cm.simulate_population(p, n0, s, t_end, seed, stream=stream)
    times, codes, counts = _reference_population(p, n0, s, t_end, seed, stream)
    assert path.times.tobytes() == times.tobytes()
    assert path.transition_codes.tobytes() == codes.tobytes()
    assert path.counts.dtype == np.int64 and path.counts.shape == counts.shape
    assert path.counts.flags.c_contiguous
    assert path.counts.tobytes() == counts.tobytes()
    return path


@st.composite
def _population(draw):
    N = draw(st.integers(1, 2000))
    n_r = draw(st.integers(0, N))
    n_h = draw(st.integers(0, N - n_r))
    return cm.PopulationCounts(n_r, n_h, N - n_r - n_h)


@settings(max_examples=150, deadline=None)
@given(rates=st.tuples(_RATE, _RATE, _RATE, _COUPLING, _COUPLING), n0=_population(),
       s=st.sampled_from(cm.ALL_PROFILES), events=st.floats(0.0, 300.0),
       seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 3))
@example(rates=(1.0, 1.0, 1.0, 1.0, 1.0), n0=cm.PopulationCounts(0, 30, 0),
         s=cm.StrategyProfile(0, 1), events=300.0, seed=1, stream=0)  # absorbing start
@example(rates=(1.0, 1.0, 1.0, 0.0, 0.0), n0=cm.PopulationCounts(5, 5, 5),
         s=cm.CORRUPT_PROFILE, events=0.0, seed=1, stream=0)  # t_end = 0
@example(rates=(0.3, 0.7, 0.2, 0.3, 1.3), n0=cm.PopulationCounts(300, 500, 200),
         s=cm.StrategyProfile(0, 0), events=300.0, seed=1, stream=0)  # q_soc x_H ~ b
def test_population_matches_reference_loop_bit_for_bit(rates, n0, s, events, seed, stream):
    # t_end is set for about `events` events at the initial total rate, and
    # for at most 100 * events at the largest rate the chain can reach.
    lam, r, b, q_soc, q_inf = rates
    p = make_params(lam=lam, r=r, b=b, q_soc=q_soc, q_inf=q_inf)
    largest = simulate.rate_scale(p) * n0.N
    t_end = events / max(_initial_total_rate(p, n0, s), largest / 100.0)
    path = _assert_matches_reference(p, n0, s, t_end, seed, stream)
    if events == 0.0 or (n0.n_C == 0 and n0.n_R == 0 and s.u_H == 0):
        assert path.counts.shape == (0, 3)


@pytest.mark.parametrize("N", [2**53 - 1, 2**53])
@pytest.mark.parametrize("split, s", [
    ((1, 1, 1), cm.CORRUPT_PROFILE), ((1, 1, 1), cm.HONEST_PROFILE),
    ((0, 1, 0), cm.CORRUPT_PROFILE), ((1, 0, 1), cm.HONEST_PROFILE),
])
def test_population_matches_reference_loop_at_the_largest_populations(N, split, s):
    # Counts this large stay exact: every +-1 step lands on a distinct double.
    # Over ~500 events the total rate barely moves, so t_end = 500 / total.
    n = [w * N // sum(split) for w in split]
    n[split.index(1)] += N - sum(n)
    n0 = cm.PopulationCounts(*n)
    t_end = 500.0 / _initial_total_rate(THREE_EQ, n0, s)
    path = _assert_matches_reference(THREE_EQ, n0, s, t_end, seed=11)
    assert 350 < len(path) < 650


def _chisquare_statistic(counts):
    """Pearson's statistic of ``counts`` against equal expected counts."""
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2 / expected).sum())


# chi2.isf(0.01, df), the 1% critical values, from scipy 1.17.1: a statistic
# at or below one is a p-value of at least 0.01.
CHI2_CRITICAL_1PCT = {19: 36.19086912927005, 9: 21.665994333461928}


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
    assert _chisquare_statistic(counts) <= CHI2_CRITICAL_1PCT[k - 1]


def test_event_path_accessors():
    n0 = cm.PopulationCounts(5, 5, 5)
    path = cm.simulate_population(BASELINE, n0, cm.CORRUPT_PROFILE, 2.0, seed=3)
    assert path.initial == n0
    events = list(path.events())
    assert len(events) == len(path)
    t0, label, counts0 = events[0]
    assert t0 == float(path.times[0])
    assert label in cm.TRANSITION_LABELS
    assert (counts0.n_R, counts0.n_H, counts0.n_C) == tuple(path.counts[0])
    assert counts0.N == 15


# Count change of each transition, in TRANSITION_LABELS order.
MOVES = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1], [0, 1, -1]], dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(codes=st.binary(max_size=3000).map(lambda b: np.frombuffer(b, np.uint8) % 4),
       start=st.tuples(*[st.integers(3000, 2**50)] * 3),
       size=st.sampled_from([1, 2, 3, 7, 4096]))
@example(codes=np.empty(0, np.uint8), start=(5, 5, 5), size=1)
@example(codes=np.empty(0, np.uint8), start=(5, 5, 5), size=4096)
@example(codes=np.arange(4097, dtype=np.uint8) % 4, start=(5000, 5000, 5000), size=4096)
def test_counts_and_count_blocks_are_the_cumulative_sum(codes, start, size):
    # The counts a path derives from its codes are, bit for bit, the int64
    # cumulative sum of the codes' moves that paths once stored, at every
    # block size.  A function-scoped monkeypatch fixture would span all the
    # examples, so each example sets the size in a context of its own.
    want = MOVES[codes]
    np.cumsum(want, axis=0, out=want)
    want += start
    path = simulate.EventPath(initial=cm.PopulationCounts(*start),
                              times=np.arange(len(codes), dtype=np.float64),
                              transition_codes=codes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_COUNT_BLOCK", size)
        counts = path.counts
        blocks = list(path.count_blocks())
        events = [c for _, _, c in path.events()]
    assert counts.dtype == np.int64 and counts.shape == (len(codes), 3)
    assert counts.flags.c_contiguous
    assert counts.tobytes() == want.tobytes()
    assert [lo for lo, _ in blocks] == list(range(0, len(codes), size))
    for lo, block in blocks:
        assert block.dtype == np.int64 and block.flags.c_contiguous
        assert block.tobytes() == want[lo:lo + size].tobytes()
    assert events == [cm.PopulationCounts(*row) for row in want.tolist()]


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


def _generator_rates(p, x, u):
    """The tagged chain's off-diagonal generator entries, keyed (source, target)."""
    rates = cm.transition_rates(p, x.x_H, x.x_C, u)
    return {tuple(label.split("->")): rate for label, rate in zip(cm.TRANSITION_LABELS, rates)}


def _stationary_distribution(p, x, u):
    """Oracle: solve pi Q = 0 for the tagged chain's generator."""
    rates = _generator_rates(p, x, u)
    states = ("R", "H", "C")
    q = np.zeros((3, 3))
    for i, src in enumerate(states):
        for j, tgt in enumerate(states):
            if i != j:
                q[i, j] = rates.get((src, tgt), 0.0)
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
    rates = _generator_rates(p, x, u)
    for (src, tgt), count in jumps.items():
        estimate = count / occ[src]
        se = math.sqrt(count) / occ[src]
        assert abs(estimate - rates[(src, tgt)]) <= 3.0 * se


def test_tagged_agent_holds_rates_constant_per_segment():
    # Piecewise background: no corrupt peers before t = 1, half the crowd
    # corrupt afterwards.  An agent with no switching intent can only be
    # infected, so every H -> C jump must happen strictly after t = 1 and
    # the waiting times past t = 1 must follow Exp(q_inf * 0.5).
    p = make_params(q_inf=2.0)
    times = np.array([0.0, 1.0, 21.0])
    states = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
    bg = cm.Trajectory(times=times, states=states)
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
    assert _chisquare_statistic(counts) <= CHI2_CRITICAL_1PCT[k - 1], counts.tolist()


def _reference_tagged_agent(p, background, u, seed, stream, initial_state):
    """The per-jump form: rates re-read and targets walked at every jump."""
    uniform = simulate.UniformStream(seed, stream).uniform
    times = background.times.tolist()
    states = background.states.tolist()
    last, horizon = len(times) - 1, times[-1]
    path, state, t = [(0.0, initial_state)], initial_state, 0.0
    while t < horizon:
        i = min(max(bisect.bisect_right(times, t) - 1, 0), last)
        seg_end = times[i + 1] if i < last else horizon
        _, x_h, x_c = states[i]
        targets, rates = {
            "R": (("H",), (p.r,)),
            "H": (("C",), (p.lam * u.u_H + p.q_inf * x_c,)),
            "C": (("H", "R"), (p.lam * u.u_C, p.b + p.q_soc * x_h)),
        }[state]
        total = sum(rates)
        if total <= 0.0:
            t = seg_end if seg_end > t else horizon
            continue
        wait = -math.log1p(-uniform()) / total
        if t + wait >= seg_end:
            t = seg_end
            continue
        t += wait
        pick, acc = uniform() * total, 0.0
        for target, rate in zip(targets, rates):
            acc += rate
            if pick < acc:
                state = target
                break
        else:
            state = targets[-1]
        path.append((t, state))
    return path


def _irregular_background(times):
    """A background sampled at ``times``, its states cycling through three rows."""
    rows = [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]]
    return cm.Trajectory(times=np.array(times, dtype=float),
                         states=np.array([rows[i % 3] for i in range(len(times))]))


def test_tagged_agent_matches_per_jump_reference():
    # Same draws, same jumps: rates read once per background segment give the
    # path the per-jump form gives, on a moving and on a frozen background,
    # and on irregular ones: a first sample after 0 (it holds from 0),
    # repeated sample times (zero-length segments), a single sample at t = 5
    # (it holds from 0 to 5) and a zero horizon (no draw at all).
    moving = cm.integrate_ode(THREE_EQ, cm.PopulationState(0.0, 1.0, 0.0),
                              cm.CORRUPT_PROFILE, 30.0, 0.01)
    frozen = cm.constant_trajectory(cm.PopulationState(0.2, 0.3, 0.5), 200.0)
    late_start = _irregular_background([2.0, 7.0, 15.0, 40.0])
    repeated = _irregular_background([0.0, 3.0, 3.0, 10.0, 10.0, 10.0, 25.0, 25.0])
    single = _irregular_background([5.0])
    zero = cm.constant_trajectory(cm.PopulationState(0.2, 0.3, 0.5), 0.0)
    for bg in (moving, frozen, late_start, repeated, single, zero):
        for seed in range(3):
            for u in cm.ALL_PROFILES:
                for start in ("R", "H", "C"):
                    got = cm.simulate_tagged_agent(THREE_EQ, bg, u, seed=seed, stream=seed,
                                                   initial_state=start)
                    assert got == _reference_tagged_agent(THREE_EQ, bg, u, seed, seed, start)


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


@pytest.mark.parametrize("x_C", [1 / 3 - 9.5e-10, 1 / 3 + 8e-10])
def test_round_counts_refuses_a_split_it_cannot_place(x_C):
    # Both states are accepted (|sum - 1| <= SUM_TOL); at N = 10**10 their
    # floors leave 11 and -7 agents to place.
    x = cm.PopulationState(1 / 3, 1 / 3, x_C)
    with pytest.raises(cm.SimplexError, match="agents to place"):
        cm.round_counts(10**10, x)


# ---------------------------------------------------------------------------
# law of large numbers


def test_lln_requires_replications():
    with pytest.raises(ValueError, match="replications must be >= 1"):
        cm.lln_convergence(BASELINE, 10, THIRDS, cm.CORRUPT_PROFILE, 1.0, 0, seed=1, dt=0.01)


def test_lln_improves_with_population_size():
    d_small, _ = cm.lln_convergence(THREE_EQ, 50, THIRDS, cm.CORRUPT_PROFILE, 5.0, 10, seed=42,
                                    dt=0.01)
    d_large, _ = cm.lln_convergence(THREE_EQ, 5000, THIRDS, cm.CORRUPT_PROFILE, 5.0, 10, seed=42,
                                    dt=0.01)
    assert d_large < d_small


def test_lln_deterministic():
    a, path_a = cm.lln_convergence(BASELINE, 100, THIRDS, cm.CORRUPT_PROFILE, 3.0, 5, seed=7,
                                   dt=0.01)
    b, path_b = cm.lln_convergence(BASELINE, 100, THIRDS, cm.CORRUPT_PROFILE, 3.0, 5, seed=7,
                                   dt=0.01)
    assert a == b
    assert path_a.times.tobytes() == path_b.times.tobytes()


def test_lln_replications_without_events_read_the_start_counts():
    # All honest with nobody corrupt: every rate is zero, so no replication
    # makes an event and every grid point reads the start counts, which sit
    # on the ODE's fixed point.
    honest = cm.PopulationState(0.0, 1.0, 0.0)
    distance, path = cm.lln_convergence(THREE_EQ, 50, honest, cm.HONEST_PROFILE, 2.0, 3, seed=1,
                                        dt=0.01)
    assert len(path) == 0
    assert path.initial == cm.PopulationCounts(0, 50, 0)
    assert distance == 0.0


@settings(max_examples=6, deadline=None)
@given(N=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), replications=st.integers(1, 4),
       strategy=st.sampled_from([cm.CORRUPT_PROFILE, cm.HONEST_PROFILE]))
@example(N=60, seed=5, replications=3, strategy=cm.CORRUPT_PROFILE)
def test_lln_returns_replication_0_path(tmp_path_factory, N, seed, replications, strategy):
    t_end, dt = 2.0, 0.02
    distance, path = cm.lln_convergence(THREE_EQ, N, THIRDS, strategy, t_end, replications,
                                        seed, dt)
    n0 = cm.round_counts(N, THIRDS)
    paths = [cm.simulate_population(THREE_EQ, n0, strategy, t_end, seed, stream=i)
             for i in range(replications)]
    assert path.initial == n0 and path.N == N
    for name in ("times", "transition_codes", "counts"):
        assert getattr(path, name).tobytes() == getattr(paths[0], name).tobytes()

    # Independent oracle: each replication's count vector holds from its event
    # time until the next event; average the fractions at every ODE time.
    ode = cm.integrate_ode(THREE_EQ, THIRDS, strategy, t_end, dt)
    rows = [([n0.n_R, n0.n_H, n0.n_C], *q.counts.tolist()) for q in paths]
    event_times = [q.times.tolist() for q in paths]
    worst = 0.0
    for t, state in zip(ode.times.tolist(), ode.states.tolist()):
        for k in range(3):
            total = 0.0
            for times, counts in zip(event_times, rows):
                total += counts[bisect.bisect_right(times, t)][k] / N
            worst = max(worst, abs(total / replications - state[k]))
    assert distance == worst

    # The ctmc answer simulates each stream once, all inside lln_convergence.
    cfg = tmp_path_factory.mktemp("ctmc") / "run.cfg"
    strategy_name = "corrupt" if strategy == cm.CORRUPT_PROFILE else "honest"
    cfg.write_text(THREE_EQ_CONFIG + f"N = {N}\nseed = {seed}\nreplications = {replications}\n"
                   f"strategy = {strategy_name}\nt_end = {t_end!r}\ndt = {dt!r}\n")
    out = cfg.with_suffix(".out")
    streams = []
    simulate_population = simulate.simulate_population

    def counting(*args, **kwargs):
        streams.append(kwargs["stream"])
        return simulate_population(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "simulate_population", counting)
        patch.setattr(cli, "simulate_population", counting)
        assert cli.main(["ctmc", "--config", str(cfg), "--out", str(out)]) == 0
    assert streams == list(range(replications))
    lines = out.read_text().splitlines()
    assert lines[-1] == f"# lln_distance = {distance:.17g}"
    assert len(lines) == len(path) + 2


# ---------------------------------------------------------------------------
# deviation gain


def test_deviation_gain_zero_horizon():
    # No time passes, so every payoff is 0 and no alternative beats the
    # first one tried: the first profile other than the equilibrium's.
    rep = cm.enumerate_equilibria(BASELINE)[0]
    assert rep.strategy == cm.CORRUPT_PROFILE
    for replications in (1, 5):
        est = cm.deviation_gain(BASELINE, rep, horizon=0.0, N=100, replications=replications,
                                seed=1)
        assert est == cm.DeviationGainEstimate(
            baseline_mean=0.0, deviation_mean=0.0, gain=0.0, std_error=0.0,
            replications=replications, horizon=0.0, best_profile=cm.StrategyProfile(0, 0),
        )


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_deviation_gain_rejects_nonfinite_horizon(monkeypatch, horizon):
    # On inf the tagged agent never stops, and nan gives all-nan fields; both
    # must fail before any stream is opened.
    def no_stream(*args):
        raise AssertionError("uniform stream opened")

    monkeypatch.setattr(simulate, "UniformStream", no_stream)
    rep = report_of(THREE_EQ, cm.Provenance.CORRUPT_ROOT)
    with pytest.raises(ValueError, match="horizon must be finite"):
        cm.deviation_gain(THREE_EQ, rep, horizon, 100, 4, 1)


def test_deviation_gain_refuses_work_over_the_event_cap(monkeypatch):
    # THREE_EQ's rate_scale is 3.8: 4 * 4 * 3.8 * 1e9 predicts 6.1e10 jumps,
    # about 2.5 h of work; the guard must fire before any stream is opened.
    def no_stream(*args):
        raise AssertionError("uniform stream opened")

    monkeypatch.setattr(simulate, "UniformStream", no_stream)
    rep = report_of(THREE_EQ, cm.Provenance.CORRUPT_ROOT)
    with pytest.raises(cm.StepSizeError, match="predicts more than"):
        cm.deviation_gain(THREE_EQ, rep, 1e9, 100, 4, 1)
    # Just over the cap by the bound itself, and still refused.
    horizon = math.nextafter(simulate.MAX_EVENTS / (4 * 4 * cm.rate_scale(THREE_EQ)), math.inf)
    with pytest.raises(cm.StepSizeError):
        cm.deviation_gain(THREE_EQ, rep, horizon, 100, 4, 1)


def test_deviation_gain_deterministic_and_consistent():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    a = cm.deviation_gain(BASELINE, rep, horizon=20.0, N=100, replications=20, seed=3)
    b = cm.deviation_gain(BASELINE, rep, horizon=20.0, N=100, replications=20, seed=3)
    assert a == b
    assert a.gain == pytest.approx(a.deviation_mean - a.baseline_mean, abs=0)
    assert a.std_error >= 0.0
    assert a.replications == 20


# repr of each corrupt root's estimate as first recorded; they pin the
# event-rng v1 draws, the stream blocks and the payoff sums of the check.
@pytest.mark.parametrize("p,horizon,replications,seed,want", [
    (THREE_EQ, 20.0, 20, 3,
     "DeviationGainEstimate(baseline_mean=20.277985674124235, "
     "deviation_mean=19.996238699492245, gain=-0.2817469746319894, "
     "std_error=0.8237747650804056, replications=20, horizon=20.0, "
     "best_profile=StrategyProfile(u_H=1, u_C=1))"),
    (BASELINE, 100.0, 50, 77,
     "DeviationGainEstimate(baseline_mean=373.77023527498784, "
     "deviation_mean=303.3165367270818, gain=-70.45369854790601, "
     "std_error=6.800296430092363, replications=50, horizon=100.0, "
     "best_profile=StrategyProfile(u_H=1, u_C=1))"),
], ids=["three-eq", "baseline"])
def test_deviation_gain_matches_recorded_estimate(p, horizon, replications, seed, want):
    rep = report_of(p, cm.Provenance.CORRUPT_ROOT)
    assert repr(cm.deviation_gain(p, rep, horizon, 1000, replications, seed)) == want


def test_deviation_gain_detects_profitable_switch():
    # Forcing honesty at the corrupt equilibrium leaves a large payoff on
    # the table; the estimator must see it.
    rep = cm.enumerate_equilibria(BASELINE)[0]
    forced = dataclasses.replace(rep, strategy=cm.HONEST_PROFILE, behavior=cm.Behavior.HONEST)
    est = cm.deviation_gain(BASELINE, forced, horizon=60.0, N=100, replications=40, seed=11)
    assert est.gain >= 3.0 * est.std_error
    assert est.best_profile == cm.CORRUPT_PROFILE
