"""Time-domain validation: ODE flow, exact event paths, tagged agents.

Three simulators share the kinetics of :mod:`corruption_mfg.model`:

* :func:`integrate_ode`: fixed-step RK4 on the mean-field drift;
* :func:`simulate_population`: exact-event (competing exponential clocks)
  simulation of the finite-N jump chain;
* :func:`simulate_tagged_agent`: one agent's jump path against a frozen
  background trajectory.

On top sit two estimators: :func:`lln_convergence` (averaged empirical
fraction paths vs the ODE path) and :func:`deviation_gain` (payoff of
unilateral strategy deviations at an equilibrium, the approximate-Nash
check).  Everything is deterministic given a seed; replications use
distinct documented streams and may run concurrently.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._rng import UniformStream
from .equilibria import EquilibriumReport
from .model import (
    ALL_PROFILES,
    ModelParams,
    PopulationCounts,
    PopulationState,
    StrategyProfile,
    _rhs,
)

# Canonical transition order of the population chain; event selection walks
# the cumulative rates in exactly this order.
TRANSITION_LABELS = ("C->R", "R->H", "H->C", "C->H")

_STEP_GUARD = 0.1


class StepSizeError(ValueError):
    """The requested ODE step exceeds the stability guard for these rates."""


def rate_scale(p: ModelParams) -> float:
    """Magnitude scale of the kinetics, used by the integrator step guard."""
    return p.lam + p.r + p.b + p.q_soc + p.q_inf


@dataclass(frozen=True)
class Trajectory:
    """Sampled ODE solution: times, states (rows ``x_R, x_H, x_C``), metadata."""

    times: np.ndarray
    states: np.ndarray
    strategy: StrategyProfile
    dt: float
    method: str = "rk4"

    def final_state(self) -> PopulationState:
        return PopulationState(*self.states[-1])


def constant_trajectory(
    state: PopulationState, t_end: float, strategy: StrategyProfile | None = None
) -> Trajectory:
    """A frozen background: the same state over ``[0, t_end]``."""
    row = np.array(state.as_tuple())
    return Trajectory(
        times=np.array([0.0, t_end]),
        states=np.vstack([row, row]),
        strategy=strategy if strategy is not None else StrategyProfile(0, 0),
        dt=t_end,
        method="constant",
    )


def integrate_ode(
    p: ModelParams,
    x0: PopulationState,
    s: StrategyProfile,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classical RK4 integration of the mean-field kinetics.

    Fixed step; ``dt`` must not exceed ``0.1 / rate_scale(p)``.  Every
    emitted state is clamped at zero and rescaled onto the simplex, which
    only ever moves it at round-off magnitude.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    guard = _STEP_GUARD / rate_scale(p)
    if dt > guard:
        raise StepSizeError(f"dt={dt} exceeds stability guard {guard:.6g} for these rates")
    lam, r, b, qs, qi = p.lam, p.r, p.b, p.q_soc, p.q_inf
    u_h, u_c = s.u_H, s.u_C
    n_steps = int(math.floor(t_end / dt + 1e-9))
    states = np.empty((n_steps + 1, 3))
    x_r, x_h, x_c = x0.as_tuple()
    states[0] = (x_r, x_h, x_c)
    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        k1 = _rhs(lam, r, b, qs, qi, u_h, u_c, x_r, x_h, x_c)
        k2 = _rhs(lam, r, b, qs, qi, u_h, u_c,
                  x_r + half * k1[0], x_h + half * k1[1], x_c + half * k1[2])
        k3 = _rhs(lam, r, b, qs, qi, u_h, u_c,
                  x_r + half * k2[0], x_h + half * k2[1], x_c + half * k2[2])
        k4 = _rhs(lam, r, b, qs, qi, u_h, u_c,
                  x_r + dt * k3[0], x_h + dt * k3[1], x_c + dt * k3[2])
        x_r += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        x_h += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        x_c += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        x_r = x_r if x_r > 0.0 else 0.0
        x_h = x_h if x_h > 0.0 else 0.0
        x_c = x_c if x_c > 0.0 else 0.0
        total = x_r + x_h + x_c
        x_r /= total
        x_h /= total
        x_c /= total
        states[i] = (x_r, x_h, x_c)
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times=times, states=states, strategy=s, dt=dt)


@dataclass(frozen=True)
class EventPath:
    """One realization of the finite-N jump chain.

    ``times``, ``transition_codes`` (indices into :data:`TRANSITION_LABELS`)
    and ``counts`` (counts *after* each event) are parallel arrays;
    ``initial`` holds the counts at time zero; the remaining fields record
    the arguments of the :func:`simulate_population` call that produced it.
    """

    initial: PopulationCounts
    times: np.ndarray
    transition_codes: np.ndarray
    counts: np.ndarray
    seed: int
    stream: int
    N: int
    t_end: float
    params: ModelParams
    strategy: StrategyProfile

    def __len__(self) -> int:
        return len(self.times)

    def events(self):
        """Yield ``(time, label, PopulationCounts)`` per event, in order."""
        for t, code, (n_r, n_h, n_c) in zip(self.times, self.transition_codes, self.counts):
            yield float(t), TRANSITION_LABELS[code], PopulationCounts(
                int(n_r), int(n_h), int(n_c)
            )

    def counts_at(self, t: float) -> tuple[int, int, int]:
        i = int(np.searchsorted(self.times, t, side="right"))
        if i == 0:
            return (self.initial.n_R, self.initial.n_H, self.initial.n_C)
        return tuple(int(v) for v in self.counts[i - 1])


def simulate_population(
    p: ModelParams,
    n0: PopulationCounts,
    s: StrategyProfile,
    t_end: float,
    seed: int,
    stream: int = 0,
) -> EventPath:
    """Exact-event simulation of the population chain up to ``t_end``.

    Per event two uniforms are consumed from stream ``(seed, stream)``: the
    first sets the exponential waiting time of the total rate, the second
    selects the transition by cumulative rate in the order
    ``C->R, R->H, H->C, C->H``.  Stops at ``t_end`` or when the total rate
    hits zero (absorbing count vector).
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    uniform = UniformStream(seed, stream).uniform
    log1p = math.log1p
    lam, r, b, qs, qi = p.lam, p.r, p.b, p.q_soc, p.q_inf
    u_h, u_c = s.u_H, s.u_C
    n_r, n_h, n_c = n0.n_R, n0.n_H, n0.n_C
    N = n0.N
    t = 0.0
    times = array("d")
    codes = array("B")
    counts = array("q")
    add_time, add_code, add_count = times.append, codes.append, counts.append
    lam_u_h = lam * u_h
    while True:
        # Cumulative rates in the order of TRANSITION_LABELS; the sums
        # associate left to right, as rate_cr + rate_rh + rate_hc + rate_ch.
        rate_cr = n_c * (b + qs * n_h / N)
        upto_rh = rate_cr + n_r * r
        upto_hc = upto_rh + n_h * (lam_u_h + qi * n_c / N)
        total = upto_hc + lam * n_c * u_c
        if total <= 0.0:
            break
        t += -log1p(-uniform()) / total
        if t > t_end:
            break
        pick = uniform() * total
        if pick < rate_cr:
            add_code(0)
            n_c -= 1
            n_r += 1
        elif pick < upto_rh:
            add_code(1)
            n_r -= 1
            n_h += 1
        elif pick < upto_hc:
            add_code(2)
            n_h -= 1
            n_c += 1
        else:
            add_code(3)
            n_c -= 1
            n_h += 1
        add_time(t)
        add_count(n_r)
        add_count(n_h)
        add_count(n_c)
    # The arrays are views of the buffers filled above, which nothing else holds.
    return EventPath(
        initial=n0,
        times=np.frombuffer(times, dtype=np.float64),
        transition_codes=np.frombuffer(codes, dtype=np.uint8),
        counts=np.frombuffer(counts, dtype=np.int64).reshape(len(times), 3),
        seed=seed,
        stream=stream,
        N=N,
        t_end=t_end,
        params=p,
        strategy=s,
    )


def _agent_rates(p, u, x_h, x_c, state):
    # (targets, rates) in the canonical order of the individual rate table.
    if state == "R":
        return ("H",), (p.r,)
    if state == "H":
        return ("C",), (p.lam * u.u_H + p.q_inf * x_c,)
    return ("H", "R"), (p.lam * u.u_C, p.b + p.q_soc * x_h)


def simulate_tagged_agent(
    p: ModelParams,
    background: Trajectory,
    u: StrategyProfile,
    seed: int,
    stream: int = 0,
    initial_state: str = "R",
) -> list[tuple[float, str]]:
    """Jump path of one agent with intent ``u`` against ``background``.

    Rates are held constant between background samples.  Within each
    background segment the waiting time is re-drawn (memorylessness makes
    this exact); a jump consumes a second uniform selecting the target in
    the order H, R out of state C.  Returns ``[(time, state), ...]``
    starting with ``(0, initial_state)``.
    """
    if initial_state not in ("R", "H", "C"):
        raise ValueError(f"unknown agent state {initial_state!r}")
    uniform = UniformStream(seed, stream).uniform
    path = [(0.0, initial_state)]
    state = initial_state
    t = 0.0
    # Python lists, so the per-jump arithmetic runs on floats, not numpy scalars.
    times = background.times.tolist()
    states = background.states.tolist()
    last = len(times) - 1
    horizon = times[-1]
    while t < horizon:
        # Index of the sample whose value holds at t (piecewise constant).
        i = min(max(bisect_right(times, t) - 1, 0), last)
        seg_end = times[i + 1] if i < last else horizon
        _, x_h, x_c = states[i]
        targets, rates = _agent_rates(p, u, x_h, x_c, state)
        total = sum(rates)
        if total <= 0.0:
            t = seg_end if seg_end > t else horizon
            continue
        wait = -math.log1p(-uniform()) / total
        if t + wait >= seg_end:
            t = seg_end
            continue
        t += wait
        pick = uniform() * total
        acc = 0.0
        for target, rate in zip(targets, rates):
            acc += rate
            if pick < acc:
                state = target
                break
        else:
            state = targets[-1]
        path.append((t, state))
    return path


def round_counts(N: int, x: PopulationState) -> PopulationCounts:
    """Largest-remainder rounding of ``N * x`` to integer counts summing to N.

    Remainder ties broken by state order (R, H, C).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    raw = [N * x.x_R, N * x.x_H, N * x.x_C]
    base = [math.floor(v) for v in raw]
    left = N - sum(base)
    order = sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))
    for i in range(left):
        base[order[i]] += 1
    return PopulationCounts(base[0], base[1], base[2])


def lln_convergence(
    p: ModelParams,
    N: int,
    x0: PopulationState,
    s: StrategyProfile,
    t_end: float,
    replications: int,
    seed: int,
    dt: float | None = None,
    *,
    stream0_path: EventPath | None = None,
) -> float:
    """Sup-norm distance between the replication-averaged empirical path and the ODE.

    Replication ``i`` runs on stream ``(seed, i)``; its piecewise-constant
    fraction path is sampled on the ODE grid, averaged across replications,
    and compared with the ODE states in the max norm over the whole grid.

    ``stream0_path``, if given, is used as replication 0 instead of
    simulating it again.  It must be the :func:`simulate_population` path of
    these ``p`` and ``s`` on stream ``(seed, 0)`` from the rounded initial
    counts up to ``t_end``; its seed, stream, initial counts, ``N``,
    ``t_end``, params and strategy are checked, and a mismatch raises
    ``ValueError``.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    if dt is None:
        dt = min(0.01, _STEP_GUARD / rate_scale(p) / 2.0)
    n0 = round_counts(N, x0)
    if stream0_path is not None:
        given = (stream0_path.seed, stream0_path.stream, stream0_path.initial,
                 stream0_path.N, stream0_path.t_end, stream0_path.params,
                 stream0_path.strategy)
        if given != (seed, 0, n0, N, t_end, p, s):
            raise ValueError(
                f"stream0_path (seed, stream, initial, N, t_end, params, strategy) = "
                f"{given} does not match replication 0 {(seed, 0, n0, N, t_end, p, s)}"
            )
    ode = integrate_ode(p, x0, s, t_end, dt)
    grid = ode.times
    mean = np.zeros_like(ode.states)
    for i in range(replications):
        if i == 0 and stream0_path is not None:
            path = stream0_path
        else:
            path = simulate_population(p, n0, s, t_end, seed, stream=i)
        idx = np.searchsorted(path.times, grid, side="right")
        stacked = np.vstack(
            [np.array([n0.n_R, n0.n_H, n0.n_C], dtype=np.int64), path.counts]
        )
        mean += stacked[idx] / N
    mean /= replications
    return float(np.max(np.abs(mean - ode.states)))


@dataclass(frozen=True)
class DeviationGainEstimate:
    """Estimated payoff gain of the best unilateral deviation at an equilibrium."""

    baseline_mean: float
    deviation_mean: float
    gain: float
    std_error: float
    replications: int
    horizon: float
    best_profile: StrategyProfile


def _accumulated_payoff(p: ModelParams, x: PopulationState, path, horizon: float) -> float:
    flow = {
        "R": p.w_R,
        "H": p.w_H,
        "C": p.w_C - (p.b + p.q_soc * x.x_H) * p.f,
    }
    total = 0.0
    for (t0, state), (t1, _) in zip(path, path[1:]):
        total += flow[state] * (t1 - t0)
    last_t, last_state = path[-1]
    total += flow[last_state] * (horizon - last_t)
    return total


# Stream-id blocks: replication i of the baseline uses stream i, the k-th
# alternative strategy uses streams (k+1)*replications + i.
def _payoff_sample(p, x, profile, horizon, replications, seed, block):
    background = constant_trajectory(x, horizon)
    payoffs = np.empty(replications)
    for i in range(replications):
        path = simulate_tagged_agent(
            p, background, profile, seed, stream=block * replications + i, initial_state="H"
        )
        payoffs[i] = _accumulated_payoff(p, x, path, horizon)
    mean = float(np.mean(payoffs))
    se = float(np.std(payoffs, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return mean, se


def deviation_gain(
    p: ModelParams,
    e: EquilibriumReport,
    horizon: float,
    N: int,
    replications: int,
    seed: int,
) -> DeviationGainEstimate:
    """Approximate-Nash check: payoff of deviating from ``e.strategy``.

    A tagged agent starting in H accumulates the payoff flow (``w_R`` in R,
    ``w_H`` in H, ``w_C - (b + q_soc x_H) f`` in C) over ``horizon`` against
    the background frozen at ``e.state``; the baseline plays ``e.strategy``
    and the deviation is the best of the three other intent profiles.
    ``N`` is accepted for interface compatibility; the background is the
    mean-field limit, so it does not enter.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    alternatives = [u for u in ALL_PROFILES if u != e.strategy]
    if horizon == 0:
        return DeviationGainEstimate(0.0, 0.0, 0.0, 0.0, replications, 0.0, alternatives[0])
    base_mean, base_se = _payoff_sample(p, e.state, e.strategy, horizon, replications, seed, 0)
    best = None
    for k, profile in enumerate(alternatives):
        mean, se = _payoff_sample(p, e.state, profile, horizon, replications, seed, k + 1)
        if best is None or mean > best[0]:
            best = (mean, se, profile)
    dev_mean, dev_se, dev_profile = best
    return DeviationGainEstimate(
        baseline_mean=base_mean,
        deviation_mean=dev_mean,
        gain=dev_mean - base_mean,
        std_error=math.hypot(base_se, dev_se),
        replications=replications,
        horizon=horizon,
        best_profile=dev_profile,
    )
