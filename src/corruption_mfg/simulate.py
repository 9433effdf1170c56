"""Time-domain validation: ODE flow, exact event paths, tagged agents.

Three simulators share the kinetics of :mod:`corruption_mfg.model`:

* :func:`integrate_ode`: fixed-step RK4 on the mean-field drift; once the
  flow lands exactly on a floating-point fixed point it stops stepping and
  repeats that row to ``t_end``, which is what further steps would give;
* :func:`simulate_population`: exact-event (competing exponential clocks)
  simulation of the finite-N jump chain, whose :class:`EventPath` holds
  9 B per event (time and transition code) and derives the counts;
* :func:`simulate_tagged_agent`: one agent's jump path against a
  background trajectory, held constant between its samples.

A :class:`Trajectory` is only its sample times and states; the ODE returns
one, and :func:`constant_trajectory` builds the frozen background of the
approximate-Nash check.

The tagged agent and the payoff flows read the rate kernel
:func:`~corruption_mfg.model.transition_rates`; the two hot loops,
:func:`integrate_ode` and :func:`simulate_population`, write the rates out
inline.

On top sit two estimators: :func:`lln_convergence` (averaged empirical
fraction paths vs the ODE path; it owns a whole finite-N run and also
returns the event path of replication 0) and :func:`deviation_gain`
(payoff of unilateral strategy deviations at an equilibrium, the
approximate-Nash check).  Everything is deterministic given a seed;
replications use distinct documented streams and may run concurrently.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._rng import UniformStream
from .equilibria import EquilibriumReport
from .model import (
    ALL_PROFILES,
    TRANSITION_LABELS,
    ModelParams,
    PopulationCounts,
    PopulationState,
    SimplexError,
    StrategyProfile,
    rate_scale,
    transition_rates,
)

__all__ = [
    "DeviationGainEstimate", "EventPath", "StepSizeError", "Trajectory", "constant_trajectory",
    "deviation_gain", "integrate_ode", "lln_convergence", "round_counts", "simulate_population",
    "simulate_tagged_agent",
]

_STEP_GUARD = 0.1
# Largest trajectory ``integrate_ode`` will build: 10**7 rows of 3 floats
# is 240 MB.
MAX_ODE_ROWS = 10**7
# Largest predicted event count ``simulate_population`` will start on:
# 10**7 events take about 90 MB of buffers.
MAX_EVENTS = 10**7
# Largest population it will start on: its event loop holds the counts as
# floats, which are exact integers, and exact under +-1.0, only up to 2**53.
MAX_AGENTS = 2**53
# Count change of each transition, in TRANSITION_LABELS order, as (n_R, n_H, n_C).
_MOVES = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1], [0, 1, -1]], dtype=np.int64)
# Events per block of counts that EventPath derives at a time: 96 KiB of int64.
_COUNT_BLOCK = 4096


class StepSizeError(ValueError):
    """The requested ODE step, or the work a run asks for, exceeds a guard."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: times and states (rows ``x_R, x_H, x_C``)."""

    times: np.ndarray
    states: np.ndarray


def constant_trajectory(state: PopulationState, t_end: float) -> Trajectory:
    """A frozen background: the same state over ``[0, t_end]``."""
    row = np.array(state.as_tuple())
    return Trajectory(times=np.array([0.0, t_end]), states=np.vstack([row, row]))


def integrate_ode(
    p: ModelParams,
    x0: PopulationState,
    s: StrategyProfile,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classical RK4 integration of the mean-field kinetics.

    Fixed step; ``dt`` must not exceed ``0.1 / rate_scale(p)``, and the
    ``floor(t_end / dt) + 1`` rows may not exceed :data:`MAX_ODE_ROWS`
    (checked before anything is allocated); either guard raises
    :class:`StepSizeError`.  Every emitted state is clamped at zero and
    rescaled onto the simplex, which only ever moves it at round-off
    magnitude.  ``states`` is a writable view over one float buffer.

    Once a step (from the second on) returns the row before it bit for bit,
    the flow sits on an exact floating-point fixed point: the rates and
    ``dt`` are constants of the loop, so each later step would return that
    row again.  The remaining rows are filled with it and no further step
    is taken; the table is bit-identical to stepping through to ``t_end``.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not t_end >= 0:
        raise ValueError("t_end must be >= 0")
    guard = _STEP_GUARD / rate_scale(p)
    if dt > guard:
        raise StepSizeError(f"dt={dt} exceeds stability guard {guard:.6g} for these rates")
    steps = t_end / dt + 1e-9
    if not steps < MAX_ODE_ROWS:
        raise StepSizeError(
            f"t_end/dt={t_end / dt:.6g} asks for more than {MAX_ODE_ROWS} trajectory rows"
        )
    n_steps = int(math.floor(steps))
    lam, r, b, qs, qi = p.lam, p.r, p.b, p.q_soc, p.q_inf
    u_h, u_c = float(s.u_H), float(s.u_C)
    x_r, x_h, x_c = (float(v) for v in x0.as_tuple())
    buf = array("d", [0.0]) * (3 * (n_steps + 1))
    buf[0], buf[1], buf[2] = x_r, x_h, x_c
    half = dt / 2.0
    sixth = dt / 6.0
    # Each stage is kinetic_rhs written out term for term, in its order, so a
    # step makes no calls and every operand is a float; the tests hold it
    # bit-identical to RK4 on kinetic_rhs.
    for j in range(3, len(buf), 3):
        det = (b + qs * x_h) * x_c
        rec = r * x_r
        sw = lam * (x_h * u_h - x_c * u_c)
        inf = qi * x_h * x_c
        k1_r, k1_h, k1_c = det - rec, rec - sw - inf, -det + sw + inf
        y_r, y_h, y_c = x_r + half * k1_r, x_h + half * k1_h, x_c + half * k1_c
        det = (b + qs * y_h) * y_c
        rec = r * y_r
        sw = lam * (y_h * u_h - y_c * u_c)
        inf = qi * y_h * y_c
        k2_r, k2_h, k2_c = det - rec, rec - sw - inf, -det + sw + inf
        y_r, y_h, y_c = x_r + half * k2_r, x_h + half * k2_h, x_c + half * k2_c
        det = (b + qs * y_h) * y_c
        rec = r * y_r
        sw = lam * (y_h * u_h - y_c * u_c)
        inf = qi * y_h * y_c
        k3_r, k3_h, k3_c = det - rec, rec - sw - inf, -det + sw + inf
        y_r, y_h, y_c = x_r + dt * k3_r, x_h + dt * k3_h, x_c + dt * k3_c
        det = (b + qs * y_h) * y_c
        rec = r * y_r
        sw = lam * (y_h * u_h - y_c * u_c)
        inf = qi * y_h * y_c
        n_r = x_r + sixth * (k1_r + 2.0 * (k2_r + k3_r) + (det - rec))
        n_h = x_h + sixth * (k1_h + 2.0 * (k2_h + k3_h) + (rec - sw - inf))
        n_c = x_c + sixth * (k1_c + 2.0 * (k2_c + k3_c) + (-det + sw + inf))
        n_r = n_r if n_r > 0.0 else 0.0
        n_h = n_h if n_h > 0.0 else 0.0
        n_c = n_c if n_c > 0.0 else 0.0
        total = n_r + n_h + n_c
        n_r /= total
        n_h /= total
        n_c /= total
        # Exact fixed point (see the docstring): fill the rest and stop.  Not
        # tested on the first step, whose row before is x0 and may hold -0.0;
        # later rows come out of the clamp and a division by a positive
        # total, hold no -0.0 and no NaN, and there == is bit equality.
        if n_r == x_r and n_h == x_h and n_c == x_c and j > 3:
            buf[j:] = array("d", (x_r, x_h, x_c)) * ((len(buf) - j) // 3)
            break
        x_r, x_h, x_c = n_r, n_h, n_c
        buf[j], buf[j + 1], buf[j + 2] = x_r, x_h, x_c
    times = np.arange(n_steps + 1) * dt
    states = np.frombuffer(buf).reshape(n_steps + 1, 3)
    return Trajectory(times=times, states=states)


@dataclass(frozen=True)
class EventPath:
    """One realization of the finite-N jump chain.

    ``times`` (float64) and ``transition_codes`` (uint8 indices into
    :data:`TRANSITION_LABELS`) are parallel arrays, 9 B per event;
    ``initial`` holds the counts at time zero.  The counts *after* each
    event are derived from these: :meth:`count_blocks` yields them a block
    at a time and :attr:`counts` builds them whole.
    """

    initial: PopulationCounts
    times: np.ndarray
    transition_codes: np.ndarray

    @property
    def N(self) -> int:
        return self.initial.N

    def __len__(self) -> int:
        return len(self.times)

    def count_blocks(self):
        """Yield ``(lo, counts[lo:lo + size])`` for ``lo = 0, size, 2 size, ...``,
        where ``size`` is :data:`_COUNT_BLOCK`.

        Each block is a fresh C-contiguous int64 ``(rows, 3)`` array: the
        running sum of the codes' count moves, started at ``initial`` and
        carried exactly from block to block (added to the block's first
        move before the sum, which integer sums allow).
        """
        n0 = self.initial
        carry = np.array([n0.n_R, n0.n_H, n0.n_C], dtype=np.int64)
        size = _COUNT_BLOCK
        for lo in range(0, len(self), size):
            block = np.take(_MOVES, self.transition_codes[lo:lo + size], axis=0)
            block[0] += carry
            np.cumsum(block, axis=0, out=block)
            carry = block[-1].copy()
            yield lo, block

    @property
    def counts(self) -> np.ndarray:
        """Counts after each event, int64 ``(len(self), 3)``, C-contiguous."""
        counts = np.empty((len(self), 3), dtype=np.int64)
        for lo, block in self.count_blocks():
            counts[lo:lo + len(block)] = block
        return counts

    def events(self):
        """Yield ``(time, label, PopulationCounts)`` per event, in order."""
        for lo, block in self.count_blocks():
            hi = lo + len(block)
            for t, code, (n_r, n_h, n_c) in zip(self.times[lo:hi].tolist(),
                                                 self.transition_codes[lo:hi].tolist(),
                                                 block.tolist()):
                yield t, TRANSITION_LABELS[code], PopulationCounts(n_r, n_h, n_c)


def _check_event_bound(p: ModelParams, N: int, t_end: float) -> None:
    """Refuse a run of more than :data:`MAX_AGENTS` agents, or whose event
    bound ``rate_scale(p) * N * t_end`` exceeds :data:`MAX_EVENTS`."""
    if not t_end >= 0:
        raise ValueError("t_end must be >= 0")
    if N > MAX_AGENTS:
        raise StepSizeError(f"N={N} exceeds 2**53, above which event counts are not exact")
    predicted = rate_scale(p) * N * t_end
    if not predicted <= MAX_EVENTS:
        raise StepSizeError(
            f"rate_scale*N*t_end={predicted:.6g} predicts more than {MAX_EVENTS} events"
        )


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

    No total rate exceeds ``rate_scale(p) * N``, so ``rate_scale(p) * N *
    t_end`` bounds the expected number of events; above :data:`MAX_EVENTS`,
    or for more than :data:`MAX_AGENTS` (2**53) agents,
    :class:`StepSizeError` is raised before anything is drawn.

    The loop holds the counts, ``N`` and the intents as floats: up to 2**53
    each count and each ``+-1.0`` step is exact, and every rate reads the
    same double an int operand would be converted to, so the draws and the
    path are those of integer counts.  The path holds only the times and
    codes it records, 9 B per event; its counts are derived on demand
    (see :class:`EventPath`).
    """
    _check_event_bound(p, n0.N, t_end)
    uniform = UniformStream(seed, stream).uniform
    log1p = math.log1p
    lam, r, b, qs, qi = p.lam, p.r, p.b, p.q_soc, p.q_inf
    u_h, u_c = float(s.u_H), float(s.u_C)
    n_r, n_h, n_c = float(n0.n_R), float(n0.n_H), float(n0.n_C)
    N = float(n0.N)
    t = 0.0
    times = array("d")
    codes = array("B")
    add_time, add_code = times.append, codes.append
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
            n_c -= 1.0
            n_r += 1.0
        elif pick < upto_rh:
            add_code(1)
            n_r -= 1.0
            n_h += 1.0
        elif pick < upto_hc:
            add_code(2)
            n_h -= 1.0
            n_c += 1.0
        else:
            add_code(3)
            n_c -= 1.0
            n_h += 1.0
        add_time(t)
    # times and transition_codes are views of the buffers filled above,
    # which nothing else holds.
    return EventPath(
        initial=n0,
        times=np.frombuffer(times, dtype=np.float64),
        transition_codes=np.frombuffer(codes, dtype=np.uint8),
    )


def simulate_tagged_agent(
    p: ModelParams,
    background: Trajectory,
    u: StrategyProfile,
    seed: int,
    stream: int = 0,
    initial_state: str = "R",
) -> list[tuple[float, str]]:
    """Jump path of one agent with intent ``u`` against ``background``.

    Rates are held constant between background samples: sample ``i`` holds
    until sample ``i + 1``, and the first sample also holds from 0, so the
    last sample's state is never read (a single sample holds from 0 to its
    time).  A repeated sample time gives a zero-length segment, which draws
    nothing.  Within each segment the waiting time is re-drawn
    (memorylessness makes this exact); a jump consumes a second uniform
    selecting the target in the order H, R out of state C.  Returns
    ``[(time, state), ...]`` starting with ``(0, initial_state)``.
    """
    if initial_state not in ("R", "H", "C"):
        raise ValueError(f"unknown agent state {initial_state!r}")
    uniform = UniformStream(seed, stream).uniform
    log1p = math.log1p
    path = [(0.0, initial_state)]
    state = initial_state
    t = 0.0
    # Python lists, so the per-jump arithmetic runs on floats, not numpy scalars.
    times = background.times.tolist()
    ends = times[1:] or times
    for (_, x_h, x_c), seg_end in zip(background.states.tolist(), ends):
        c_r, r_h, h_c, c_h = transition_rates(p, x_h, x_c, u)
        # Per state: (exit rate, rate of the first target, first, other
        # target); the rates hold for every jump until seg_end.
        exits = {
            "R": (r_h, r_h, "H", "H"),
            "H": (h_c, h_c, "C", "C"),
            "C": (c_h + c_r, c_h, "H", "R"),
        }
        while t < seg_end:
            total, first_rate, first, other = exits[state]
            if total <= 0.0:
                break
            t += -log1p(-uniform()) / total
            if t < seg_end:
                state = first if uniform() * total < first_rate else other
                path.append((t, state))
        t = seg_end
    return path


def round_counts(N: int, x: PopulationState) -> PopulationCounts:
    """Largest-remainder rounding of ``N * x`` to integer counts summing to N.

    Remainder ties broken by state order (R, H, C).  A state is accepted
    with its sum within ``SUM_TOL`` of 1, so at a huge ``N`` the floors can
    leave more than 3 agents, or fewer than none, to place; that raises
    :class:`SimplexError`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    raw = [N * x.x_R, N * x.x_H, N * x.x_C]
    base = [math.floor(v) for v in raw]
    left = N - sum(base)
    if not 0 <= left <= 3:
        raise SimplexError(
            f"rounding N={N} times the state leaves {left} agents to place, not 0 to 3"
        )
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
    dt: float,
) -> tuple[float, EventPath]:
    """Sup-norm distance between the replication-averaged empirical path and the ODE.

    Replication ``i`` runs on stream ``(seed, i)`` from the rounded initial
    counts; its piecewise-constant fraction path is sampled on the ODE grid,
    averaged across replications, and compared with the ODE states in the
    max norm over the whole grid, the ODE taking RK4 steps of ``dt``
    (required, as in :func:`integrate_ode`).  Returns the distance and the
    event path of replication 0.

    The guards run before anything is drawn: first the population and
    event bounds of :func:`simulate_population` (so an ``N`` above
    :data:`MAX_AGENTS` is refused before :func:`round_counts` sees it), then
    the step and row guards of :func:`integrate_ode`, whose reference path
    is computed before any stream is opened.

    Memory: replication 0's path, which is returned, plus the path of the
    replication running, 9 B per event each; each path is dropped once it
    is sampled, and its counts are derived one block at a time, never whole.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    _check_event_bound(p, N, t_end)
    n0 = round_counts(N, x0)
    ode = integrate_ode(p, x0, s, t_end, dt)
    grid = ode.times
    start = np.array([n0.n_R, n0.n_H, n0.n_C], dtype=np.int64)
    mean = np.zeros_like(ode.states)
    for stream in range(replications):
        path = simulate_population(p, n0, s, t_end, seed, stream=stream)
        if stream == 0:
            first = path
        # Grid point i reads the counts after event idx[i] - 1, the last at or
        # before it, or the start counts where no event precedes it.  idx is
        # sorted, so the grid points that read one block are one slice.
        idx = np.searchsorted(path.times, grid, side="right")
        sampled = np.empty((len(grid), 3), np.int64)
        for lo, block in path.count_blocks():
            g_lo, g_hi = np.searchsorted(idx, (lo + 1, lo + len(block) + 1))
            sampled[g_lo:g_hi] = block[idx[g_lo:g_hi] - 1 - lo]
        del path
        sampled[idx == 0] = start
        mean += sampled / N
    mean /= replications
    return float(np.max(np.abs(mean - ode.states))), first


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


# Stream-id blocks: replication i of the baseline uses stream i, the k-th
# alternative strategy uses streams (k+1)*replications + i.
def _payoff_sample(p, background, flow, profile, horizon, replications, seed, block):
    payoffs = np.empty(replications)
    for i in range(replications):
        path = simulate_tagged_agent(
            p, background, profile, seed, stream=block * replications + i, initial_state="H"
        )
        total = 0.0
        for (t0, state), (t1, _) in zip(path, path[1:] + [(horizon, None)]):
            total += flow[state] * (t1 - t0)
        payoffs[i] = total
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
    ``N`` does not enter, because the background is the mean-field limit;
    it stays in the signature because callers pass the arguments by
    position.  ``horizon`` must be finite and ``>= 0``; otherwise
    :class:`ValueError` is raised before any stream is opened.  No exit
    rate exceeds ``rate_scale(p)``, so ``4 * replications * rate_scale(p) *
    horizon`` bounds the expected jumps of the four profiles' runs; above
    :data:`MAX_EVENTS` :class:`StepSizeError` is raised, also before any
    stream is opened.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    # Also rejects inf, on which the tagged agent would never stop, and nan.
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
    predicted = 4 * replications * rate_scale(p) * horizon
    if predicted > MAX_EVENTS:
        raise StepSizeError(
            f"4*replications*rate_scale*horizon={predicted:.6g} predicts more than "
            f"{MAX_EVENTS} jumps"
        )
    background = constant_trajectory(e.state, horizon)
    # The fine is charged at the C->R (detection) rate, which no intent changes.
    detection = transition_rates(p, e.state.x_H, e.state.x_C, e.strategy)[0]
    flow = {"R": p.w_R, "H": p.w_H, "C": p.w_C - detection * p.f}
    # Block 0 is the baseline; max keeps the first of equal means.
    profiles = [e.strategy] + [u for u in ALL_PROFILES if u != e.strategy]
    (base_mean, base_se, _), *deviations = [
        (*_payoff_sample(p, background, flow, u, horizon, replications, seed, block), u)
        for block, u in enumerate(profiles)
    ]
    dev_mean, dev_se, dev_profile = max(deviations, key=lambda sample: sample[0])
    return DeviationGainEstimate(
        baseline_mean=base_mean,
        deviation_mean=dev_mean,
        gain=dev_mean - base_mean,
        std_error=math.hypot(base_se, dev_se),
        replications=replications,
        horizon=horizon,
        best_profile=dev_profile,
    )
