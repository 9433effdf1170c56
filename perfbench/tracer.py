"""Span tracer for the traced benchmark run.

The tracer wraps the program's layer functions at the bindings their callers
look up (``cli.integrate_ode`` and ``simulate.integrate_ode`` are separate
bindings of one function), so the program's source is untouched.  A span
records name, start, end, parent span and job id; spans are kept in memory and
written out when the run ends.  A layer's self time is its span's duration
minus the time of its child spans.

Counts that the program does not report are derived from what a call returns:
ODE steps from the trajectory length, CTMC events and tagged-agent jumps from
the path lengths, and uniforms drawn per stream from those by the documented
``event-rng v1`` draw order.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter, defaultdict

# Bytes per event held in an EventPath: float64 time, uint8 code, 3 x int64 counts.
EVENT_BYTES = 33
# Uniforms are generated in blocks of this many per stream (``_rng._BLOCK``).
RNG_BLOCK = 4096

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "cli.load_config.us_per_call": "us",
    "cli.cmd.self_s": "s",
    "cli.main.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
    "cli.us_per_row": "us",
    "model.validate_params.calls": "count",
    "hjb.classifier_xbar.calls": "count",
    "hjb.classifier_xbar.us_per_call": "us",
    "equilibria.enumerate_equilibria.calls": "count",
    "equilibria.enumerate_equilibria.us_per_call": "us",
    "equilibria.enumerate_equilibria.self_s": "s",
    "equilibria.reports": "count",
    "stability.classify_equilibrium.calls": "count",
    "stability.classify_equilibrium.us_per_call": "us",
    "simulate.integrate_ode.calls": "count",
    "simulate.integrate_ode.steps": "count",
    "simulate.integrate_ode.us_per_step": "us",
    "simulate.simulate_population.calls": "count",
    "simulate.simulate_population.events": "count",
    "simulate.simulate_population.us_per_event": "us",
    "simulate.lln_convergence.self_s": "s",
    "simulate.event_bytes": "B",
    "simulate.simulate_tagged_agent.calls": "count",
    "simulate.simulate_tagged_agent.jumps": "count",
    "simulate.simulate_tagged_agent.us_per_jump": "us",
    "simulate.deviation_gain.self_s": "s",
    "_rng.streams": "count",
    "_rng.draws": "count",
    "_rng.draw_yield": "ratio",
    "trace.overhead_frac": "ratio",
}


def _count_reports(tracer, args, result):
    tracer.current.counts["equilibria.reports"] += len(result)


def _count_steps(tracer, args, result):
    tracer.current.counts["simulate.integrate_ode.steps"] += len(result.times) - 1


def _count_events(tracer, args, result):
    # simulate_population(p, n0, s, t_end, seed, stream): two draws per event,
    # plus the waiting-time draw that overshoots t_end, which is skipped only
    # when the chain was absorbed (all honest and nobody intends to switch).
    strategy = args[2]
    events = len(result)
    final = tuple(int(v) for v in result.counts[-1]) if events else (
        result.initial.n_R, result.initial.n_H, result.initial.n_C)
    absorbed = final == (0, result.N, 0) and strategy.u_H == 0
    stats = tracer.current
    stats.counts["simulate.simulate_population.events"] += events
    stats.maxima["simulate.event_bytes"] = max(stats.maxima["simulate.event_bytes"],
                                               events * EVENT_BYTES)
    tracer.add_stream_draws(2 * events + (0 if absorbed else 1))


def _count_jumps(tracer, args, result):
    # simulate_tagged_agent(p, background, u, ...) against a constant
    # background (one segment): two draws per jump, plus the waiting-time
    # draw that overshoots the horizon unless the final state has no exit.
    p, background, intent = args[0], args[1], args[2]
    jumps = len(result) - 1
    final_state = result[-1][1]
    exit_rate = (p.lam * intent.u_H + p.q_inf * float(background.states[0][2])
                 if final_state == "H" else 1.0)
    extra = 1 if background.times[-1] > 0.0 and exit_rate > 0.0 else 0
    tracer.current.counts["simulate.simulate_tagged_agent.jumps"] += jumps
    tracer.add_stream_draws(2 * jumps + extra)


def program_bindings(cli, equilibria, simulate) -> list:
    """``(owner, key, span name, counter)`` for every traced call site."""
    bindings = [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "validate_params", "model.validate_params", None),
        (equilibria, "validate_params", "model.validate_params", None),
        (cli, "classifier_xbar", "hjb.classifier_xbar", None),
        (equilibria, "classifier_xbar", "hjb.classifier_xbar", None),
        (cli, "enumerate_equilibria", "equilibria.enumerate_equilibria", _count_reports),
        (cli, "classify_equilibrium", "stability.classify_equilibrium", None),
        (cli, "integrate_ode", "simulate.integrate_ode", _count_steps),
        (simulate, "integrate_ode", "simulate.integrate_ode", _count_steps),
        (cli, "simulate_population", "simulate.simulate_population", _count_events),
        (simulate, "simulate_population", "simulate.simulate_population", _count_events),
        (cli, "lln_convergence", "simulate.lln_convergence", None),
        (simulate, "simulate_tagged_agent", "simulate.simulate_tagged_agent", _count_jumps),
        (simulate, "deviation_gain", "simulate.deviation_gain", None),
        (simulate, "UniformStream", "_rng.UniformStream", None),
    ]
    # main() dispatches through this table, not through the module attributes.
    bindings += [(cli._COMMANDS, name, f"cli.cmd_{name}", None) for name in cli._COMMANDS]
    return bindings


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class PassStats:
    """Calls, busy and self seconds per span name, and counters, of one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly from one pass to the next."""
        counts = {f"{name}.calls": n for name, n in self.calls.items()}
        counts.update(self.counts)
        counts.update(self.maxima)
        return counts


class Tracer:
    """Spans and per-pass statistics of the traced passes of one run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.keep_spans = True
        self.job = -1
        self.current = PassStats()
        self.passes: list[PassStats] = []
        self._stack: list[list] = []          # [span index, seconds spent in children]
        self._patches: list = []

    def add_stream_draws(self, draws: int) -> None:
        self.current.counts["_rng.draws"] += draws
        self.current.counts["_rng.generated"] += math.ceil(draws / RNG_BLOCK) * RNG_BLOCK

    def _wrap(self, fn, name: str, counter):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [-1, 0.0]
            if self.keep_spans:
                frame[0] = len(self.span_start)
                self.span_name.append(name_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_job.append(self.job)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats = self.current
                stats.calls[name] += 1
                stats.busy[name] += elapsed
                stats.self_time[name] += elapsed - frame[1]
                if frame[0] >= 0:
                    self.span_start[frame[0]] = start - self.origin
                    self.span_end[frame[0]] = end - self.origin
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self, bindings) -> None:
        for owner, key, name, counter in bindings:
            original = _get(owner, key)
            self._patches.append((owner, key, original))
            _set(owner, key, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)

    def end_pass(self) -> None:
        """Close a traced pass; spans are kept for the first traced pass only."""
        self.passes.append(self.current)
        self.current = PassStats()
        self.keep_spans = False

    def seconds_per_call(self, name: str) -> float:
        calls = sum(stats.calls[name] for stats in self.passes)
        return sum(stats.busy[name] for stats in self.passes) / calls if calls else 0.0

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics: counts of one pass, times over all traced passes."""
        n_passes = len(self.passes)
        first = self.passes[0].exact_counts()

        def total(field: str, key: str) -> float:
            return sum(getattr(stats, field)[key] for stats in self.passes)

        def us_per(name: str, unit_key: str | None = None) -> float:
            units = total("counts", unit_key) if unit_key else total("calls", name)
            return total("busy", name) / units * 1e6 if units else 0.0

        def self_s(name: str) -> float:
            return total("self_time", name) / n_passes

        cmd_self = sum(total("self_time", name) for name in self.names
                       if name.startswith("cli.cmd_"))
        rows = total("counts", "cli.rows_out")
        generated = total("counts", "_rng.generated")
        return {
            "cli.load_config.us_per_call": us_per("cli.load_config"),
            "cli.cmd.self_s": cmd_self / n_passes,
            "cli.main.self_s": self_s("cli.main"),
            "cli.rows_out": first.get("cli.rows_out", 0),
            "cli.bytes_out": first.get("cli.bytes_out", 0),
            "cli.us_per_row": cmd_self / rows * 1e6 if rows else 0.0,
            "model.validate_params.calls": first.get("model.validate_params.calls", 0),
            "hjb.classifier_xbar.calls": first.get("hjb.classifier_xbar.calls", 0),
            "hjb.classifier_xbar.us_per_call": us_per("hjb.classifier_xbar"),
            "equilibria.enumerate_equilibria.calls":
                first.get("equilibria.enumerate_equilibria.calls", 0),
            "equilibria.enumerate_equilibria.us_per_call":
                us_per("equilibria.enumerate_equilibria"),
            "equilibria.enumerate_equilibria.self_s": self_s("equilibria.enumerate_equilibria"),
            "equilibria.reports": first.get("equilibria.reports", 0),
            "stability.classify_equilibrium.calls":
                first.get("stability.classify_equilibrium.calls", 0),
            "stability.classify_equilibrium.us_per_call": us_per("stability.classify_equilibrium"),
            "simulate.integrate_ode.calls": first.get("simulate.integrate_ode.calls", 0),
            "simulate.integrate_ode.steps": first.get("simulate.integrate_ode.steps", 0),
            "simulate.integrate_ode.us_per_step":
                us_per("simulate.integrate_ode", "simulate.integrate_ode.steps"),
            "simulate.simulate_population.calls":
                first.get("simulate.simulate_population.calls", 0),
            "simulate.simulate_population.events":
                first.get("simulate.simulate_population.events", 0),
            "simulate.simulate_population.us_per_event":
                us_per("simulate.simulate_population", "simulate.simulate_population.events"),
            "simulate.lln_convergence.self_s": self_s("simulate.lln_convergence"),
            "simulate.event_bytes": first.get("simulate.event_bytes", 0),
            "simulate.simulate_tagged_agent.calls":
                first.get("simulate.simulate_tagged_agent.calls", 0),
            "simulate.simulate_tagged_agent.jumps":
                first.get("simulate.simulate_tagged_agent.jumps", 0),
            "simulate.simulate_tagged_agent.us_per_jump":
                us_per("simulate.simulate_tagged_agent", "simulate.simulate_tagged_agent.jumps"),
            "simulate.deviation_gain.self_s": self_s("simulate.deviation_gain"),
            "_rng.streams": first.get("_rng.UniformStream.calls", 0),
            "_rng.draws": first.get("_rng.draws", 0),
            "_rng.draw_yield": total("counts", "_rng.draws") / generated if generated else 0.0,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.span_job[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")
        return len(self.span_start)
