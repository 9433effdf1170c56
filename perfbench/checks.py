"""Output checks: each returns a list of problems, empty when the output is right.

Two kinds of check feed the failure count:

* at the default seed every CLI output must match the sha256 digest recorded
  in ``golden.json`` (the byte-identical contract, which also pins the
  ``event-rng v1`` draw order), and every ``nash`` gain must lie within
  ``4 * hypot(se, se_golden)`` of the recorded gain;
* at any seed the semantic checks below recompute what they can from the
  output with the formulas in :mod:`oracle`.

Files are read line by line so that checking a large event table does not
raise the peak memory of the process being measured.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from oracle import drift, rate_scale, tagged_agent_expectations, threshold

TRANSITIONS = {"C->R": (1, 0, -1), "R->H": (-1, 1, 0), "H->C": (0, -1, 1), "C->H": (0, 1, -1)}
PROVENANCE_INTENT = {"corrupt_root": (1, 0), "honest_interior": (0, 1), "honest_boundary": (0, 1)}
BEHAVIORS = ("corrupt", "honest", "indifferent")
STABILITY = ("stable", "unstable", "marginal")
# Band around x_bar inside which either behavior is accepted (the program's TIE_TOL).
TIE_BAND = 1e-9


def digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * (1.0 + abs(b))


def _equilibrium_problems(p: dict, state: tuple, intent: tuple, behavior: str,
                          x_bar: float, residual: float) -> list[str]:
    problems = []
    if abs(sum(state) - 1.0) > 1e-9 or min(state) < 0.0:
        problems.append(f"state {state} is not on the simplex")
    scale = 1.0 + rate_scale(p)
    recomputed = max(abs(v) for v in drift(p, state, intent))
    if abs(recomputed - residual) > 1e-12 * scale:
        problems.append(f"residual {residual!r} but the state gives {recomputed!r}")
    if recomputed > 1e-10 * scale:
        problems.append(f"state {state} is not stationary: drift {recomputed!r}")
    if behavior not in BEHAVIORS:
        problems.append(f"unknown behavior {behavior!r}")
    if not _close(x_bar, threshold(p, p["r"]), 1e-12):
        problems.append(f"x_bar {x_bar!r} differs from {threshold(p, p['r'])!r}")
    # Corruption is a best response where x_H <= x_bar, honesty where x_H >= x_bar.
    if behavior == "corrupt" and state[1] > x_bar + TIE_BAND:
        problems.append(f"corrupt behavior at x_H={state[1]!r} above x_bar={x_bar!r}")
    if behavior == "honest" and state[1] < x_bar - TIE_BAND:
        problems.append(f"honest behavior at x_H={state[1]!r} below x_bar={x_bar!r}")
    return problems


def check_classify(job, path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    p, delta = job.params, job.settings["delta"]
    if len(lines) != 3 or not lines[0].startswith("x_bar = ") or not lines[1].startswith("regime: "):
        return [f"unexpected classify output {lines!r}"]
    problems = []
    x_bar = float(lines[0].split()[2])
    if not _close(x_bar, threshold(p, p["r"]), 1e-12):
        problems.append(f"x_bar {x_bar!r} differs from {threshold(p, p['r'])!r}")
    discounted = float(lines[2].rpartition(" = ")[2])
    if not _close(discounted, threshold(p, p["r"] + delta), 1e-12):
        problems.append(f"discounted x_bar {discounted!r} differs from the formula")
    return problems


def check_equilibria(job, path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    problems = [] if 1 <= len(records) <= 3 else [f"{len(records)} equilibria"]
    x_hs = [rec["state"]["x_H"] for rec in records]
    if x_hs != sorted(x_hs):
        problems.append("equilibria not sorted by x_H")
    for rec in records:
        state = (rec["state"]["x_R"], rec["state"]["x_H"], rec["state"]["x_C"])
        intent = (rec["strategy"]["u_H"], rec["strategy"]["u_C"])
        if rec["stability"]["classification"] not in STABILITY:
            problems.append(f"unknown stability {rec['stability']['classification']!r}")
        problems += _equilibrium_problems(job.params, state, intent, rec["behavior"],
                                          rec["diagnostics"]["x_bar"],
                                          rec["diagnostics"]["residual"])
    return problems


def _sweep_grid(settings: dict) -> list[str]:
    grid = np.linspace(settings["sweep_min"], settings["sweep_max"], settings["sweep_points"])
    return [format(float(v), ".17g") for v in grid]


def _invalid(axis: str, value: float) -> bool:
    return value <= 0.0 if axis in ("b", "lambda") else value < 0.0


def check_sweep(job, path: str, notes: list | None = None) -> list[str]:
    """Grid, error rows and every equilibrium row of a sweep.

    Error rows at valid points are not failures of the CLI's contract; they
    are appended to ``notes`` so that every report shows them.
    """
    axis = job.settings["sweep_param"]
    grid = _sweep_grid(job.settings)
    problems = []
    groups: list[tuple[str, list[list[str]]]] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "param_value,x_bar,provenance,x_R,x_H,x_C,behavior,stability,residual,error":
            return [f"unexpected sweep header {header!r}"]
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if not groups or groups[-1][0] != fields[0]:
                groups.append((fields[0], []))
            groups[-1][1].append(fields)
    if [key for key, _ in groups] != grid:
        return [f"sweep rows do not follow the {len(grid)}-point grid"]
    for key, rows in groups:
        value = float(key)
        if _invalid(axis, value):
            if len(rows) != 1 or not rows[0][9] or any(rows[0][1:9]):
                problems.append(f"{axis}={key}: expected one error row")
            continue
        if len(rows) == 1 and rows[0][9] and not any(rows[0][1:9]):
            # The CLI records a point whose computation raised as an error row
            # and goes on.  At a valid point only a numerical failure may do so.
            if "violated" in rows[0][9] or "must be" in rows[0][9]:
                problems.append(f"{axis}={key}: valid point rejected: {rows[0][9]}")
            elif notes is not None:
                notes.append(f"{job.id}: {axis}={key}: error row at a valid point: {rows[0][9]}")
            continue
        if not 1 <= len(rows) <= 3 or any(row[9] for row in rows):
            problems.append(f"{axis}={key}: expected 1 to 3 equilibrium rows")
            continue
        p = dict(job.params, **{axis: value})
        for row in rows:
            intent = PROVENANCE_INTENT.get(row[2])
            if intent is None or row[7] not in STABILITY:
                problems.append(f"{axis}={key}: bad row {row!r}")
                continue
            state = (float(row[3]), float(row[4]), float(row[5]))
            problems += _equilibrium_problems(p, state, intent, row[6],
                                              float(row[1]), float(row[8]))
    return problems


def check_simulate(job, path: str) -> list[str]:
    s = job.settings
    dt = s["dt"]
    expected_rows = math.floor(s["t_end"] / dt) + 1
    x0 = (s["x0_R"], s["x0_H"], s["x0_C"])
    problems = []
    rows = 0
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "t,x_R,x_H,x_C\n":
            return ["unexpected simulate header"]
        for i, line in enumerate(fh):
            t, x_r, x_h, x_c = (float(v) for v in line.split(","))
            rows += 1
            if abs(t - i * dt) > 1e-9 * max(t, dt):
                problems.append(f"row {i}: time {t!r}, expected {i * dt!r}")
            if abs(x_r + x_h + x_c - 1.0) > 1e-12 or min(x_r, x_h, x_c) < 0.0:
                problems.append(f"row {i}: state off the simplex")
            if i == 0 and max(abs(a - b) for a, b in zip((x_r, x_h, x_c), x0)) > 1e-12:
                problems.append("first row is not x0")
            if len(problems) > 5:
                break
    if rows != expected_rows:
        problems.append(f"{rows} rows, expected floor(t_end/dt)+1 = {expected_rows}")
    return problems


def initial_counts(n_agents: int, x0: tuple) -> list[int]:
    """Largest-remainder rounding of N * x0, ties broken in the order R, H, C."""
    raw = [n_agents * v for v in x0]
    base = [math.floor(v) for v in raw]
    order = sorted(range(3), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[: n_agents - sum(base)]:
        base[i] += 1
    return base


def check_ctmc(job, path: str) -> list[str]:
    s = job.settings
    n_agents, t_end = s["N"], s["t_end"]
    counts = initial_counts(n_agents, (s["x0_R"], s["x0_H"], s["x0_C"]))
    problems = []
    last_t = 0.0
    distance = None
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "t,transition,n_R,n_H,n_C\n":
            return ["unexpected ctmc header"]
        for line in fh:
            if line.startswith("# lln_distance = "):
                distance = float(line.rpartition(" = ")[2])
                continue
            t_text, label, *rest = line.split(",")
            t = float(t_text)
            step = TRANSITIONS.get(label)
            new = [int(v) for v in rest]
            if step is None or not last_t < t <= t_end:
                problems.append(f"event {line.strip()!r} out of order or unknown")
            elif [a + d for a, d in zip(counts, step)] != new or min(new) < 0:
                problems.append(f"event {line.strip()!r} does not follow from {counts}")
            if sum(new) != n_agents:
                problems.append(f"counts {new} do not sum to N={n_agents}")
            counts, last_t = new, t
            if len(problems) > 5:
                break
    if distance is None or not 0.0 <= distance <= 1.0:
        problems.append(f"lln distance {distance!r} missing or outside [0, 1]")
    return problems


CLI_CHECKS = {
    "classify": check_classify,
    "equilibria": check_equilibria,
    "sweep": check_sweep,
    "simulate": check_simulate,
    "ctmc": check_ctmc,
}


def check_nash(job, report, estimate, golden: list | None) -> list[str]:
    """Check a ``DeviationGainEstimate`` against the exact chain and the recorded gain."""
    p, s = job.params, job.settings
    problems = []
    if estimate.replications != s["replications"] or estimate.horizon != s["horizon"]:
        problems.append("estimate does not echo replications and horizon")
    if estimate.best_profile == report.strategy:
        problems.append("best deviation is the equilibrium strategy itself")
    if estimate.gain != estimate.deviation_mean - estimate.baseline_mean:
        problems.append("gain is not deviation_mean - baseline_mean")
    x = (report.state.x_R, report.state.x_H, report.state.x_C)
    for label, mean, profile in (("baseline", estimate.baseline_mean, report.strategy),
                                 ("deviation", estimate.deviation_mean, estimate.best_profile)):
        exact, _ = tagged_agent_expectations(p, x, (profile.u_H, profile.u_C), s["horizon"])
        if abs(mean - exact) > 6.0 * estimate.std_error + 1e-9 * (1.0 + abs(exact)):
            problems.append(f"{label} mean {mean!r} is more than 6 se from exact {exact!r}")
    if golden is not None:
        gain, se = golden
        bound = 4.0 * math.hypot(estimate.std_error, se) + 1e-9 * (1.0 + abs(gain))
        if abs(estimate.gain - gain) > bound:
            problems.append(f"gain {estimate.gain!r} differs from recorded {gain!r}")
    return problems
