"""Command-line front end.

Subcommands: ``classify`` (regime threshold), ``equilibria`` (enumeration +
stability), ``simulate`` (ODE trajectory table), ``ctmc`` (finite-N event
table plus law-of-large-numbers distance), ``sweep`` (equilibrium atlas
along one parameter axis).  Configuration is a flat ``key = value`` file
with ``#`` comments; unknown keys are rejected.  All outputs are
deterministic given (config, seed): CSV with 17-significant-digit reals, or
for ``classify`` and ``equilibria`` a JSON document with ``--format
structured``, which the other commands refuse.  The JSON document writes
every non-finite number as the CSV's token, ``+inf``, ``-inf`` or ``nan`` (a
JSON string), since JSON has neither.

Each ``cmd_*`` takes the run's config and a ``write`` callable and writes
its text in pieces as it is formatted: ``simulate``, ``ctmc`` and ``sweep``
pieces of at most :data:`_CHUNK_ROWS` rows, ``classify`` and ``equilibria``
one.  :func:`main` opens ``--out`` (or uses stdout) at the first piece, so
a run that fails before it writes, as every guard and numerical failure
does, leaves no output and creates no file.

Exit codes: 0 success (also ``--help``), 1 usage, configuration or
validation error, 2 numerical guard or numerical failure, such as a state
pushed off the simplex (a one-line message on stderr, no traceback).
``dt`` is the ODE step of ``simulate`` and of the ``ctmc`` reference ODE;
``delta`` is the discount rate of ``classify``'s discounted threshold line,
checked here, not by the model.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import equilibria, model, stability
from .equilibria import EquilibriumReport, enumerate_equilibria
from .hjb import _bracket, classifier_xbar, classifier_xbar_discounted, regime_at
from .model import (
    Behavior,
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    ParameterError,
    PopulationState,
    SimplexError,
    StrategyProfile,
    TRANSITION_LABELS,
    validate_params,
)
from .simulate import (
    StepSizeError,
    integrate_ode,
    lln_convergence,
    simulate_population,  # unused: perfbench/tracer.py rebinds it, tests/test_api.py checks it
)
from .stability import _CLASSIFICATIONS, classify_equilibrium

class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


_PARAM_KEYS = ("lambda", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")
# Every config key and the type its value is converted to.
_KEY_TYPES = {
    **dict.fromkeys((*_PARAM_KEYS, "delta", "dt", "t_end", "x0_R", "x0_H", "x0_C"), float),
    "sweep_min": float,
    "sweep_max": float,
    **dict.fromkeys(("N", "seed", "replications", "sweep_points"), int),
    **dict.fromkeys(("strategy", "sweep_param", "format", "out"), str),
}

_SWEEP_AXES = ("b", "f", "q_soc", "q_inf", "lambda")

DEFAULTS = {"dt": 0.01, "t_end": 50.0, "N": 1000, "seed": 42, "replications": 20}

# Largest sweep grid ``parse_config`` will build.  The grid is built whole
# before the first point, one float64 array of ~8 MB at the cap.  The points
# are evaluated and written a block at a time, so the grid pass's arrays
# never reach the ~8 MB each of a whole-grid pass.
MAX_SWEEP_POINTS = 10**6


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    delta: float | None
    dt: float
    t_end: float
    N: int
    seed: int
    replications: int
    x0: PopulationState
    strategy: StrategyProfile
    sweep_param: str | None
    sweep_grid: np.ndarray | None  # float64, read-only
    format: str
    out: str | None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat ``key = value`` configuration document."""
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        convert = _KEY_TYPES.get(key)
        if convert is None:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        try:
            values[key] = convert(raw)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ConfigError(f"line {lineno}: value for '{key}' must be {kind}, got {raw!r}")

    for key in _PARAM_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key}")

    params = ModelParams(
        lam=values["lambda"], r=values["r"], b=values["b"], f=values["f"],
        q_soc=values["q_soc"], q_inf=values["q_inf"],
        w_R=values["w_R"], w_H=values["w_H"], w_C=values["w_C"],
    )
    validate_params(params)
    delta = values.get("delta")
    if delta is not None and not 0 < delta < math.inf:
        raise ConfigError("delta > 0 violated")

    dt = values.get("dt", DEFAULTS["dt"])
    t_end = values.get("t_end", DEFAULTS["t_end"])
    n_agents = values.get("N", DEFAULTS["N"])
    seed = values.get("seed", DEFAULTS["seed"])
    replications = values.get("replications", DEFAULTS["replications"])
    for key, value in (("dt", dt), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if dt <= 0:
        raise ConfigError("dt must be > 0")
    if t_end <= 0:
        raise ConfigError("t_end must be > 0")
    if n_agents < 1:
        raise ConfigError("N must be >= 1")
    if replications < 1:
        raise ConfigError("replications must be >= 1")

    try:
        x0 = PopulationState(
            values.get("x0_R", 1.0 / 3.0),
            values.get("x0_H", 1.0 / 3.0),
            values.get("x0_C", 1.0 / 3.0),
        )
    except SimplexError as exc:
        raise ConfigError(f"initial state invalid: {exc}")

    strategy_name = values.get("strategy", "corrupt")
    if strategy_name not in ("corrupt", "honest"):
        raise ConfigError(f"strategy must be 'corrupt' or 'honest', got {strategy_name!r}")
    strategy = CORRUPT_PROFILE if strategy_name == "corrupt" else HONEST_PROFILE

    sweep_param = values.get("sweep_param")
    sweep_grid = None
    if sweep_param is not None:
        if sweep_param not in _SWEEP_AXES:
            raise ConfigError(f"sweep_param must be one of {_SWEEP_AXES}, got {sweep_param!r}")
        if "sweep_min" not in values or "sweep_max" not in values:
            raise ConfigError("sweep_min and sweep_max are required with sweep_param")
        lo, hi = values["sweep_min"], values["sweep_max"]
        points = values.get("sweep_points", 1)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError("sweep bounds must be finite")
        if points < 1:
            raise ConfigError("sweep_points must be >= 1")
        if points > MAX_SWEEP_POINTS:
            raise StepSizeError(f"sweep_points={points} exceeds the cap of {MAX_SWEEP_POINTS}")
        # linspace may overflow only in its last point, which it then sets to
        # the exact bound.  Where the span itself overflows, the grid of the
        # halved bounds is doubled: halving and doubling are exact.
        with np.errstate(over="ignore"):
            if math.isfinite(hi - lo):
                sweep_grid = np.linspace(lo, hi, points)
            else:
                sweep_grid = 2.0 * np.linspace(lo / 2, hi / 2, points)
        sweep_grid.flags.writeable = False

    out_format = values.get("format", "csv")
    if out_format not in ("csv", "structured"):
        raise ConfigError(f"format must be 'csv' or 'structured', got {out_format!r}")

    return RunConfig(
        params=params, delta=delta, dt=dt, t_end=t_end, N=n_agents, seed=seed,
        replications=replications, x0=x0, strategy=strategy,
        sweep_param=sweep_param, sweep_grid=sweep_grid,
        format=out_format, out=values.get("out"),
    )


def load_config(path: str, fmt: str | None = None, out: str | None = None,
                seed: int | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    cfg = parse_config(text)
    updates = {}
    if fmt is not None:
        updates["format"] = fmt
    if out is not None:
        updates["out"] = out
    if seed is not None:
        updates["seed"] = seed
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _fmt_threshold(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return "%.17g" % v


def _json_text(doc) -> str:
    """``doc`` as JSON.  RFC 8259 has no NaN or infinity, so every non-finite
    float is written as its CSV token: ``"+inf"``, ``"-inf"`` or ``"nan"``."""
    def strict(value):
        if isinstance(value, dict):
            return {key: strict(v) for key, v in value.items()}
        if isinstance(value, list):
            return [strict(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return _fmt_threshold(value)
        return value

    return json.dumps(strict(doc), sort_keys=True, indent=2) + "\n"


def _regime(threshold) -> str:
    if threshold.indifferent_everywhere:
        return "indifferent everywhere (q_soc = 0 with zero bracket)"
    # The enumeration lists the honest boundary x_H = 1 unless it reads corrupt.
    if regime_at(threshold, 1.0) is Behavior.CORRUPT:
        return "unique corrupt equilibrium"
    if threshold.value < 0.0:
        return "corrupt equilibrium impossible; honest boundary equilibrium present"
    return "honest boundary equilibrium present; corrupt root admissible iff Q(x_bar) >= 0"


def cmd_classify(cfg: RunConfig, write) -> None:
    p = cfg.params
    threshold = classifier_xbar(p)
    regime = _regime(threshold)
    disc = None if cfg.delta is None else classifier_xbar_discounted(p, cfg.delta)
    if cfg.format == "structured":
        record = {
            "x_bar": threshold.value,
            "indifferent_everywhere": threshold.indifferent_everywhere,
            "regime": regime,
        }
        if disc is not None:
            record["x_bar_discounted"] = disc.value
        write(_json_text(record))
        return
    lines = [f"x_bar = {_fmt_threshold(threshold.value)}"]
    if threshold.indifferent_everywhere:
        lines[0] += "  (indifferent everywhere)"
    lines.append(f"regime: {regime}")
    if disc is not None:
        lines.append("x_bar(delta=%.17g) = %s" % (cfg.delta, _fmt_threshold(disc.value)))
    write("\n".join(lines) + "\n")


def _equilibrium_rows(p: ModelParams) -> list[tuple[EquilibriumReport, object]]:
    reports = enumerate_equilibria(p)
    return [(rep, classify_equilibrium(p, rep)) for rep in reports]


# The leading columns of the equilibria and sweep tables, and their template.
_REPORT_COLUMNS = "x_bar,provenance,x_R,x_H,x_C,behavior"
_REPORT_TEMPLATE = "%s,%s,%.17g,%.17g,%.17g,%s"


def _report_cells(rep: EquilibriumReport) -> tuple:
    """One report's values for :data:`_REPORT_TEMPLATE`.

    Enum cells read ``_value_``: the ``.value`` property runs Python code.
    """
    state = rep.state
    return (
        _fmt_threshold(rep.x_bar),
        rep.provenance._value_,
        state.x_R,
        state.x_H,
        state.x_C,
        rep.behavior._value_,
    )


def cmd_equilibria(cfg: RunConfig, write) -> None:
    p = cfg.params
    rows = _equilibrium_rows(p)
    if cfg.format == "structured":
        records = []
        for rep, verdict in rows:
            records.append(
                {
                    "state": {"x_R": rep.state.x_R, "x_H": rep.state.x_H, "x_C": rep.state.x_C},
                    "behavior": rep.behavior.value,
                    "strategy": {"u_H": rep.strategy.u_H, "u_C": rep.strategy.u_C},
                    "provenance": rep.provenance.value,
                    "stability": {
                        "classification": verdict.classification.value,
                        "method": verdict.method.value,
                        "eigen_real_parts": list(verdict.eigen_real_parts),
                        "trace": verdict.trace,
                        "det": verdict.det,
                        "flags": dict(verdict.flags),
                    },
                    "diagnostics": {
                        "q_value": rep.q_value,
                        "x_bar": rep.x_bar,
                        "residual": rep.residual,
                        "flags": dict(rep.flags),
                    },
                    "warnings": list(rep.warnings),
                }
            )
        write(_json_text(records))
        return
    lines = [f"# {len(rows)} equilibria"]
    for i, (rep, verdict) in enumerate(rows, start=1):
        lines.append(
            f"# [{i}] {rep.provenance.value}: x_H={rep.state.x_H:.6g} "
            f"x_C={rep.state.x_C:.6g} behavior={rep.behavior.value} "
            f"stability={verdict.classification.value} ({verdict.method.value})"
        )
    lines.append(f"{_REPORT_COLUMNS},u_H,u_C,stability,residual")
    template = _REPORT_TEMPLATE + ",%s,%s,%s,%.17g"
    for rep, verdict in rows:
        lines.append(template % (*_report_cells(rep), rep.strategy.u_H, rep.strategy.u_C,
                                 verdict.classification._value_, rep.residual))
    write("\n".join(lines) + "\n")


# Every real, in tables and elsewhere, is written as ``"%.17g" % v``, which
# equals ``format(v, ".17g")`` for every float; only ``x_bar`` cells go through
# ``_fmt_threshold`` for their ``+inf``/``-inf`` tokens.  Tables are written
# as they are formatted, one piece per this many rows, so a table's whole
# text never exists at once.
_CHUNK_ROWS = 1024
_LABELS = np.array([label.encode() for label in TRANSITION_LABELS])
_CONVERSIONS = re.compile("%(?:[.]17g|d|s)")


def _table_rows(template: str, cells: list[np.ndarray]) -> np.ndarray:
    """One NUL-padded byte row per row of ``cells``, which :func:`_text` of
    any run of them turns into ``template % row + "\\n"`` for each, joined.

    ``template`` converts float64 columns with ``%.17g``, int64 counts with
    ``%d`` and NUL-padded bytes arrays with ``%s``.  The cells become the
    NUL-padded fields of :mod:`._g17`, the floats in one call and the counts
    in another; with the template's literal bytes they fill one byte row per
    table row, and dropping the NULs leaves the text.
    """
    from . import _g17  # imported here: classify and equilibria skip its tables, a few ms

    kinds = _CONVERSIONS.findall(template)
    literals = [np.frombuffer(text.encode(), dtype=np.uint8)
                for text in _CONVERSIONS.split(template + "\n")]
    rows = len(cells[0])
    fields = [cell.view(np.uint8).reshape(rows, cell.itemsize) if kind == "%s" else None
              for kind, cell in zip(kinds, cells)]
    # The columns of each numeric kind are formatted together, in one call.
    calls = [(format_cells, [i for i, k in enumerate(kinds) if k == kind])
             for kind, format_cells in (("%.17g", _g17.g17), ("%d", _g17.d)) if kind in kinds]
    for format_cells, at in calls:
        # Row r's cell j is at r * len(at) + j of the block.
        block = format_cells(np.stack([cells[i] for i in at], axis=1).reshape(-1))
        for j, i in enumerate(at):
            fields[i] = block[j::len(at)]
    pieces = [literals[0], *(p for pair in zip(fields, literals[1:]) for p in pair)]
    text = np.empty((rows, sum(piece.shape[-1] for piece in pieces)), dtype=np.uint8)
    end = 0
    for piece in pieces:
        start, end = end, end + piece.shape[-1]
        text[:, start:end] = piece
    return text


def _text(rows: np.ndarray) -> str:
    """The text of byte rows of :func:`_table_rows`: their NULs dropped."""
    return rows.tobytes().translate(None, b"\0").decode()


def _write_table(write, template: str, columns: list[np.ndarray]) -> None:
    """Write the text of ``columns``, one piece per :data:`_CHUNK_ROWS` rows."""
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        write(_text(_table_rows(template, [column[lo:lo + _CHUNK_ROWS] for column in columns])))


def cmd_simulate(cfg: RunConfig, write) -> None:
    traj = integrate_ode(cfg.params, cfg.x0, cfg.strategy, cfg.t_end, cfg.dt)
    times, states = traj.times, traj.states
    # The trailing run of rows whose state is bit-identical to the last row
    # starts at ``settled``.  Bits, not float ==, so a -0.0 stays distinct.
    bits = states.view(np.uint64)
    changed = np.flatnonzero((bits != bits[-1]).any(axis=1))
    settled = int(changed[-1]) + 1 if len(changed) else 0
    write("t,x_R,x_H,x_C\n")
    _write_table(write, "%.17g,%.17g,%.17g,%.17g", [times[:settled], *states[:settled].T])
    # The settled state is formatted once into the template, so each of its
    # rows formats only its time.
    template = "%.17g" + ",%.17g,%.17g,%.17g" % tuple(states[-1].tolist())
    _write_table(write, template, [times[settled:]])


def cmd_ctmc(cfg: RunConfig, write) -> None:
    distance, path = lln_convergence(
        cfg.params, cfg.N, cfg.x0, cfg.strategy, cfg.t_end, cfg.replications, cfg.seed, cfg.dt
    )
    write("t,transition,n_R,n_H,n_C\n")
    # The path holds no counts: each block's are derived as it is written.
    for lo, counts in path.count_blocks():
        hi = lo + len(counts)
        _write_table(write, "%.17g,%s,%d,%d,%d",
                     [path.times[lo:hi], _LABELS[path.transition_codes[lo:hi]], *counts.T])
    write("# lln_distance = %.17g\n" % distance)


# The model's numerical failures exit 2 from ``main``; at one sweep point they
# and invalid parameters become an error cell.  Any other exception is a bug.
_NUMERICAL_FAILURES = (SimplexError, ArithmeticError)
_POINT_ERRORS = (ParameterError, *_NUMERICAL_FAILURES)


def cmd_sweep(cfg: RunConfig, write) -> None:
    """Each grid point's equilibria, with their stability and residual.

    Each block of at most :data:`_CHUNK_ROWS` points goes through one numpy
    pass, :func:`_grid_pass`: the helpers of ``model``, ``hjb``,
    ``equilibria`` and ``stability`` that the scalar API calls, on arrays,
    the validity rules, the candidates, their admission, the closed-form
    rules, eigenvalue real parts, verdicts and listing order included; so
    the scalar API's bytes.  The pass states no rule of its own but its
    hand-offs.  It writes the error row of each swept value that
    ``validate_params`` refuses, with its message, and the columns of the
    other points' rows, which :func:`_table_rows` formats as pieces of at
    most :data:`_CHUNK_ROWS` rows.  The points it hands off go through
    :func:`_point_rows`, the scalar path and the specification, whose ``%``
    rows are written between the rows on either side of them: x_bar not
    finite (so every point where q_soc = 0); where the corrupt root exists,
    a degenerate Q or not one candidate root in (0, 1); a listed equilibrium
    with a component outside [0, 1] (NaN included), which
    ``PopulationState`` clamps or refuses, or with a residual not finite,
    or a corrupt root where ``r**2`` underflows; all points of a block whose
    base is invalid or where an operation on scalars raises.
    """
    if cfg.sweep_param is None or cfg.sweep_grid is None:
        raise ConfigError("sweep requires sweep_param, sweep_min and sweep_max")
    field = "lam" if cfg.sweep_param == "lambda" else cfg.sweep_param
    # Rows not yet written, the header first: the pass's error rows and the
    # handed-off points' rows, written as pieces of at most _CHUNK_ROWS rows.
    pending = [f"param_value,{_REPORT_COLUMNS},stability,residual,error"]

    def flush():
        if pending:
            write("\n".join([*pending, ""]))
            pending.clear()

    for lo in range(0, len(cfg.sweep_grid), _CHUNK_ROWS):
        values = cfg.sweep_grid[lo:lo + _CHUNK_ROWS]
        try:
            with np.errstate(all="ignore"):
                columns, points = _grid_pass(validate_params(cfg.params), field, values)
        except (ParameterError, ArithmeticError):  # no listed rows, every point handed off
            columns, points = [values[:0]], [(0, i, None) for i in range(len(values))]
        done = 0  # rows of ``columns`` written
        # The last entry, past the last point, writes the rows after it.
        for row, i, rows in [*points, (len(columns[0]), None, [])]:
            while done < row:
                # Rows are formatted a piece at a time; a point's text cuts
                # the piece's byte rows, not its text.
                start = done - done % _CHUNK_ROWS
                if done == start:
                    table = _table_rows(_GRID_ROW, [column[start:start + _CHUNK_ROWS]
                                                    for column in columns])
                end = min(row, start + _CHUNK_ROWS)
                flush()
                write(_text(table[done - start:end - start]))
                done = end
            if rows is None:
                # A Python float, as ``np.float64 ** 0.5`` would round as np.sqrt does.
                rows = _point_rows(cfg.params, field, float(values[i]))
            if len(pending) + len(rows) > _CHUNK_ROWS:
                flush()
            pending += rows
    flush()


def _error_row(value: float, message: str) -> str:
    # The row of a point where the model fails: its value and the message.
    return "%.17g,,,,,,,,,%s" % (value, message.replace(",", ";").replace("\n", " "))


def _point_rows(base: ModelParams, field: str, value: float) -> list[str]:
    """The scalar API's rows, or error row, of ``base`` with ``value`` in ``field``."""
    try:
        # enumerate_equilibria validates the point's parameters first.
        rows = _equilibrium_rows(ModelParams(**{**vars(base), field: value}))
    except _POINT_ERRORS as exc:  # per-point failures recorded, sweep continues
        return [_error_row(value, str(exc))]
    template = "%.17g," % value + _REPORT_TEMPLATE + ",%s,%.17g,"
    return [template % (*_report_cells(rep), verdict.classification._value_, rep.residual)
            for rep, verdict in rows]


_GRID_ROW = "%.17g,%.17g,%s,%.17g,%.17g,%.17g,%s,%s,%.17g,"  # x_bar is finite here
# Cell labels by grid pass code.
_PROVENANCES = np.array([candidate[0].value.encode() for candidate in equilibria._CANDIDATES])
_BEHAVIORS = np.array([behavior.value.encode() for behavior in Behavior])
_STABILITIES = np.array([verdict.value.encode() for verdict in _CLASSIFICATIONS])


def _grid_pass(base: ModelParams, field: str, values: np.ndarray) -> tuple:
    """The columns of the rows it lists, in grid order, for :data:`_GRID_ROW`,
    and ``(row, i, rows)`` for each other point ``i``, in grid order: the
    row of the columns before which its text goes, and ``[error row]``, or
    None where it is handed off.  ``base`` with the array ``values`` in
    ``field`` goes through the scalar closed forms."""
    n = len(values)
    p = dataclasses.replace(base, **{field: values})
    # Each value's first violated inequality, read from validate_params's table.
    violation = model._first_violation(p, np.where)
    invalid = violation < len(model._RULES)
    x_bar = np.broadcast_to(_bracket(p, p.r) / p.q_soc, (n,))
    flagged = ~np.isfinite(x_bar)
    coefficients = alpha, beta, _ = equilibria.q_coefficients(p)
    root, single = equilibria._polished_root(coefficients, np.sqrt, np.where)
    present = equilibria._candidates(p, x_bar)
    flagged |= present[0] & (equilibria._degenerate(alpha, beta) | ~single)
    points = ((root, equilibria._corrupt_x_c(p, root)), equilibria._interior_point(p),
              equilibria._BOUNDARY)
    # table[i, k]: candidate k's x_R, x_H, x_C, residual and the codes of its
    # behavior and classification at point i, in enumerate_equilibria's order.
    table = np.empty((n, 3, 6))
    listed = np.empty((n, 3), dtype=bool)
    for k, ((provenance, profile, drop, _), (x_h, x_c)) in enumerate(
            zip(equilibria._CANDIDATES, points)):
        behavior, listed[:, k] = equilibria._admission(present[k], x_h, x_bar, drop)
        # Where a component is outside [0, 1], PopulationState clamps or refuses it.
        state, residual = equilibria._state(p, x_h, x_c, profile, SimpleNamespace, np.where)
        valid = np.isfinite(residual)
        for v in vars(state).values():
            valid &= (0.0 <= v) & (v <= 1.0)
        flagged |= listed[:, k] & ~valid
        if k == 0:  # where r**2 underflows, the band divides by zero
            flagged |= listed[:, k] & (p.r**2 == 0.0)
        # classify_equilibrium's verdict, read from ``stability`` at each call.
        closed, _ = stability._closed_form(p, provenance, state, np.where)
        parts = stability.eigen_real_parts(*stability._trace_det(p, state, profile),
                                           np.sqrt, np.where)
        verdict = stability._verdict_index(closed, parts, np.where)
        for j, cell in enumerate((state.x_R, state.x_H, state.x_C, residual, behavior, verdict)):
            table[:, k, j] = cell
    # An invalid point has its error row only, a handed-off one the scalar rows.
    flagged |= invalid
    listed &= ~flagged[:, None]
    # Listed candidates in grid order, each point's in _CANDIDATES' order;
    # ``at`` indexes ``table``.
    at = np.flatnonzero(listed)
    x_r, x_h, x_c, residual, behavior, verdict = table.reshape(3 * n, 6)[at].T
    counts = listed.sum(axis=1)
    columns = [np.repeat(values, counts), np.repeat(x_bar, counts), _PROVENANCES[at % 3], x_r,
               x_h, x_c, _BEHAVIORS[behavior.astype(np.intp)],
               _STABILITIES[verdict.astype(np.intp)], residual]
    # A point with no listed rows goes where its rows would start: at the
    # count of the rows before it.
    others = np.flatnonzero(flagged)
    texts = [None if k == len(model._RULES) else [_error_row(value, model._RULES[k])]
             for k, value in zip(violation[others].tolist(), values[others].tolist())]
    return columns, list(zip(np.cumsum(counts)[others].tolist(), others.tolist(), texts))


_COMMANDS = {
    "classify": cmd_classify,
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "ctmc": cmd_ctmc,
    "sweep": cmd_sweep,
}


_PARSER = argparse.ArgumentParser(
    prog="corruption-mfg",
    description="Equilibrium solver and simulator for the three-state corruption game.",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a key = value config file")
_PARSER.add_argument("--format", choices=("csv", "structured"), default=None)
_PARSER.add_argument("--out", default=None, help="output path (default: stdout)")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a numerical guard.
        return 1 if exc.code else 0

    sink = None

    def write(text: str) -> None:
        # Opens --out at the first piece, so a run that fails earlier
        # creates no file and leaves an existing one as it was.
        nonlocal sink
        if sink is None:
            sink = open(cfg.out, "w", encoding="utf-8", newline="") if cfg.out else sys.stdout
        sink.write(text)

    try:
        cfg = load_config(args.config, fmt=args.format, out=args.out, seed=args.seed)
        if cfg.format == "structured" and args.command not in ("classify", "equilibria"):
            raise ConfigError(f"{args.command} writes CSV only; format = structured is for "
                              "classify and equilibria")
        try:
            _COMMANDS[args.command](cfg, write)
        finally:
            if sink is not None and sink is not sys.stdout:
                sink.close()
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepSizeError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        message = str(exc).replace("\n", " ")
        print(f"numerical failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
