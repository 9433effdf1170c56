"""Command-line front end.

Subcommands: ``classify`` (regime threshold), ``equilibria`` (enumeration +
stability), ``simulate`` (ODE trajectory table), ``ctmc`` (finite-N event
table plus law-of-large-numbers distance), ``sweep`` (equilibrium atlas
along one parameter axis).  Configuration is a flat ``key = value`` file
with ``#`` comments; unknown keys are rejected.  All outputs are
deterministic given (config, seed): CSV with 17-significant-digit reals, or
a JSON document for ``--format structured`` where supported.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .equilibria import EquilibriumReport, enumerate_equilibria
from .hjb import classifier_xbar, classifier_xbar_discounted
from .model import (
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    ParameterError,
    PopulationState,
    SimplexError,
    StrategyProfile,
    validate_params,
)
from .simulate import (
    TRANSITION_LABELS,
    StepSizeError,
    integrate_ode,
    lln_convergence,
    round_counts,
    simulate_population,
)
from .stability import classify_equilibrium

dataclass_replace = dataclasses.replace


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


_PARAM_KEYS = ("lambda", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")
_FLOAT_KEYS = set(_PARAM_KEYS) | {
    "delta", "dt", "t_end", "x0_R", "x0_H", "x0_C", "sweep_min", "sweep_max",
}
_INT_KEYS = {"N", "seed", "replications", "sweep_points"}
_STR_KEYS = {"strategy", "sweep_param", "format", "out"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

_SWEEP_AXES = ("b", "f", "q_soc", "q_inf", "lambda")

DEFAULTS = {"dt": 0.01, "t_end": 50.0, "N": 1000, "seed": 42, "replications": 20}


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    dt: float
    t_end: float
    N: int
    seed: int
    replications: int
    x0: PopulationState
    strategy: StrategyProfile
    sweep_param: str | None
    sweep_grid: tuple[float, ...] | None
    format: str
    out: str | None


def _convert(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ConfigError(f"line {lineno}: value for '{key}' must be {kind}, got {raw!r}")
    return raw


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        values[key] = _convert(key, raw, lineno)

    for key in _PARAM_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key}")

    params = ModelParams(
        lam=values["lambda"], r=values["r"], b=values["b"], f=values["f"],
        q_soc=values["q_soc"], q_inf=values["q_inf"],
        w_R=values["w_R"], w_H=values["w_H"], w_C=values["w_C"],
        delta=values.get("delta"),
    )
    validate_params(params)

    dt = values.get("dt", DEFAULTS["dt"])
    t_end = values.get("t_end", DEFAULTS["t_end"])
    n_agents = values.get("N", DEFAULTS["N"])
    seed = values.get("seed", DEFAULTS["seed"])
    replications = values.get("replications", DEFAULTS["replications"])
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
        sweep_grid = tuple(float(v) for v in np.linspace(lo, hi, points))

    out_format = values.get("format", "csv")
    if out_format not in ("csv", "structured"):
        raise ConfigError(f"format must be 'csv' or 'structured', got {out_format!r}")

    return RunConfig(
        params=params, dt=dt, t_end=t_end, N=n_agents, seed=seed,
        replications=replications, x0=x0, strategy=strategy,
        sweep_param=sweep_param, sweep_grid=sweep_grid,
        format=out_format, out=values.get("out"),
    )


def load_config(path: str, fmt: str | None = None, out: str | None = None,
                seed: int | None = None) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    updates = {}
    if fmt is not None:
        updates["format"] = fmt
    if out is not None:
        updates["out"] = out
    if seed is not None:
        updates["seed"] = seed
    return dataclass_replace(cfg, **updates) if updates else cfg


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_threshold(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return _g17(v)


def _regime_line(threshold) -> str:
    x_bar = threshold.value
    if threshold.indifferent_everywhere:
        return "regime: indifferent everywhere (q_soc = 0 with zero bracket)"
    if x_bar > 1.0:
        return "regime: unique corrupt equilibrium"
    if x_bar < 0.0:
        return "regime: corrupt equilibrium impossible; honest boundary equilibrium present"
    return (
        "regime: honest boundary equilibrium present; "
        "corrupt root admissible iff Q(x_bar) >= 0"
    )


def cmd_classify(cfg: RunConfig) -> str:
    threshold = classifier_xbar(cfg.params)
    lines = [f"x_bar = {_fmt_threshold(threshold.value)}"]
    if threshold.indifferent_everywhere:
        lines[0] += "  (indifferent everywhere)"
    lines.append(_regime_line(threshold))
    if cfg.params.delta is not None:
        disc = classifier_xbar_discounted(cfg.params, cfg.params.delta)
        lines.append(
            f"x_bar(delta={_g17(cfg.params.delta)}) = {_fmt_threshold(disc.value)}"
        )
    if cfg.format == "structured":
        record = {
            "x_bar": threshold.value,
            "indifferent_everywhere": threshold.indifferent_everywhere,
            "regime": _regime_line(threshold).removeprefix("regime: "),
        }
        if cfg.params.delta is not None:
            record["x_bar_discounted"] = classifier_xbar_discounted(
                cfg.params, cfg.params.delta
            ).value
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _equilibrium_rows(p: ModelParams) -> list[tuple[EquilibriumReport, object]]:
    reports = enumerate_equilibria(p)
    return [(rep, classify_equilibrium(p, rep)) for rep in reports]


def cmd_equilibria(cfg: RunConfig) -> str:
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
                        "q_value": rep.diagnostics.q_value,
                        "x_bar": rep.diagnostics.x_bar,
                        "residual": rep.diagnostics.residual,
                        "flags": dict(rep.diagnostics.flags),
                    },
                    "warnings": list(rep.warnings),
                }
            )
        return json.dumps(records, sort_keys=True, indent=2) + "\n"
    lines = [f"# {len(rows)} equilibria"]
    for i, (rep, verdict) in enumerate(rows, start=1):
        lines.append(
            f"# [{i}] {rep.provenance.value}: x_H={rep.state.x_H:.6g} "
            f"x_C={rep.state.x_C:.6g} behavior={rep.behavior.value} "
            f"stability={verdict.classification.value} ({verdict.method.value})"
        )
    lines.append("x_bar,provenance,x_R,x_H,x_C,behavior,u_H,u_C,stability,residual")
    for rep, verdict in rows:
        lines.append(
            ",".join(
                (
                    _fmt_threshold(rep.diagnostics.x_bar),
                    rep.provenance.value,
                    _g17(rep.state.x_R),
                    _g17(rep.state.x_H),
                    _g17(rep.state.x_C),
                    rep.behavior.value,
                    str(rep.strategy.u_H),
                    str(rep.strategy.u_C),
                    verdict.classification.value,
                    _g17(rep.diagnostics.residual),
                )
            )
        )
    return "\n".join(lines) + "\n"


# Table rows are formatted from ``ndarray.tolist()`` values in chunks of this
# many rows, each chunk joined into one string: per-row strings never all
# exist at once.  ``"%.17g" % v`` equals ``_g17(v)`` for every float.
_CHUNK_ROWS = 1024
_LABELS = np.array(TRANSITION_LABELS, dtype=object)


def _table_chunks(header: str, template: str, columns: list[np.ndarray]) -> list[str]:
    """``header``, then ``template % row`` for every row of ``columns``, as chunks."""
    chunks = [header]
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*[column[lo:lo + _CHUNK_ROWS].tolist() for column in columns])
        chunks.append("\n".join([template % row for row in rows]))
    return chunks


def cmd_simulate(cfg: RunConfig) -> str:
    traj = integrate_ode(cfg.params, cfg.x0, cfg.strategy, cfg.t_end, cfg.dt)
    chunks = _table_chunks("t,x_R,x_H,x_C", "%.17g,%.17g,%.17g,%.17g",
                           [traj.times, *traj.states.T])
    return "\n".join(chunks) + "\n"


def cmd_ctmc(cfg: RunConfig) -> str:
    n0 = round_counts(cfg.N, cfg.x0)
    path = simulate_population(cfg.params, n0, cfg.strategy, cfg.t_end, cfg.seed, stream=0)
    chunks = _table_chunks("t,transition,n_R,n_H,n_C", "%.17g,%s,%d,%d,%d",
                           [path.times, _LABELS[path.transition_codes], *path.counts.T])
    distance = lln_convergence(
        cfg.params, cfg.N, cfg.x0, cfg.strategy, cfg.t_end, cfg.replications, cfg.seed,
        stream0_path=path,
    )
    chunks.append(f"# lln_distance = {_g17(distance)}")
    return "\n".join(chunks) + "\n"


def cmd_sweep(cfg: RunConfig) -> str:
    if cfg.sweep_param is None or cfg.sweep_grid is None:
        raise ConfigError("sweep requires sweep_param, sweep_min and sweep_max")
    field = "lam" if cfg.sweep_param == "lambda" else cfg.sweep_param
    lines = ["param_value,x_bar,provenance,x_R,x_H,x_C,behavior,stability,residual,error"]
    for value in cfg.sweep_grid:
        p = dataclass_replace(cfg.params, **{field: float(value)})
        try:
            validate_params(p)
            rows = _equilibrium_rows(p)
        except Exception as exc:  # per-point failures recorded, sweep continues
            message = str(exc).replace(",", ";").replace("\n", " ")
            lines.append(f"{_g17(value)},,,,,,,,,{message}")
            continue
        for rep, verdict in rows:
            lines.append(
                ",".join(
                    (
                        _g17(value),
                        _fmt_threshold(rep.diagnostics.x_bar),
                        rep.provenance.value,
                        _g17(rep.state.x_R),
                        _g17(rep.state.x_H),
                        _g17(rep.state.x_C),
                        rep.behavior.value,
                        verdict.classification.value,
                        _g17(rep.diagnostics.residual),
                        "",
                    )
                )
            )
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "classify": cmd_classify,
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "ctmc": cmd_ctmc,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="corruption-mfg",
        description="Equilibrium solver and simulator for the three-state corruption game.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--format", choices=("csv", "structured"), default=None)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, fmt=args.format, out=args.out, seed=args.seed)
        text = _COMMANDS[args.command](cfg)
    except (ConfigError, ParameterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepSizeError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 2

    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
