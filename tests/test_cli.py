"""Configuration parsing, subcommand output contracts, determinism."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg import _g17, cli, equilibria, hjb, model, simulate, stability
from strategies import spread_params
from support import random_params
from test_rng import PINNED

BASE_CFG = """\
# interaction-free corrupt baseline
lambda = 1
r = 1
b = 1
f = 0
q_soc = 0
q_inf = 0
w_R = 0
w_H = 1
w_C = 10
"""

THREE_CFG = """\
lambda = 0.1
r = 1
b = 0.2
f = 0
q_soc = 0.5
q_inf = 2
w_R = 0
w_H = 1
w_C = 1.275
"""


def run_cli(tmp_path, cfg_text, command, *extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / f"{command}.out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    return rc, out.read_bytes() if out.exists() else b""


# ---------------------------------------------------------------------------
# parse_config


def test_parse_defaults():
    cfg = cli.parse_config(BASE_CFG)
    assert cfg.dt == 0.01
    assert cfg.t_end == 50.0
    assert cfg.N == 1000
    assert cfg.seed == 42
    assert cfg.replications == 20
    assert cfg.format == "csv"
    assert cfg.strategy == cm.CORRUPT_PROFILE
    assert cfg.x0.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_parse_missing_required_key():
    text = "\n".join(line for line in BASE_CFG.splitlines() if not line.startswith("w_C"))
    with pytest.raises(cli.ConfigError, match="missing required key w_C"):
        cli.parse_config(text)


def test_parse_unknown_and_duplicate_keys():
    with pytest.raises(cli.ConfigError, match="unknown key 'w_X'"):
        cli.parse_config(BASE_CFG + "w_X = 3\n")
    with pytest.raises(cli.ConfigError, match="duplicate key 'r'"):
        cli.parse_config(BASE_CFG + "r = 2\n")


def test_parse_validation_delegates_to_params():
    text = BASE_CFG.replace("w_C = 10", "w_C = 0.5")
    with pytest.raises(cm.ParameterError, match="w_C > w_H"):
        cli.parse_config(text)


def test_parse_bad_number_and_bad_line():
    with pytest.raises(cli.ConfigError, match="must be a number"):
        cli.parse_config(BASE_CFG.replace("b = 1", "b = one"))
    with pytest.raises(cli.ConfigError, match="expected 'key = value'"):
        cli.parse_config(BASE_CFG + "just words\n")


def test_parse_non_integer_count():
    with pytest.raises(cli.ConfigError, match="value for 'N' must be an integer, got '1.5'"):
        cli.parse_config(BASE_CFG + "N = 1.5\n")


def test_config_with_a_byte_order_mark_parses_like_the_plain_file(tmp_path):
    plain = tmp_path / "plain.cfg"
    marked = tmp_path / "marked.cfg"
    plain.write_bytes(THREE_CFG.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + THREE_CFG.encode())
    outputs = []
    for cfg in (plain, marked):
        out = tmp_path / (cfg.stem + ".out")
        assert cli.main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"# 3 equilibria\n")


def test_parse_strategy_and_sweep_validation():
    with pytest.raises(cli.ConfigError, match="strategy"):
        cli.parse_config(BASE_CFG + "strategy = wobbly\n")
    with pytest.raises(cli.ConfigError, match="sweep_min"):
        cli.parse_config(BASE_CFG + "sweep_param = b\n")
    cfg = cli.parse_config(BASE_CFG + "sweep_param = b\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\n")
    assert cfg.sweep_grid.tolist() == [1.0, 1.5, 2.0]


# ---------------------------------------------------------------------------
# classify


def test_classify_reports_threshold_and_regime(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG.replace("q_soc = 0", "q_soc = 1"), "classify")
    assert rc == 0
    text = out.decode()
    assert "x_bar = 8" in text
    assert "regime: unique corrupt equilibrium" in text


def test_classify_infinite_threshold(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG, "classify")
    assert rc == 0
    assert "x_bar = +inf" in out.decode()


def test_classify_discounted_line_present(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG.replace("q_soc = 0", "q_soc = 1") + "delta = 1\n",
                      "classify")
    assert rc == 0
    assert "x_bar(delta=1) = " in out.decode()


def test_classify_structured(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG.replace("q_soc = 0", "q_soc = 1") + "delta = 1\n",
                      "classify", "--format", "structured")
    assert rc == 0
    record = json.loads(out.decode())
    assert record["x_bar"] == pytest.approx(8.0)
    # (r+delta)(w_C-w_H)/(w_H-w_R) - b = 2*9 - 1 = 17 at q_soc = 1
    assert record["x_bar_discounted"] == pytest.approx(17.0)
    assert record["regime"] == "unique corrupt equilibrium"


def test_parse_rejects_nonpositive_delta():
    with pytest.raises(cli.ConfigError, match="delta > 0"):
        cli.parse_config(BASE_CFG + "delta = 0\n")


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
def test_classify_rejects_inadmissible_delta(tmp_path, capsys, delta):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG + f"delta = {delta}\n")
    assert cli.main(["classify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: delta > 0 violated\n"
    assert captured.out == ""


_HUGE_R = BASE_CFG.replace("r = 1\n", "r = 1e308\n")
_FINED = "f = 10\nq_soc = 1\n"
_BOUNDARY_ONLY = "regime: corrupt equilibrium impossible; honest boundary equilibrium present\n"
# Configs whose threshold bracket overflows in floats, with the classify text
# of each: the bracket's limit, formed with every term divided by the rate.
OVERFLOWING_BRACKETS = {
    # rate * f overflows: inf / inf.
    "huge-delta": (BASE_CFG.replace("f = 0\nq_soc = 0\n", _FINED) + "delta = 1e308\n",
                   "x_bar = -0.18181818181818177\n" + _BOUNDARY_ONLY
                   + "x_bar(delta=1e+308) = -0.099999999999999978\n"),
    "huge-r": (_HUGE_R.replace("f = 0\nq_soc = 0\n", _FINED),
               "x_bar = -0.099999999999999978\n" + _BOUNDARY_ONLY),
    # At q_soc = 0 a NaN bracket read as a zero one: indifferent everywhere.
    "huge-r-q_soc-zero": (_HUGE_R.replace("f = 0\n", "f = 10\n"),
                          "x_bar = -inf\n" + _BOUNDARY_ONLY),
    # f = 0 and (w_H - w_R) / (r + delta) underflows: a zero denominator, +inf.
    "underflow": (BASE_CFG.replace("q_soc = 0", "q_soc = 1").replace("w_H = 1\n", "w_H = 1e-20\n")
                  + "delta = 1e308\n",
                  "x_bar = 1e+21\nregime: unique corrupt equilibrium\n"
                  "x_bar(delta=1e+308) = +inf\n"),
    # r + delta overflows to inf, and inf * f is NaN at f = 0.
    "infinite-rate": (_HUGE_R.replace("q_soc = 0", "q_soc = 1") + "delta = 1e308\n",
                      "x_bar = +inf\nregime: unique corrupt equilibrium\n"
                      "x_bar(delta=1e+308) = +inf\n"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_BRACKETS))
def test_overflowing_threshold_bracket_takes_its_limit(tmp_path, name):
    cfg, text = OVERFLOWING_BRACKETS[name]
    rc, out = run_cli(tmp_path, cfg, "classify")
    assert rc == 0
    assert out.decode() == text


# ---------------------------------------------------------------------------
# equilibria


def test_equilibria_table_and_roundtrip(tmp_path):
    rc, out = run_cli(tmp_path, THREE_CFG, "equilibria")
    assert rc == 0
    lines = [l for l in out.decode().splitlines() if not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header == "x_bar,provenance,x_R,x_H,x_C,behavior,u_H,u_C,stability,residual"
    assert len(rows) == 3
    stability = {}
    p = cli.parse_config(THREE_CFG).params
    for row in rows:
        cells = row.split(",")
        record = dict(zip(header.split(","), cells))
        state = cm.PopulationState(float(record["x_R"]), float(record["x_H"]), float(record["x_C"]))
        strategy = cm.StrategyProfile(int(record["u_H"]), int(record["u_C"]))
        recomputed = max(abs(v) for v in cm.kinetic_rhs(p, state, strategy))
        assert abs(recomputed - float(record["residual"])) <= 1e-12
        assert float(record["x_bar"]) == pytest.approx(0.15, abs=1e-12)
        stability[record["provenance"]] = record["stability"]
    assert stability == {
        "corrupt_root": "stable",
        "honest_interior": "stable",
        "honest_boundary": "unstable",
    }


def test_equilibria_structured_output(tmp_path):
    rc, out = run_cli(tmp_path, THREE_CFG, "equilibria", "--format", "structured")
    assert rc == 0
    records = json.loads(out.decode())
    assert len(records) == 3
    for record in records:
        assert set(record) == {
            "state", "behavior", "strategy", "provenance", "stability",
            "diagnostics", "warnings",
        }
        assert record["diagnostics"]["residual"] <= 1e-9


# ---------------------------------------------------------------------------
# simulate


def test_simulate_table_contract(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG + "t_end = 2\ndt = 0.01\nx0_R = 0\nx0_H = 1\nx0_C = 0\n",
                      "simulate")
    assert rc == 0
    lines = out.decode().splitlines()
    assert lines[0] == "t,x_R,x_H,x_C"
    assert len(lines) == 1 + math.floor(2 / 0.01) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 1.0, 0.0]
    # The defaults, t_end = 50 and dt = 0.01: a header and floor(t_end/dt) + 1 rows.
    rc, out = run_cli(tmp_path, THREE_CFG, "simulate")
    assert rc == 0
    lines = out.decode().splitlines()
    assert lines[0] == "t,x_R,x_H,x_C" and len(lines) == 5002


def test_simulate_reaches_stable_point(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG + "t_end = 50\n", "simulate")
    assert rc == 0
    last = [float(v) for v in out.decode().splitlines()[-1].split(",")]
    assert last[1:] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-6)


def test_simulate_step_guard_exit_code(tmp_path):
    rc, _ = run_cli(tmp_path, BASE_CFG + "dt = 0.05\n", "simulate")
    assert rc == 2


def test_simulate_step_count_cap_exit_code(tmp_path, capsys):
    # 2**-5 divides 312500 exactly: floor(t_end/dt) + 1 is one row over the cap.
    for t_end in ("1e300", "312500"):
        rc, out = run_cli(tmp_path, BASE_CFG + f"dt = 0.03125\nt_end = {t_end}\n", "simulate")
        assert rc == 2
        assert out == b""
        assert "trajectory rows" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("simulate", "t_end = inf\n"),
    ("simulate", "t_end = nan\n"),
    ("simulate", "dt = nan\n"),
    ("simulate", "dt = inf\n"),
    ("ctmc", "t_end = nan\n"),
    ("ctmc", "t_end = inf\n"),
], ids=["simulate-t_end-inf", "simulate-t_end-nan", "simulate-dt-nan", "simulate-dt-inf",
        "ctmc-t_end-nan", "ctmc-t_end-inf"])
def test_nonfinite_dt_and_t_end_are_config_errors(tmp_path, capsys, command, extra):
    rc, out = run_cli(tmp_path, BASE_CFG + extra, command)
    assert rc == 1
    assert out == b""
    assert "must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ctmc


def test_ctmc_deterministic_and_conserving(tmp_path):
    cfg = BASE_CFG + "t_end = 3\nN = 60\nreplications = 4\nseed = 5\n"
    rc1, out1 = run_cli(tmp_path, cfg, "ctmc")
    rc2, out2 = run_cli(tmp_path, cfg, "ctmc")
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte identical
    lines = out1.decode().splitlines()
    assert lines[0] == "t,transition,n_R,n_H,n_C"
    assert lines[-1].startswith("# lln_distance = ")
    for line in lines[1:-1]:
        t, transition, n_r, n_h, n_c = line.split(",")
        assert transition in cm.TRANSITION_LABELS
        assert int(n_r) + int(n_h) + int(n_c) == 60
    assert float(lines[-1].rpartition("=")[2]) > 0.0


def test_ctmc_seed_override_changes_output(tmp_path):
    cfg = BASE_CFG + "t_end = 3\nN = 60\nreplications = 4\nseed = 5\n"
    _, out1 = run_cli(tmp_path, cfg, "ctmc")
    _, out2 = run_cli(tmp_path, cfg, "ctmc", "--seed", "6")
    assert out1 != out2


def test_ctmc_written_in_unaligned_blocks_matches_the_default(tmp_path, monkeypatch):
    # Counts are derived _COUNT_BLOCK events at a time and written
    # _CHUNK_ROWS rows at a time.  At 5 and 3 the two boundaries do not
    # align: each block of 5 rows is written as pieces of 3 and 2.
    cfg = BASE_CFG + "t_end = 3\nN = 60\nreplications = 2\nseed = 5\n"
    _, whole = run_cli(tmp_path, cfg, "ctmc")
    monkeypatch.setattr(simulate, "_COUNT_BLOCK", 5)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    pieces = []
    cli.cmd_ctmc(cli.parse_config(cfg), pieces.append)
    rows = [piece.count("\n") for piece in pieces[1:-1]]
    assert rows[:20] == [3, 2] * 10
    assert "".join(pieces).encode() == whole


def test_ctmc_event_cap_exit_code(tmp_path, capsys):
    # N = 100 at rate_scale 3: both horizons predict more than MAX_EVENTS events.
    for t_end in ("1e300", "40000"):
        rc, out = run_cli(tmp_path, BASE_CFG + f"N = 100\nt_end = {t_end}\n", "ctmc")
        assert rc == 2
        assert out == b""
        assert "events" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ("N = 100000000000000000\n", "numerical guard: N="),  # above 2**53
    ("N = 10000000000\nx0_C = 0.33333333238333333\n", "numerical failure: SimplexError"),
    ("N = 10000000000\nx0_C = 0.33333333413333333\n", "numerical failure: SimplexError"),
], ids=["N-1e17", "N-1e10-sum-below-1", "N-1e10-sum-above-1"])
def test_ctmc_population_it_cannot_hold_exits_2(tmp_path, capsys, extra, message):
    # x0_R = x0_H = 1/3, so x0 sums to 1 - 9.5e-10 or 1 + 8e-10, both accepted.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CFG + "x0_R = 0.3333333333333333\nx0_H = 0.3333333333333333\n"
                   "t_end = 1e-12\ndt = 1e-13\n" + extra)
    assert cli.main(["ctmc", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)


def test_ctmc_event_cap_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "MAX_EVENTS", 60)
    cfg = BASE_CFG + "N = 10\nreplications = 2\n"
    rc, out = run_cli(tmp_path, cfg + "t_end = 2\n", "ctmc")  # predicts exactly 60
    assert rc == 0
    assert out.decode().splitlines()[-1].startswith("# lln_distance = ")
    (tmp_path / "ctmc.out").unlink()
    rc, out = run_cli(tmp_path, cfg + f"t_end = {math.nextafter(2.0, 3.0)!r}\n", "ctmc")
    assert rc == 2
    assert out == b""


def test_ctmc_reference_ode_uses_configured_dt(tmp_path):
    # Every rate 1e-6: about 300 predicted events at N = 100, and dt = 1000
    # gives the reference ODE 1001 rows, where a step of 0.01 would ask for
    # 10**8.
    cfg = (BASE_CFG.replace("lambda = 1\nr = 1\nb = 1", "lambda = 1e-6\nr = 1e-6\nb = 1e-6")
           + "t_end = 1e6\ndt = 1000\nN = 100\nreplications = 3\n")
    rc, out = run_cli(tmp_path, cfg, "ctmc")
    assert rc == 0
    assert out.decode().splitlines()[-1].startswith("# lln_distance = ")


def test_ctmc_step_guard_fails_before_any_stream(tmp_path, capsys, monkeypatch):
    # Rate sum 22: the default dt = 0.01 exceeds the guard 0.1/22, while the
    # event bound 22 * 5000 * 20 is within MAX_EVENTS.
    def no_stream(*args):
        raise AssertionError("uniform stream opened")

    monkeypatch.setattr(simulate, "UniformStream", no_stream)
    cfg = BASE_CFG.replace("b = 1\n", "b = 20\n") + "N = 5000\nt_end = 20\n"
    rc, out = run_cli(tmp_path, cfg, "ctmc")
    assert rc == 2
    assert out == b""
    assert "stability guard" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_and_threshold_column(tmp_path):
    cfg = THREE_CFG + "sweep_param = b\nsweep_min = 0.1\nsweep_max = 1\nsweep_points = 10\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    lines = out.decode().splitlines()
    assert lines[0] == "param_value,x_bar,provenance,x_R,x_H,x_C,behavior,stability,residual,error"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) >= 10  # at least one equilibrium per grid point
    values = sorted({float(r[0]) for r in rows})
    assert values == pytest.approx(list(np.linspace(0.1, 1, 10)))
    for row in rows:
        p = cli.parse_config(THREE_CFG.replace("b = 0.2", f"b = {row[0]}")).params
        assert float(row[1]) == pytest.approx(cm.classifier_xbar(p).value, rel=1e-15)
        assert row[9] == ""  # no errors on this grid
        assert float(row[8]) <= 1e-9


def test_sweep_counts_transition_across_window(tmp_path):
    # Raising detection effort b kills the corrupt root and the interior
    # honest point, collapsing three equilibria to one.
    cfg = THREE_CFG + "sweep_param = b\nsweep_min = 0.2\nsweep_max = 2\nsweep_points = 2\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines()[1:]]
    by_value = {}
    for row in rows:
        by_value.setdefault(float(row[0]), []).append(row[2])
    assert len(by_value[0.2]) == 3
    assert len(by_value[2.0]) == 1
    assert by_value[2.0] == ["honest_boundary"]


def test_sweep_records_per_point_errors(tmp_path):
    cfg = THREE_CFG + "sweep_param = b\nsweep_min = 0\nsweep_max = 0.2\nsweep_points = 2\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines()[1:]]
    error_rows = [r for r in rows if r[9]]
    assert len(error_rows) == 1
    assert error_rows[0][0] == "0"
    assert "b > 0" in error_rows[0][9]
    assert any(not r[9] for r in rows)  # the valid point still produced rows
    # b = -0.1 and b = 0 of five points from -0.1 write error rows; every
    # real cell is its own "%.17g" text.
    cfg = cli.parse_config(THREE_CFG + _sweep("b", -0.1, 0.3, 5))
    want = _hand_sweep_rows(cfg.params, "b", cfg.sweep_grid)
    assert sum(row.endswith(",b > 0 violated") for row in want) == 2
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])


# q_soc = 0 sends every point through the scalar API, where the model's
# exceptions surface; the grid pass flags every point where they could.
SWEEP_CFG = (THREE_CFG.replace("q_soc = 0.5", "q_soc = 0")
             + "sweep_param = b\nsweep_min = 0.1\nsweep_max = 1\nsweep_points = 3\n")


@pytest.mark.parametrize("error", [cm.SimplexError, ArithmeticError])
def test_sweep_records_model_errors(tmp_path, monkeypatch, error):
    def failing(p, e):
        raise error("model failure")

    monkeypatch.setattr(cli, "classify_equilibrium", failing)
    rc, out = run_cli(tmp_path, SWEEP_CFG, "sweep")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines()[1:]]
    assert [r[9] for r in rows] == ["model failure"] * 3


def test_sweep_programming_error_propagates(tmp_path, monkeypatch):
    def broken(p, e):
        raise TypeError("not a model failure")

    monkeypatch.setattr(cli, "classify_equilibrium", broken)
    with pytest.raises(TypeError, match="not a model failure"):
        run_cli(tmp_path, SWEEP_CFG, "sweep")


def test_sweep_lambda_axis_maps_to_rate(tmp_path):
    cfg = THREE_CFG + "sweep_param = lambda\nsweep_min = 0.1\nsweep_max = 0.3\nsweep_points = 2\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines()[1:]]
    # interior honest point (b + lam) / (q_inf - q_soc) tracks the axis value
    interior = {float(r[0]): float(r[4]) for r in rows if r[2] == "honest_interior"}
    assert interior[0.1] == pytest.approx(0.3 / 1.5, abs=1e-12)
    assert interior[0.3] == pytest.approx(0.5 / 1.5, abs=1e-12)


def _hand_sweep_rows(base, field, grid):
    """Sweep rows built point by point, each real cell by format(v, ".17g").

    The grid's values are taken as Python floats: at a ``np.float64`` value
    ``** 0.5`` is numpy's power, which rounds as ``np.sqrt``, not as libm's
    ``pow``.
    """
    def g17(v):
        return format(v, ".17g")

    rows = []
    for value in np.asarray(grid, dtype=float).tolist():
        p = dataclasses.replace(base, **{field: value})
        try:
            reports = cm.enumerate_equilibria(p)
            verdicts = [cm.classify_equilibrium(p, rep) for rep in reports]
        except (cm.ParameterError, cm.SimplexError, ArithmeticError) as exc:
            rows.append(f"{g17(value)},,,,,,,,,{str(exc).replace(',', ';')}")
            continue
        for rep, verdict in zip(reports, verdicts):
            x_bar = rep.x_bar
            x_bar_cell = ("+inf" if x_bar > 0 else "-inf") if math.isinf(x_bar) else g17(x_bar)
            rows.append(",".join((
                g17(value), x_bar_cell, rep.provenance.value,
                g17(rep.state.x_R), g17(rep.state.x_H), g17(rep.state.x_C),
                rep.behavior.value, verdict.classification.value,
                g17(rep.residual), "",
            )))
    return rows


@pytest.mark.parametrize("axis", cli._SWEEP_AXES)
def test_sweep_matches_rows_built_per_point(tmp_path, axis):
    # The grid starts below zero, so every axis writes error rows, and passes
    # through 0, where q_soc = 0 puts x_bar at infinity.
    cfg = THREE_CFG + f"sweep_param = {axis}\nsweep_min = -0.2\nsweep_max = 3\nsweep_points = 17\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    field = "lam" if axis == "lambda" else axis
    grid = [float(v) for v in np.linspace(-0.2, 3.0, 17)]
    rows = _hand_sweep_rows(cli.parse_config(THREE_CFG).params, field, grid)
    assert any(row.endswith(" violated") for row in rows)
    header = "param_value,x_bar,provenance,x_R,x_H,x_C,behavior,stability,residual,error"
    assert out.decode() == "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("axis,lo,hi,message", [
    ("b", 0.3, -0.1, "b > 0 violated"),
    ("f", 0.2, -0.2, "f >= 0 violated"),
], ids=["b", "f"])
def test_descending_sweep_writes_its_error_rows_last(axis, lo, hi, message):
    # From sweep_min down to sweep_max, the invalid values come last.  b > 0
    # refuses the grid's rounded zero, -5.6e-17, and -0.1; f >= 0 takes its
    # exact 0.0 and refuses -0.1 and -0.2.
    cfg = cli.parse_config(THREE_CFG + _sweep(axis, lo, hi, 5))
    want = _hand_sweep_rows(cfg.params, axis, cfg.sweep_grid)
    assert [row for row in want if row.endswith(" violated")] == want[-2:]
    assert all(row.endswith("," + message) for row in want[-2:])
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])


def test_sweep_hands_only_a_valid_zero_to_the_scalar_path(monkeypatch):
    # The grid pass writes the error row of q_inf = -0.2 itself, and the rows
    # of the next point, exactly 0.0 and valid: no point takes the scalar path.
    calls, point_rows = [], cli._point_rows

    def counting(base, field, value):
        calls.append(value)
        return point_rows(base, field, value)

    monkeypatch.setattr(cli, "_point_rows", counting)
    cfg = cli.parse_config(THREE_CFG + _sweep("q_inf", -0.2, 3, 17))
    want = _hand_sweep_rows(cfg.params, "q_inf", cfg.sweep_grid)
    assert want[0].endswith(",q_inf >= 0 violated")
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])
    assert cfg.sweep_grid[1] == 0.0 and calls == []


def test_sweep_written_in_small_chunks_matches_one_piece(tmp_path, monkeypatch):
    # Rows are written every _CHUNK_ROWS rows; at 5 the 17 points' rows
    # (error rows and 1 to 3 equilibria per point) split across several
    # pieces, at the default they are one.
    cfg = THREE_CFG + "sweep_param = q_inf\nsweep_min = -0.2\nsweep_max = 3\nsweep_points = 17\n"
    _, whole = run_cli(tmp_path, cfg, "sweep")
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 5)
    pieces = []
    cli.cmd_sweep(cli.parse_config(cfg), pieces.append)
    assert len(pieces) > 3
    assert "".join(pieces).encode() == whole


_SWEEP_HEADER = "param_value,x_bar,provenance,x_R,x_H,x_C,behavior,stability,residual,error"


def _near_tie(p, field):
    """A value of ``field`` at which, for the rest of ``p``, x_bar = 1 (q_soc,
    b, f), Q's leading coefficient is 0 (q_inf) or the honest interior point
    sits on x_bar (lam), or None."""
    gain = p.r * (p.w_C - p.w_H) / (p.w_H - p.w_R + p.r * p.f)  # the bracket plus b
    if field == "q_soc":
        return gain - p.b
    if field == "b":
        return gain - p.q_soc
    if field == "f":
        return (p.r * (p.w_C - p.w_H) / (p.b + p.q_soc) - (p.w_H - p.w_R)) / p.r
    if field == "q_inf":
        return (p.r + p.lam) * p.q_soc / p.r
    if p.q_soc > 0.0 and p.q_inf > p.q_soc:
        return (gain - p.b) / p.q_soc * (p.q_inf - p.q_soc) - p.b
    return None


@st.composite
def _sweep_cases(draw):
    """A base over at most 12 decades, an axis, and a grid of 1 to 40 points,
    ascending or descending, that either crosses 0 or spans a narrow window
    around a near-tie."""
    p = draw(spread_params(max_span=12.0))
    axis = draw(st.sampled_from(cli._SWEEP_AXES))
    field = "lam" if axis == "lambda" else axis
    centre = _near_tie(p, field)
    if draw(st.booleans()) and centre is not None and 0.0 < centre < math.inf:
        width = centre * 10.0 ** draw(st.floats(-13.0, -6.0))
        lo, hi = centre - width, centre + width
    else:
        scale = getattr(p, field) or 1.0
        lo, hi = -scale * draw(st.floats(0.0, 1.0)), scale * draw(st.floats(0.01, 4.0))
    if draw(st.booleans()):
        lo, hi = hi, lo
    text = "".join(f"{key} = {getattr(p, name)!r}\n" for key, name in zip(
        cli._PARAM_KEYS, ("lam", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")))
    return text + _sweep(axis, repr(lo), repr(hi), draw(st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(_sweep_cases())
def test_sweep_grid_pass_writes_the_scalar_rows(text):
    # The grid pass must write the bytes of the per-point scalar rows, built
    # here, at every point it does not hand back to the scalar path.
    cfg = cli.parse_config(text)
    field = "lam" if cfg.sweep_param == "lambda" else cfg.sweep_param
    want = "\n".join([_SWEEP_HEADER, *_hand_sweep_rows(cfg.params, field, cfg.sweep_grid)])
    assert _first_difference(_text_of(cli.cmd_sweep, cfg), want + "\n") is None


def test_sweep_grid_longer_than_a_chunk_writes_the_scalar_rows():
    # 1,100 points go through the grid pass as blocks of 1,024 and 76 points.
    # The header and the error rows of lam <= 0 are one piece; the first
    # block's ~2,600 rows are three pieces of at most _CHUNK_ROWS rows, the
    # second block's one.  The grid crosses lam = 0 and the interior point's
    # entry to the simplex.
    cfg = cli.parse_config(THREE_CFG + _sweep("lambda", -0.1, 2, 1100))
    pieces = []
    cli.cmd_sweep(cfg, pieces.append)
    sizes = [len(piece.splitlines()) for piece in pieces]
    assert len(sizes) == 5 and max(sizes) <= cli._CHUNK_ROWS and min(sizes) > 0
    assert sizes[1] == sizes[2] == cli._CHUNK_ROWS and sizes[4] < sizes[3] / 2
    assert all(row.endswith(",lambda > 0 violated") for row in pieces[0].splitlines()[1:])
    want = "\n".join([_SWEEP_HEADER, *_hand_sweep_rows(cfg.params, "lam", cfg.sweep_grid)])
    assert _first_difference("".join(pieces), want + "\n") is None


def test_sweep_of_an_invalid_base_writes_the_scalar_error_rows():
    # parse_config validates the base; around a base it would refuse, every
    # point goes through the scalar API and writes its error row.
    cfg = cli.parse_config(THREE_CFG + _sweep("b", 0.1, 1, 4))
    cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, w_C=0.5))
    want = _hand_sweep_rows(cfg.params, "b", cfg.sweep_grid)
    assert len(want) == 4 and all(row.endswith(",w_C > w_H violated") for row in want)
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want]) + "\n"


@pytest.mark.parametrize("owner,name,value,base,axis,hi", [
    (hjb, "TIE_TOL", 0.05, THREE_CFG, "b", 0.6),
    (stability, "MARGIN", 0.2, THREE_CFG, "q_inf", 4),
    (equilibria, "DEGENERATE_LEADING", 0.5, THREE_CFG.replace("w_C = 1.275", "w_C = 3"),
     "q_inf", 4),
], ids=["TIE_TOL", "MARGIN", "DEGENERATE_LEADING"])
def test_sweep_reads_each_tolerance_from_its_owner(monkeypatch, owner, name, value, base,
                                                   axis, hi):
    # A tolerance changed in the module that owns it changes the grid pass's
    # rows as it changes the scalar API's: the pass keeps no copy of its own.
    cfg = cli.parse_config(base + _sweep(axis, 0, hi, 301))
    field = cfg.sweep_param
    before = _hand_sweep_rows(cfg.params, field, cfg.sweep_grid)
    monkeypatch.setattr(owner, name, value)
    want = _hand_sweep_rows(cfg.params, field, cfg.sweep_grid)
    assert want != before
    assert _first_difference(_text_of(cli.cmd_sweep, cfg),
                             "\n".join([_SWEEP_HEADER, *want, ""])) is None


def _unstable_where_decided(closed_form):
    """``closed_form`` with every verdict it decides read as unstable."""
    def patched(p, provenance, x, where):
        index, flag = closed_form(p, provenance, x, where)
        return where(index >= 0, 1, -1), flag
    return patched


def _root_gate_at(least):
    """``_candidates`` with the corrupt root existing only where x_bar > ``least``."""
    def patch(candidates):
        def patched(p, x_bar):
            root, interior, boundary = candidates(p, x_bar)
            return root & (x_bar > least), interior, boundary
        return patched
    return patch


def _b_rule_at(least):
    """``model._rules_hold`` with b's inequality moved to b > ``least``."""
    def patch(rules_hold):
        def patched(p):
            holds = rules_hold(p)
            return (*holds[:2], p.b > least, *holds[3:])
        return patched
    return patch


def _b_message(rules):
    """``model._RULES`` with the message of b's inequality reworded."""
    return tuple("b must be positive" if message == "b > 0 violated" else message
                 for message in rules)


@pytest.mark.parametrize("owner,name,patch,axis,hi", [
    (model, "_rules_hold", _b_rule_at(0.1), "b", 0.6),
    (model, "_RULES", _b_message, "b", 0.6),
    (equilibria, "_q_at", lambda q_at: lambda c, x_h: q_at(c, x_h) + 1e-9 * c[1], "b", 0.6),
    (equilibria, "_candidates", _root_gate_at(0.3), "b", 0.6),
    (equilibria, "_candidates", lambda candidates: lambda p, x_bar: (
        candidates(p, x_bar)[0], 2.0 * (p.b + p.lam) < p.q_inf - p.q_soc, True), "q_inf", 4),
    (hjb, "_regime_index", lambda index: lambda x_H, x_bar: index(x_H, x_bar - 0.1), "b", 0.6),
    (stability, "eigen_real_parts",
     lambda parts: lambda trace, det, sqrt, where: tuple(
         v + 100.0 for v in parts(trace, det, sqrt, where)), "q_inf", 4),
    (stability, "_boundary_eigenvalues",
     lambda _: lambda p: (100.0 - p.r, 100.0 + p.q_inf - p.q_soc - p.lam - p.b), "q_inf", 4),
    (stability, "_closed_form", _unstable_where_decided, "q_inf", 4),
], ids=["validity_rule", "validity_message", "_q_at", "root_gate", "interior_exists",
        "_regime_index", "eigen_real_parts", "_boundary_eigenvalues", "_closed_form"])
def test_sweep_reads_each_formula_from_its_owner(monkeypatch, owner, name, patch, axis, hi):
    # A formula patched in the module that owns it, and there alone, changes
    # the grid pass's rows as it changes the scalar API's: the pass keeps no
    # copy of validate_params's inequalities or messages, of Q, of the corrupt
    # root's x_bar > 0 gate, of the interior point's existence test, of the
    # regime index that admits each candidate, of the eigenvalue real parts,
    # of the boundary's exact pair or of the closed-form rules.
    # raising=False: where the owner lacks the name, the test fails below.
    cfg = cli.parse_config(THREE_CFG + _sweep(axis, 0, hi, 301))
    before = _hand_sweep_rows(cfg.params, axis, cfg.sweep_grid)
    monkeypatch.setattr(owner, name, patch(getattr(owner, name, None)), raising=False)
    want = _hand_sweep_rows(cfg.params, axis, cfg.sweep_grid)
    assert want != before
    assert _first_difference(_text_of(cli.cmd_sweep, cfg),
                             "\n".join([_SWEEP_HEADER, *want, ""])) is None


def test_sweep_hands_a_listed_state_off_the_simplex_to_the_scalar_path(monkeypatch):
    # The corrupt root's x_C is moved so that its x_R comes out near -1e-13
    # for b below 0.105, which PopulationState clamps to 0, and near -1e-11
    # above, which it refuses: an error row.  The grid pass must write the
    # scalar API's rows at both, with x_C patched in ``equilibria`` alone.
    def shifted_x_c(p, x_h):
        return 1.0 - x_h + (1e-13 + (p.b > 0.105) * 9.9e-12)

    monkeypatch.setattr(equilibria, "_corrupt_x_c", shifted_x_c)
    cfg = cli.parse_config(THREE_CFG + _sweep("b", 0.01, 0.21, 21))
    want = _hand_sweep_rows(cfg.params, "b", cfg.sweep_grid)
    roots = [row.split(",") for row in want if ",corrupt_root," in row]
    assert len(roots) == 10 and all(row[3] == "0" for row in roots)
    assert sum(",x_R = -1.0000" in row and row.endswith(" outside [0; 1]") for row in want) == 11
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])


def test_sweep_where_the_interior_x_c_divides_by_zero_writes_the_scalar_rows():
    # At rates near 1e-165, x_C**'s denominator (r + b) q_inf + (lam - r) q_soc
    # underflows to 0 wherever the interior point exists.  The scalar path
    # raises ZeroDivisionError there, an error row of the sweep; the grid pass,
    # whose arrays divide without raising, must hand those points off.
    values = (5e-166, 1e-165, 5e-166, 0.0, 1e-165, 3e-165, 0.0, 1e-165, 3e-165)
    base = "".join(f"{key} = {value!r}\n" for key, value in zip(cli._PARAM_KEYS, values))
    cfg = cli.parse_config(base + _sweep("q_inf", 2e-165, 4e-165, 9))
    with pytest.raises(ZeroDivisionError):
        cm.enumerate_equilibria(cfg.params)
    want = _hand_sweep_rows(cfg.params, "q_inf", cfg.sweep_grid)
    assert sum(row.endswith(",float division by zero") for row in want) == 8
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])


def test_sweep_grid_rows_with_every_cell_by_percent_match_the_scalar_rows(monkeypatch):
    # TOL = 0.5 sends every grid cell to _g17's "%" fallback; 700 points are
    # one block of the grid pass, written as the header with the error rows
    # of q_inf < 0, then the table rows as pieces of at most _CHUNK_ROWS rows.
    monkeypatch.setattr(_g17, "TOL", 0.5)
    cfg = cli.parse_config(THREE_CFG + _sweep("q_inf", -0.2, 4, 700))
    pieces = []
    cli.cmd_sweep(cfg, pieces.append)
    sizes = [len(piece.splitlines()) for piece in pieces]
    assert len(sizes) == 3 and sizes[1] == cli._CHUNK_ROWS and max(sizes) <= cli._CHUNK_ROWS
    want = "\n".join([_SWEEP_HEADER, *_hand_sweep_rows(cfg.params, "q_inf", cfg.sweep_grid)])
    assert _first_difference("".join(pieces), want + "\n") is None


def test_sweep_wholly_below_zero_hands_the_writer_no_row(monkeypatch):
    # Every point is invalid, so the grid pass writes every row as an error
    # row and hands the table writer no run of rows, not even an empty one.
    sizes, table_rows = [], cli._table_rows

    def counting(template, cells):
        sizes.append(len(cells[0]))
        return table_rows(template, cells)

    monkeypatch.setattr(cli, "_table_rows", counting)
    cfg = cli.parse_config(THREE_CFG + _sweep("b", -1, -0.5, 7))
    want = _hand_sweep_rows(cfg.params, "b", cfg.sweep_grid)
    assert len(want) == 7 and all(row.endswith(",b > 0 violated") for row in want)
    assert _text_of(cli.cmd_sweep, cfg) == "\n".join([_SWEEP_HEADER, *want, ""])
    assert sizes == []


def test_sweep_grid_rows_with_three_digit_exponents_match_the_scalar_rows():
    # THREE_CFG with every rate and wage times 1e-150: the swept values and
    # the residuals are written with three-digit exponents.
    base = _rates_times(1e-150).replace("w_H = 1\nw_C = 1.275",
                                        f"w_H = {1e-150!r}\nw_C = {1.275e-150!r}")
    cfg = cli.parse_config(base + _sweep("b", -1e-151, 1e-150, 400))
    want = _hand_sweep_rows(cfg.params, "b", cfg.sweep_grid)
    listed = [cells for cells in (row.split(",") for row in want) if cells[2]]
    assert len(listed) > 500 and all(cells[0][-5:-3] == "e-" for cells in listed)
    assert sum(cells[8][-5:-3] == "e-" for cells in listed) > 200
    assert _first_difference(_text_of(cli.cmd_sweep, cfg),
                             "\n".join([_SWEEP_HEADER, *want, ""])) is None


def test_grid_eigenvalues_are_bit_identical_to_the_scalar_verdicts():
    # The grid pass's trace, det, real parts and verdict index, taken on
    # arrays over the reports of random parameter sets, one array per
    # provenance, against classify_equilibrium's bits and verdicts.
    rng = np.random.default_rng(20261019)
    params, reports = [], []
    while len(reports) < 20_000:
        p = random_params(rng)
        for rep in cm.enumerate_equilibria(p):
            params.append(p)
            reports.append(rep)
    verdicts = [cm.classify_equilibrium(p, rep) for p, rep in zip(params, reports)]
    column = lambda values: np.array(list(values), dtype=float)  # noqa: E731
    bits = lambda values: column(values).view(np.uint64)  # noqa: E731
    for provenance in cm.Provenance:
        at = [i for i, rep in enumerate(reports) if rep.provenance is provenance]
        assert len(at) > 1000
        grid_params = cm.ModelParams(**{name: column(getattr(params[i], name) for i in at)
                                        for name in ("lam", "r", "b", "f", "q_soc", "q_inf",
                                                     "w_R", "w_H", "w_C")})
        states = SimpleNamespace(**{name: column(getattr(reports[i].state, name) for i in at)
                                    for name in ("x_R", "x_H", "x_C")})
        profiles = SimpleNamespace(u_H=column(reports[i].strategy.u_H for i in at),
                                   u_C=column(reports[i].strategy.u_C for i in at))
        trace, det = stability._trace_det(grid_params, states, profiles)
        assert (trace.view(np.uint64) == bits(verdicts[i].trace for i in at)).all()
        assert (det.view(np.uint64) == bits(verdicts[i].det for i in at)).all()
        parts = stability.eigen_real_parts(trace, det, np.sqrt, np.where)
        for j in range(2):
            assert (parts[j].view(np.uint64)
                    == bits(verdicts[i].eigen_real_parts[j] for i in at)).all()
        closed, _ = stability._closed_form(grid_params, provenance, states, np.where)
        index = stability._verdict_index(closed, parts, np.where)
        assert index.tolist() == [stability._CLASSIFICATIONS.index(verdicts[i].classification)
                                  for i in at]
    # Wherever this platform's pow(x, 0.5) misrounds at all, the reports hold
    # discriminants where it does, so the bits above are checked there too.
    discs = [v.trace * v.trace - 4.0 * v.det for v in verdicts]
    pow_rows = sum(d >= 0.0 and d**0.5 != math.sqrt(d) for d in discs)
    samples = np.random.default_rng(0).uniform(0.01, 100.0, 200_000).tolist()
    if any(v**0.5 != math.sqrt(v) for v in samples):
        assert pow_rows > 0


def test_sweep_whose_span_overflows_gets_a_finite_grid(tmp_path, capsys):
    # sweep_max - sweep_min overflows to inf; the grid of the halved bounds,
    # doubled, is the exact grid, and no numpy warning is raised on the way.
    cfg = THREE_CFG + "sweep_param = f\nsweep_min = -1e308\nsweep_max = 1e308\nsweep_points = 5\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.parse_config(cfg).sweep_grid.tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
        rc, out = run_cli(tmp_path, cfg, "sweep")
    assert caught == []
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in out.decode().splitlines()[1:]]
    assert list(dict.fromkeys(row[0] for row in rows)) == [
        "-1e+308", "-5.0000000000000001e+307", "0", "5.0000000000000001e+307", "1e+308"]
    assert [row[9] for row in rows if row[9]] == ["f >= 0 violated"] * 2
    parsed = cli.parse_config(cfg)
    want = _hand_sweep_rows(parsed.params, "f", parsed.sweep_grid)
    assert out.decode() == "\n".join([_SWEEP_HEADER, *want, ""])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=_FINITE, hi=_FINITE, points=st.integers(1, 40))
@example(lo=-1.7976931348623157e308, hi=1.7976931348623157e308, points=2)
@example(lo=1e308, hi=-1e308, points=7)
@example(lo=0.0, hi=1.7976931348623157e308, points=4)
def test_sweep_grid_is_linspace_wherever_the_span_is_finite(lo, hi, points):
    cfg = THREE_CFG + (f"sweep_param = b\nsweep_min = {lo!r}\nsweep_max = {hi!r}\n"
                       f"sweep_points = {points}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = np.array(cli.parse_config(cfg).sweep_grid)
    assert np.isfinite(grid).all() and grid[0] == lo and grid[-1] == (hi if points > 1 else lo)
    if math.isfinite(hi - lo):
        with np.errstate(over="ignore"):
            assert grid.tobytes() == np.linspace(lo, hi, points).tobytes()
    else:
        ascending = lo < hi
        assert (grid[1:] >= grid[:-1]).all() == ascending
        assert (grid[1:] <= grid[:-1]).all() != ascending


def test_sweep_requires_grid(tmp_path):
    rc, _ = run_cli(tmp_path, THREE_CFG, "sweep")
    assert rc == 1


def test_sweep_points_cap_fails_before_the_grid_is_built(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("sweep grid built")

    monkeypatch.setattr(np, "linspace", no_grid)
    cfg = THREE_CFG + "sweep_param = b\nsweep_min = 0.1\nsweep_max = 1\n"
    rc, out = run_cli(tmp_path, cfg + "sweep_points = 100000000000\n", "sweep")
    assert rc == 2
    assert out == b""
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: ") and err.count("\n") == 1
    assert "sweep_points" in err


def test_sweep_points_cap_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
    cfg = THREE_CFG + "sweep_param = b\nsweep_min = 0.1\nsweep_max = 1\n"
    rc, out = run_cli(tmp_path, cfg + "sweep_points = 3\n", "sweep")
    assert rc == 0
    assert len({line.split(",")[0] for line in out.decode().splitlines()[1:]}) == 3
    (tmp_path / "sweep.out").unlink()
    rc, out = run_cli(tmp_path, cfg + "sweep_points = 4\n", "sweep")
    assert rc == 2
    assert out == b""


# ---------------------------------------------------------------------------
# exit codes and stdout path


def test_missing_config_is_validation_error(tmp_path, capsys):
    for command in ("classify", "equilibria"):
        rc = cli.main([command, "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("simulate", ""),
    ("simulate", "t_end = 1\n"),
    ("ctmc", "N = 50\nt_end = 1\nreplications = 1\n"),
    ("sweep", "sweep_param = b\nsweep_min = 0.1\nsweep_max = 1\nsweep_points = 3\n"),
])
def test_structured_format_of_a_csv_command_is_refused(tmp_path, capsys, command, extra):
    # Only classify and equilibria write a JSON document; the CSV commands
    # refuse format = structured, from the config or the flag, before any
    # output: exit 1, one error line, no stdout and no --out file.
    for cfg_text, flags in ((THREE_CFG + extra + "format = structured\n", ()),
                            (THREE_CFG + extra, ("--format", "structured"))):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "refused.out"
        for argv in (["--out", str(out)], []):
            assert cli.main([command, "--config", str(cfg), *argv, *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "structured" in captured.err
            assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bogus", "--config", "run.cfg"],
    ["ctmc"],
    ["ctmc", "--config", "run.cfg", "--seed", "x"],
], ids=["unknown-command", "missing-config", "non-integer-seed"])
def test_usage_error_is_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("error", [ArithmeticError, cm.SimplexError])
def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch, error):
    def failing(p):
        raise error("expected one root\nof Q")

    monkeypatch.setattr(cli, "enumerate_equilibria", failing)
    rc, out = run_cli(tmp_path, THREE_CFG, "equilibria")
    assert rc == 2
    assert out == b""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "expected one root of Q" in err


# Valid rates so large that the corrupt root's x_R = 1 - x_H - x_C is NaN.
OVERFLOW_CFG = BASE_CFG.replace("lambda = 1\nr = 1\nb = 1\n",
                                "lambda = 1e155\nr = 1e155\nb = 1e155\n")


def test_state_off_the_simplex_is_a_numerical_failure(tmp_path, capsys):
    rc, out = run_cli(tmp_path, OVERFLOW_CFG, "equilibria")
    assert rc == 2
    assert out == b""
    err = capsys.readouterr().err
    assert err == "numerical failure: SimplexError: x_R = nan outside [0, 1]\n"


def test_equilibria_on_twelve_decades_ends_with_a_message(tmp_path, capsys):
    # Rates spread over about 12 decades, where the corrupt root search can
    # find no root in (0, 1).
    cfg = (
        "lambda = 1.0978132263542409e-07\nr = 469715209026.1259\nb = 301907984607.55853\n"
        "f = 0\nq_soc = 326762.8996232763\nq_inf = 0.23761210498252988\n"
        "w_R = 0.683954349738548\nw_H = 0.9408848512268297\nw_C = 2.287832093913644\n"
    )
    rc, _ = run_cli(tmp_path, cfg, "equilibria")
    assert rc in (0, 2)
    if rc == 2:
        assert "Traceback" not in capsys.readouterr().err


def test_equilibria_with_threshold_just_above_one(tmp_path):
    # x_bar = 1.0000000000000877, where Q(1) as alpha + beta + gamma cancels
    # below zero; the corrupt root and the indifferent boundary are reported.
    cfg = (
        "lambda = 1.1321089947803766e-11\nr = 2.356079783654354\nb = 8.425797874025928\n"
        "f = 0\nq_soc = 0.05400138051743457\nq_inf = 58302076.19514815\n"
        "w_R = 1.1946331665040993e-09\nw_H = 1.7478904473180236e-09\n"
        "w_C = 3.739126359601064e-09\n"
    )
    rc, out = run_cli(tmp_path, cfg, "equilibria")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines() if not l.startswith("#")][1:]
    assert [(row[1], row[5]) for row in rows] == [
        ("corrupt_root", "corrupt"), ("honest_boundary", "indifferent"),
    ]


def test_classify_agrees_with_equilibria_just_above_one(tmp_path):
    # x_bar = 1.0000000000000877 is inside the tie band of x_H = 1, so the
    # honest boundary is listed (indifferent) and classify must not read the
    # corrupt root as unique.
    cfg = (
        "lambda = 1.1321089947803766e-11\nr = 2.356079783654354\nb = 8.425797874025928\n"
        "f = 0\nq_soc = 0.05400138051743457\nq_inf = 58302076.19514815\n"
        "w_R = 1.1946331665040993e-09\nw_H = 1.7478904473180236e-09\n"
        "w_C = 3.739126359601064e-09\n"
    )
    rc, out = run_cli(tmp_path, cfg, "classify")
    assert rc == 0
    assert out.decode().splitlines() == [
        "x_bar = 1.0000000000000877",
        "regime: honest boundary equilibrium present; corrupt root admissible iff Q(x_bar) >= 0",
    ]
    rc, out = run_cli(tmp_path, cfg, "equilibria")
    assert rc == 0
    assert ",honest_boundary," in out.decode()


def test_equilibria_with_corrupt_root_at_the_tie_band_edge(tmp_path):
    # x_H* - x_bar = 1.0000000003e-9, just above the tie band: by best_response's
    # comparisons the root is indifferent, while Q(x_bar) < 0 says honest.  It
    # is listed as a tie and this exits 0.
    cfg = (
        "lambda = 0.24328302554051565\nr = 0.5475697326642243\nb = 0.3147943156030476\n"
        "f = 0\nq_soc = 43.39007952972478\nq_inf = 24.015209055488356\n"
        "w_R = 0.01506310918079311\nw_H = 81.54305879793007\nw_C = 3355.3743151454273\n"
    )
    rc, out = run_cli(tmp_path, cfg, "equilibria")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines() if not l.startswith("#")][1:]
    assert [(row[1], row[5]) for row in rows] == [
        ("corrupt_root", "indifferent"), ("honest_boundary", "honest"),
    ]


def test_equilibria_indifferent_everywhere_lists_the_interior_point(tmp_path):
    # q_soc = 0 and a zero classifier bracket, r (w_C - w_H) / (w_H - w_R + r f)
    # - b = 1 - 1: every x is a tie, and the interior point (0.3, 0.4, 0.3) is
    # stationary because q_inf = 5 > b + lam.
    cfg = "lambda = 1\nr = 1\nb = 1\nf = 0\nq_soc = 0\nq_inf = 5\nw_R = 0\nw_H = 1\nw_C = 2\n"
    rc, out = run_cli(tmp_path, cfg, "equilibria")
    assert rc == 0
    text = out.decode()
    assert text.startswith("# 3 equilibria\n")
    assert "honest_interior,0.29999999999999999,0.40000000000000002,0.29999999999999999," \
           "indifferent" in text


@pytest.mark.parametrize("case", [
    "out-is-a-directory", "out-under-a-missing-directory", "config-is-a-directory",
    "config-not-utf8",
])
def test_file_errors_exit_1_with_one_line(tmp_path, capsys, case):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(BASE_CFG.encode() + (b"# caf\xe9\n" if case == "config-not-utf8" else b""))
    out = tmp_path / "answer.out"
    if case == "out-is-a-directory":
        out.mkdir()
    elif case == "out-under-a-missing-directory":
        out = tmp_path / "missing" / "answer.out"
    elif case == "config-is-a-directory":
        cfg = tmp_path / "configs"
        cfg.mkdir()
    rc = cli.main(["classify", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Runs that fail after parsing, each on a guard or a numerical failure that
# fires before the command formats anything.
FAILED_RUNS = {
    "simulate-step-guard": ("simulate", BASE_CFG + "dt = 0.05\n"),
    "simulate-row-cap": ("simulate", BASE_CFG + "dt = 0.03125\nt_end = 312500\n"),
    "ctmc-above-2**53": ("ctmc", THREE_CFG + "N = 100000000000000000\nt_end = 1e-12\n"
                                             "dt = 1e-13\n"),
    "ctmc-event-bound": ("ctmc", BASE_CFG + "N = 100\nt_end = 40000\n"),
    "equilibria-off-the-simplex": ("equilibria", OVERFLOW_CFG),
}


@pytest.mark.parametrize("existing", [False, True], ids=["no-out-file", "existing-out-file"])
@pytest.mark.parametrize("name", sorted(FAILED_RUNS))
def test_failed_run_writes_nothing(tmp_path, capsys, name, existing):
    command, text = FAILED_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "answer.out"
    earlier = b"an earlier answer\n"
    if existing:
        out.write_bytes(earlier)
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if existing:
        assert out.read_bytes() == earlier
    else:
        assert not out.exists()


def test_stdout_output(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE_CFG)
    rc = cli.main(["classify", "--config", str(cfg)])
    assert rc == 0
    assert "x_bar" in capsys.readouterr().out
    # Stdout gets the bytes --out gets: a ctmc table past the 4,096-event
    # count block, and states that decay through three-digit exponents.
    outs = {}
    for command, text in (("ctmc", SMALL_CTMC_CFG),
                          ("simulate", WIDE_CFGS["simulate-subnormal-states"])):
        rc, outs[command] = run_cli(tmp_path, text, command)
        assert rc == 0
        assert cli.main([command, "--config", str(tmp_path / "run.cfg")]) == 0
        assert capsys.readouterr().out.encode() == outs[command]
    lines = outs["ctmc"].decode().splitlines()
    assert lines[0] == "t,transition,n_R,n_H,n_C" and len(lines) > 4098
    assert re.match(r"# lln_distance = [0-9]", lines[-1])


# ---------------------------------------------------------------------------
# byte-identical table output

X0_CFG = "x0_R = 0.2\nx0_H = 0.5\nx0_C = 0.3\n"
# Two replications of ~5,900 events each.
SMALL_CTMC_CFG = THREE_CFG + "N = 1000\nt_end = 10\nreplications = 2\n"
CTMC_CFG = THREE_CFG + X0_CFG + "N = 1000\nreplications = 3\nt_end = 10\nseed = 2024\n"

# THREE_CFG with every rate scaled by 1e-6 or 1e+6, dt and t_end scaled back.
THREE_SLOW_CFG = (
    THREE_CFG.replace("lambda = 0.1\nr = 1\nb = 0.2", "lambda = 1e-7\nr = 1e-6\nb = 2e-7")
    .replace("q_soc = 0.5\nq_inf = 2", "q_soc = 5e-7\nq_inf = 2e-6")
    + X0_CFG + "dt = 1e4\nt_end = 2e7\n"
)
THREE_FAST_CFG = (
    THREE_CFG.replace("lambda = 0.1\nr = 1\nb = 0.2", "lambda = 1e5\nr = 1e6\nb = 2e5")
    .replace("q_soc = 0.5\nq_inf = 2", "q_soc = 5e5\nq_inf = 2e6")
    + X0_CFG + "dt = 1e-8\nt_end = 2e-5\n"
)
CORNER_CFG = THREE_CFG + "x0_R = 0\nx0_H = 0\nx0_C = 1\nt_end = 20\n"

# sha256 of the output of each (command, config), recorded before table rows
# were formatted in chunks and before ctmc reused its stream-0 path.  The
# rate-scaled and corner-state simulate digests were recorded before the RK4
# drift was written inline in integrate_ode.
GOLDEN = [
    ("simulate", THREE_CFG + X0_CFG + "strategy = corrupt\nt_end = 20\n",
     "a6df84f77303c34513d101e4905cb9e4c53fba51adac0e8dbc89a4da6fa597a7"),
    ("simulate", THREE_CFG + X0_CFG + "strategy = honest\nt_end = 20\n",
     "21b9415e1cbb33ffdfb0fa1d2e59d6b65b067a91b8c0e248ac7f5b19b2fb6806"),
    ("ctmc", CTMC_CFG + "strategy = corrupt\n",
     "2060984147a7d2c2c48a59d48ce378c70d775f03f5b771794d8f00f84df26b52"),
    ("ctmc", CTMC_CFG + "strategy = honest\n",
     "42472230ea0413c43350db90b83c9ce715c1344fb662bed86d12a3619b1e9749"),
    ("sweep", THREE_CFG + "sweep_param = q_inf\nsweep_min = -0.2\nsweep_max = 4\n"
     "sweep_points = 300\n",
     "6dc865c8f84a4b69493bad48997bfb0834761fb4ec15688b5e67b8a91226ee3b"),
    ("simulate", THREE_SLOW_CFG + "strategy = corrupt\n",
     "b8d947d5f09160d017fd99024c75080189442b5127789f6dc42db173ba3343a4"),
    ("simulate", THREE_SLOW_CFG + "strategy = honest\n",
     "3da3abdb54fcd338712d1b4bb71b3266bbb3400b16254e26ff1bcb65dd14ccd1"),
    ("simulate", THREE_FAST_CFG + "strategy = corrupt\n",
     "0ac963d1fbc8d816eeb54b8b554dc1bebccd86663173f1e5564ddb9188d40738"),
    ("simulate", THREE_FAST_CFG + "strategy = honest\n",
     "78a4b486d0857cdfe7d72b1e8fe598d6428cee8a559f712fbb7286954ae23ff7"),
    ("simulate", CORNER_CFG + "strategy = corrupt\n",
     "bc6d42b5a8f1b712bd2cad8aeca9b845f8fbd7900c922bbe37f089b4d528dec9"),
    ("simulate", CORNER_CFG + "strategy = honest\n",
     "fff78fdbdd5e226498c44f1f944e4573af1596eaf47bede898c2d7199d6f484b"),
]
GOLDEN_IDS = ["simulate-corrupt", "simulate-honest", "ctmc-corrupt", "ctmc-honest", "sweep",
              "simulate-slow-corrupt", "simulate-slow-honest", "simulate-fast-corrupt",
              "simulate-fast-honest", "simulate-corner-corrupt", "simulate-corner-honest"]

# simulate tables that end in a long run of one bit-identical state, recorded
# before integrate_ode stopped at an exact fixed point and before cmd_simulate
# formatted that state once: THREE_EQ to t_end = 200 (settled from about row
# 3,600 of 20,001), the interaction-free baseline from thirds (constant from
# row 0) and the honest boundary from x0_R = -0.0 (row 0 prints -0, rows 1 on
# are one settled state).
SETTLED_CFGS = {
    "settled-corrupt": THREE_CFG + X0_CFG + "strategy = corrupt\nt_end = 200\n",
    "settled-honest": THREE_CFG + X0_CFG + "strategy = honest\nt_end = 200\n",
    "settled-baseline": BASE_CFG + "t_end = 50\n",
    "settled-negative-zero": THREE_CFG + "x0_R = -0.0\nx0_H = 1\nx0_C = 0\nstrategy = honest\n"
                             "t_end = 1\n",
}
SETTLED_DIGESTS = {
    "settled-corrupt": "de93b912751f0802788bf855f07649f961bcfbcd0ad2b65c3b25696d8059b556",
    "settled-honest": "7d5132a383601d81de663120bbeb669a478dcbfad030132382379089edc28277",
    "settled-baseline": "cd0ac380d5f0bfc50e1025ae15e052ed2d5e1a4e3d19b8e74b459934ab8ba2ca",
    "settled-negative-zero": "417240002adc64abb6b36ce57855a0b47c15b8a7d1830f084ae00afa5ae6f91c",
}
for name, digest in SETTLED_DIGESTS.items():
    GOLDEN.append(("simulate", SETTLED_CFGS[name], digest))
    GOLDEN_IDS.append(f"simulate-{name}")

# classify and equilibria on four configs, recorded before either command's
# rendering was shared between its two formats: three equilibria, an infinite
# threshold with a discounted one, the indifferent-everywhere corner
# (q_soc = 0, zero bracket) and the x_bar = 1 tie.  The structured digests
# of the two infinite-threshold configs were re-recorded when an infinite
# threshold became the string "+inf" instead of the non-standard Infinity.
ANSWER_CFGS = {
    "three": THREE_CFG,
    "base-delta": BASE_CFG + "delta = 1\n",
    "indifferent": BASE_CFG.replace("w_C = 10", "w_C = 2"),
    "tie": BASE_CFG.replace("q_soc = 0", "q_soc = 1").replace("w_C = 10", "w_C = 3"),
}
ANSWER_DIGESTS = {
    ("classify", "three", "csv"):
        "bb26c61202f4cc86aedfb481d423114713c5df59b4fae43f58bb39caebcb5e3e",
    ("classify", "three", "structured"):
        "6e451e0614a438042e9c1de814cdf7b159b3e17bd1d1f4bd120f2957c79e77f6",
    ("classify", "base-delta", "csv"):
        "09bf479804ae7c2571e75cbf4677e157af5d960c5a7d4c3c4dbca495e9735767",
    ("classify", "base-delta", "structured"):
        "378e43490f8ab5a251c20a79af0ad243873d4b611cee6a8d210c302475622632",
    ("classify", "indifferent", "csv"):
        "b3a9dbe52fb885463b884d49e9b06a174f4a0203c242e39acd231d977a18b76e",
    ("classify", "indifferent", "structured"):
        "def38cd47a7ff138339e61ecd1b4901ff0f6701ab66a9b82e4f046de5752bd8b",
    ("classify", "tie", "csv"):
        "2aace5961f886c39bf70ea790fbc54221183847a982954a73b12071aa70c5411",
    ("classify", "tie", "structured"):
        "6a7ca6216514a9fbfb053a40664922f9f8e1fd08b33874402a47520eb7f7f3ee",
    ("equilibria", "three", "csv"):
        "058b34cf674cd9112662329a7080c456e52d3f5d3b1a357e29f8de1d829aa853",
    ("equilibria", "three", "structured"):
        "3eea2e590ff49d986e944fd432f994644e1a6bcf9438702d0b8c764fc11acde5",
    ("equilibria", "base-delta", "csv"):
        "d31039fe4cf4891c8b32b8c401e3bd40083a9c75696c794d0d88bf0f2c29bbeb",
    ("equilibria", "base-delta", "structured"):
        "d5bf4dc84db326c4d90a077927865acc87318209f7d15a02eb4fdf4aaf57d309",
    ("equilibria", "indifferent", "csv"):
        "a635748ffb216c2927a3752895995942d9007ca82a085cccda68b8ab25f3e11a",
    ("equilibria", "indifferent", "structured"):
        "d0b42b77908c9df2863cc055b9a17f4ab559aa27686688a703358320a52bbd99",
    ("equilibria", "tie", "csv"):
        "55acc9144cdfecfb749074a5a4266bc0ece5dea4ab6625e06b776621c7f79efd",
    ("equilibria", "tie", "structured"):
        "fe214579bac60545f7acdb1a8b68494cd5b34e337b8af34bc5cfeee3cfffecca",
}
for (command, name, fmt), digest in ANSWER_DIGESTS.items():
    GOLDEN.append((command, ANSWER_CFGS[name] + f"format = {fmt}\n", digest))
    GOLDEN_IDS.append(f"{command}-{name}-{fmt}")


# Cells no other golden holds, recorded before tables were formatted with
# numpy: (a) 33,334 rows whose states decay through 55,301 three-digit
# exponents down to e-323, 31,354 of them below 1e-307; (b) times from
# 1e+18 to 1e+21; (c) counts of one to five digits.
WIDE_CFGS = {
    "simulate-subnormal-states": BASE_CFG.replace("w_C = 10", "w_C = 1.5")
                                 + "strategy = honest\ndt = 0.03\nt_end = 1000\n",
    "simulate-times-to-e21": "lambda = 1e-20\nr = 1e-20\nb = 1e-20\nf = 0\nq_soc = 1e-20\n"
                             "q_inf = 1e-20\nw_R = 0\nw_H = 1\nw_C = 1.275\n"
                             "dt = 1e18\nt_end = 1e21\n",
    "ctmc-five-digit-counts": THREE_CFG + "x0_R = 0\nx0_H = 1\nx0_C = 0\nN = 20000\nt_end = 1\n"
                              "replications = 1\n",
}
WIDE_DIGESTS = {
    "simulate-subnormal-states": "1817e825836f117ff853b487e439740d972155f4bcb474fbee71f4ae003c84c1",
    "simulate-times-to-e21": "564b6623f945aa65ede89e04a37a0287f79e079c0181273e89dbace25468b7b0",
    "ctmc-five-digit-counts": "0b43a4a5ddf09da619e035cd70590e7693f3aae1cba34b062fc446e85c2afa65",
}
for name, digest in WIDE_DIGESTS.items():
    GOLDEN.append((name.split("-")[0], WIDE_CFGS[name], digest))
    GOLDEN_IDS.append(name)


# Sweeps recorded while every point was evaluated by the scalar API, on the
# cases a grid evaluator must hand back to it.  ZERO_CFG has q_soc = 0 and the
# classifier bracket 1 - b, so each axis on its 33-point dyadic grid from -1
# to 3 passes through 0 and writes error rows, +inf and -inf thresholds and,
# at b = 1 and f = 1, the indifferent-everywhere corner.  q_inf = 0.55 is
# 1.1 q_soc on THREE_CFG, where Q's leading coefficient is exactly 0.  The tie
# grids cross the band of the honest boundary (x_bar = 1 / q_soc on TIE_CFG)
# and of the corrupt root (EDGE_CFG).  At rates near 1e150 Q's discriminant
# overflows at every point; near 1e75 it does once q_inf passes ~1.3e79.
ZERO_CFG = "lambda = 1\nr = 1\nb = 0.5\nf = 0\nq_soc = 0\nq_inf = 1\nw_R = 0\nw_H = 1\nw_C = 2\n"
TIE_CFG = "lambda = 1\nr = 1\nb = 1\nf = 0\nq_soc = 1\nq_inf = 0\nw_R = 0\nw_H = 1\nw_C = 3\n"
EDGE_CFG = (
    "lambda = 0.24328302554051565\nr = 0.5475697326642243\nb = 0.3147943156030476\n"
    "f = 0\nq_soc = 43.39007952972478\nq_inf = 24.015209055488356\n"
    "w_R = 0.01506310918079311\nw_H = 81.54305879793007\nw_C = 3355.3743151454273\n"
)


def _rates_times(scale):
    """THREE_CFG with every rate multiplied by ``scale``."""
    return (THREE_CFG.replace("lambda = 0.1\nr = 1\nb = 0.2",
                              f"lambda = {0.1 * scale!r}\nr = {scale!r}\nb = {0.2 * scale!r}")
            .replace("q_soc = 0.5\nq_inf = 2", f"q_soc = {0.5 * scale!r}\nq_inf = {2 * scale!r}"))


def _sweep(axis, lo, hi, points):
    return f"sweep_param = {axis}\nsweep_min = {lo}\nsweep_max = {hi}\nsweep_points = {points}\n"


SWEEP_CFGS = {
    **{f"sweep-zero-{axis}": ZERO_CFG + _sweep(axis, -1, 3, 33) for axis in cli._SWEEP_AXES},
    "sweep-alpha-zero": THREE_CFG + _sweep("q_inf", 0, 4.4, 257),
    "sweep-boundary-tie": TIE_CFG + _sweep("q_soc", 0.999999997, 1.000000003, 25),
    "sweep-root-tie": EDGE_CFG + _sweep("q_soc", 43.3900790, 43.3900800, 41),
    "sweep-rates-1e150": _rates_times(1e150) + _sweep("q_inf", -1e150, 4e150, 41),
    "sweep-rates-1e75": _rates_times(1e75) + _sweep("q_inf", -1e77, 4e79, 41),
}
SWEEP_DIGESTS = {
    "sweep-zero-b": "a058a11010b5972fb7ca3df1558a861a2b55b734966f06d73e1c5aeba5997c96",
    "sweep-zero-f": "0658d2f0bc8c41bd9b2d7b727f4c205238cde86af800f09f3e975245d6fcbf12",
    "sweep-zero-q_soc": "fa00f63132654916388aca5945139ca111736b4610d7fd5cbe4744cdc01e225f",
    "sweep-zero-q_inf": "46c5b363c89df4eb915dac747d7dee856f8d95fb8eed323bb23da8f384440627",
    "sweep-zero-lambda": "b0e8806bed2076132c88d9642fc8f72e465ab97815ea510bf2ad182065506af1",
    "sweep-alpha-zero": "da01fd1ca93a51d28f9435f851641f17edfd13f837a84835b8081d3bb369e42e",
    "sweep-boundary-tie": "62d6116da7e5bc6db25f0f5410a48d766d278dd481207bca4f2d36d4ca12f4ba",
    "sweep-root-tie": "e405fe26a9914bdeb11ff7a27eeb6055a78bc0f99d2f7a8d78e5f69923b29257",
    "sweep-rates-1e150": "c02c3bfd3733a0405b4a621879dccdf56c494c94164129db5d97f1b486aafe22",
    "sweep-rates-1e75": "589daa69d8eda4afcc134d87e315fcf3e80b852bfafee07d90d358cc0d07ff5c",
}
for name, digest in SWEEP_DIGESTS.items():
    GOLDEN.append(("sweep", SWEEP_CFGS[name], digest))
    GOLDEN_IDS.append(name)


def test_sweep_goldens_hold_the_cases_they_name():
    # What each grid above was chosen for is really on it.
    def rows(name):
        return [line.split(",") for line in _text_of(cli.cmd_sweep, cli.parse_config(
            SWEEP_CFGS[name])).splitlines()[1:]]

    zero_b = rows("sweep-zero-b")
    assert {row[1] for row in zero_b if not row[9]} == {"+inf", "-inf"}
    assert any(row[0] == "1" and row[6] == "indifferent" for row in zero_b)
    assert any(row[9] == "b > 0 violated" for row in zero_b)
    alpha = cli.parse_config(SWEEP_CFGS["sweep-alpha-zero"])
    assert alpha.sweep_grid[32] == 0.55
    assert cm.q_coefficients(dataclasses.replace(alpha.params, q_inf=0.55))[0] == 0.0
    for name, provenance in (("sweep-boundary-tie", "honest_boundary"),
                             ("sweep-root-tie", "corrupt_root")):
        assert any(row[2] == provenance and row[6] == "indifferent" for row in rows(name))
    overflow = "expected one root of Q in (0;1); got []"
    assert {row[9] for row in rows("sweep-rates-1e150")} == {"q_inf >= 0 violated", overflow}
    assert {row[9] for row in rows("sweep-rates-1e75")} == {"", "q_inf >= 0 violated", overflow}


@pytest.mark.parametrize("name,sizes", [
    *((f"sweep-zero-{axis}", []) for axis in ("b", "f", "q_inf", "lambda")),
    ("sweep-alpha-zero", [514]),
])
def test_sweep_formats_its_listed_rows_once_around_hand_offs(monkeypatch, name, sizes):
    # A base with q_soc = 0 hands every valid point of these four axes to the
    # scalar path: no rows are formatted, not once per point nor as an empty
    # piece, and the 33 points are one piece of text.  On sweep-alpha-zero the
    # degenerate point q_inf = 0.55 is handed off between listed rows; its
    # scalar rows cut the formatted piece, which still takes one call.
    calls, table_rows = [], cli._table_rows

    def counting(template, cells):
        calls.append(len(cells[0]))
        return table_rows(template, cells)

    monkeypatch.setattr(cli, "_table_rows", counting)
    pieces = []
    cli.cmd_sweep(cli.parse_config(SWEEP_CFGS[name]), pieces.append)
    assert calls == sizes
    if sizes:
        assert any(piece.startswith("0.55000000000000004,") for piece in pieces[1:])
    else:
        assert len(pieces) == 1


@pytest.mark.parametrize("command,cfg,digest", GOLDEN, ids=GOLDEN_IDS)
def test_output_matches_golden_digest(tmp_path, command, cfg, digest):
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == 0
    assert hashlib.sha256(out).hexdigest() == digest


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", ["classify", "equilibria"])
@pytest.mark.parametrize("name", ["base-delta", "indifferent"])
def test_structured_infinite_threshold_is_strict_json(tmp_path, command, name):
    # q_soc = 0 puts x_bar at +inf; RFC 8259 has no Infinity, so structured
    # output writes the CSV's threshold token instead.
    rc, out = run_cli(tmp_path, ANSWER_CFGS[name] + "format = structured\n", command)
    assert rc == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    records = [doc] if command == "classify" else [rep["diagnostics"] for rep in doc]
    assert [record["x_bar"] for record in records] == ["+inf"] * len(records)
    if command == "classify" and name == "base-delta":
        assert doc["x_bar_discounted"] == "+inf"


# Finite configs whose rates overflow in floats.  The equilibria one holds
# NaN or infinite numbers that are not thresholds: q_value nan and det +inf.
# The classify one's discounted threshold is its finite limit, not NaN.
NONFINITE_CFGS = {
    ("equilibria", "overflow"): (
        OVERFLOW_CFG.replace("lambda = 1e155\nr = 1e155\nb = 1e155\n",
                             "lambda = 1e160\nr = 1e160\nb = 1e160\n")
        .replace("w_H = 1\nw_C = 10\n", "w_H = 5\nw_C = 5.5\n")
    ),
    ("classify", "huge-delta"): OVERFLOWING_BRACKETS["huge-delta"][0],
}


@pytest.mark.parametrize("command,name", sorted(NONFINITE_CFGS))
def test_structured_nonfinite_numbers_are_strict_json(tmp_path, command, name):
    cfg = NONFINITE_CFGS[command, name] + "format = structured\n"
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    if command == "classify":
        assert doc["x_bar_discounted"] == -0.099999999999999978
    else:
        assert doc[0]["diagnostics"]["q_value"] == "nan"
        assert doc[0]["stability"]["det"] == "+inf"


# Rates 480 decades apart: the honest boundary's float eigenvalues overflow
# to (-inf, +inf), while its exact pair {-r, q_inf - q_soc - lam - b} puts
# the top at -r = -9.5e-214: marginal.
EXTREME_BOUNDARY_CFG = (
    "lambda = 6.717138235719716e220\nr = 9.46041493587484e-214\nb = 81045000631857.34\n"
    "f = 0\nq_soc = 5.6378526481854664e144\nq_inf = 2.6233904678912265e-262\n"
    "w_R = 0\nw_H = 1\nw_C = 40409124.227859445\n"
)


def test_extreme_boundary_reads_its_exact_eigenvalues(tmp_path):
    rc, out = run_cli(tmp_path, EXTREME_BOUNDARY_CFG, "equilibria")
    assert rc == 0
    assert "# [1] honest_boundary: x_H=1 x_C=0 behavior=honest stability=marginal (closed_form)" \
        in out.decode().splitlines()
    rc, out = run_cli(tmp_path, EXTREME_BOUNDARY_CFG + "format = structured\n", "equilibria")
    assert rc == 0
    (rep,) = json.loads(out, parse_constant=_reject_constant)
    assert (rep["stability"]["classification"], rep["stability"]["method"]) == (
        "marginal", "closed_form")


# At this honest boundary glibc's pow(disc, 0.5) rounds the root of the
# discriminant one ulp off.  The real parts are taken with sqrt, which IEEE 754
# rounds correctly, so no platform's libm can move them.
POW_BOUNDARY_CFG = (
    "lambda = 3.584581355084309\nr = 0.11711571421663002\nb = 0.31568336115383694\n"
    "f = 0\nq_soc = 0.77548460518325\nq_inf = 4.709395663838344\n"
    "w_R = 0.5831937655371546\nw_H = 2.9636332578380964\nw_C = 3.3191914635534157\n"
)


def test_boundary_real_parts_printed_are_rooted_with_sqrt(tmp_path):
    rc, out = run_cli(tmp_path, POW_BOUNDARY_CFG + "format = structured\n", "equilibria")
    assert rc == 0
    (rep,) = [rep for rep in json.loads(out, parse_constant=_reject_constant)
              if rep["provenance"] == "honest_boundary"]
    trace, det, parts = (rep["stability"][k] for k in ("trace", "det", "eigen_real_parts"))
    root = math.sqrt(trace * trace - 4 * det)
    assert parts == [(trace - root) / 2, (trace + root) / 2]


def _text_of(command, cfg):
    """Everything ``command`` writes for ``cfg``, joined."""
    pieces = []
    command(cfg, pieces.append)
    return "".join(pieces)


def _full_table(traj):
    """The simulate table with every cell formatted by its own ``"%.17g" % v``."""
    rows = ["%.17g,%.17g,%.17g,%.17g\n" % (t, *state)
            for t, state in zip(traj.times.tolist(), traj.states.tolist())]
    return "t,x_R,x_H,x_C\n" + "".join(rows)


def _event_table(distance, path):
    """The ctmc text with every cell formatted by its own ``%``."""
    rows = ["%.17g,%s,%d,%d,%d\n" % (t, label, n.n_R, n.n_H, n.n_C) for t, label, n in path.events()]
    return "t,transition,n_R,n_H,n_C\n" + "".join(rows) + "# lln_distance = %.17g\n" % distance


def _first_difference(got, want):
    """``(line number, got line, wanted line)`` of the first mismatch, or None.

    Tables are compared through this so that a failure reports one line
    instead of a diff of tens of thousands of lines.
    """
    if got == want:
        return None
    pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


@pytest.mark.parametrize("name", sorted(SETTLED_CFGS))
def test_simulate_settled_tail_renders_like_full_table(name):
    cfg = cli.parse_config(SETTLED_CFGS[name])
    traj = simulate.integrate_ode(cfg.params, cfg.x0, cfg.strategy, cfg.t_end, cfg.dt)
    assert _first_difference(_text_of(cli.cmd_simulate, cfg), _full_table(traj)) is None


# States ending in a run of one row, with -0.0 rows just before it that float
# == would take for the run, across chunk boundaries.
_SYNTHETIC_TAILS = [
    np.array([[0.25, 0.5, 0.25]]),
    np.array([[0.2, 0.5, 0.3], [0.25, 0.5, 0.25]]),
    np.array([[-0.0, 1.0, 0.0]] * 3 + [[0.0, 1.0, 0.0]] * 2),
    np.array([[0.0, 1.0, -0.0]] * 1030 + [[0.0, 1.0, 0.0]]),
    np.vstack([np.linspace(0.0, 1.0, 3000)[:, None] * [1.0, -1.0, 0.0] + [0.0, 1.0, 0.0],
               [[1.0, 0.0, 0.0]] * 2049]),
]


@pytest.mark.parametrize("states", _SYNTHETIC_TAILS, ids=lambda a: f"{len(a)}-rows")
def test_simulate_settled_tail_keeps_signed_zeros(monkeypatch, states):
    traj = simulate.Trajectory(times=np.arange(len(states)) * 0.01, states=states)
    monkeypatch.setattr(cli, "integrate_ode", lambda *args: traj)
    got = _text_of(cli.cmd_simulate, cli.parse_config(BASE_CFG))
    assert _first_difference(got, _full_table(traj)) is None


_DECADES = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
# x0 components: zeros of both signs, subnormal to tiny, and ordinary shares.
_SHARES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-20]),
                    st.floats(0.0, 0.5))


@st.composite
def _table_configs(draw):
    """A config whose rates spread over +-30 decades, with a step of 0.5 to 1
    times the guard and a few steps, agents and replications."""
    lam, r, b, q_soc, q_inf = draw(st.lists(_DECADES, min_size=5, max_size=5))
    f = draw(st.sampled_from([0.0, 1e-30, 1.0, 1e30]))
    x_r, x_h = draw(_SHARES), draw(_SHARES)
    p = cm.ModelParams(lam=lam, r=r, b=b, f=f, q_soc=q_soc, q_inf=q_inf,
                       w_R=0.0, w_H=1.0, w_C=2.0)
    dt = 0.1 / cm.rate_scale(p) * draw(st.floats(0.5, 1.0))
    steps = draw(st.integers(1, 300))
    return (f"lambda = {lam!r}\nr = {r!r}\nb = {b!r}\nf = {f!r}\nq_soc = {q_soc!r}\n"
            f"q_inf = {q_inf!r}\nw_R = 0\nw_H = 1\nw_C = 2\n"
            f"x0_R = {x_r!r}\nx0_H = {x_h!r}\nx0_C = {1.0 - x_r - x_h!r}\n"
            f"strategy = {draw(st.sampled_from(['corrupt', 'honest']))}\n"
            f"dt = {dt!r}\nt_end = {steps * dt!r}\nN = {draw(st.integers(1, 40))}\n"
            f"replications = {draw(st.integers(1, 2))}\nseed = {draw(st.integers(0, 2**32))}\n")


@settings(max_examples=100, deadline=None)
@given(_table_configs())
@example(SMALL_CTMC_CFG)
@example(WIDE_CFGS["simulate-subnormal-states"] + "N = 1\nreplications = 1\n")
def test_tables_are_written_as_percent_writes_each_cell(text):
    # The tables go through numpy fields; the oracles format each cell with
    # its own "%".
    cfg = cli.parse_config(text)
    traj = simulate.integrate_ode(cfg.params, cfg.x0, cfg.strategy, cfg.t_end, cfg.dt)
    assert _first_difference(_text_of(cli.cmd_simulate, cfg), _full_table(traj)) is None
    distance, path = simulate.lln_convergence(cfg.params, cfg.N, cfg.x0, cfg.strategy,
                                              cfg.t_end, cfg.replications, cfg.seed, cfg.dt)
    assert _first_difference(_text_of(cli.cmd_ctmc, cfg), _event_table(distance, path)) is None


# ---------------------------------------------------------------------------
# memory


def _traced_peak(tmp_path, cfg_text, command):
    """Exit code and tracemalloc peak, in bytes, of one ``cli.main`` run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "answer.out"
    tracemalloc.start()
    try:
        rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, peak


def test_simulate_memory_does_not_grow_with_the_text(tmp_path):
    # 10**5 rows: the trajectory holds 32 B per row and its text ~80 B per
    # row.  Written chunk by chunk the run peaks near 47 B per row; holding
    # the whole text as chunks, as one str and as its UTF-8 bytes took ~262.
    rc, peak = _traced_peak(tmp_path, THREE_CFG + X0_CFG + "t_end = 1000\n", "simulate")
    assert rc == 0
    assert peak / 100_001 < 120


def test_ctmc_memory_per_event_of_replication_0(tmp_path):
    # A path holds 9 B per event (8 B time, 1 B code) and its counts are
    # derived a block at a time.  The run peaks holding replication 0's path
    # and the one being built: from N = 5,000 to 20,000 the peak grows by ~19
    # B per added event of replication 0.  Paths that held their 24 B per
    # event of counts as well grew by ~59.
    peaks, events = [], []
    for N in (5000, 20000):
        cfg_text = THREE_CFG + f"N = {N}\nreplications = 3\nt_end = 10\n"
        rc, peak = _traced_peak(tmp_path, cfg_text, "ctmc")
        assert rc == 0
        cfg = cli.parse_config(cfg_text)
        path = simulate.simulate_population(cfg.params, simulate.round_counts(cfg.N, cfg.x0),
                                            cfg.strategy, cfg.t_end, cfg.seed)
        peaks.append(peak)
        events.append(len(path))
    assert (peaks[1] - peaks[0]) / (events[1] - events[0]) < 25


# ---------------------------------------------------------------------------
# import boundary

# Runs in a fresh interpreter, since the tests load ``numpy.random`` in this
# one: prints which of the commands left ``numpy.random`` loaded, the first
# four draws of stream (7, -5), and whether the stream loaded it.
_IMPORT_BOUNDARY = """
import json, sys
from corruption_mfg import cli
cfg, out = sys.argv[1:]
loaded_by = []
for command in ("classify", "equilibria", "sweep", "simulate"):
    assert cli.main([command, "--config", cfg, "--out", out]) == 0, command
    if "numpy.random" in sys.modules:
        loaded_by.append(command)
from corruption_mfg.simulate import UniformStream
rng = UniformStream(7, -5)
draws = [rng.uniform() for _ in range(4)]
print(json.dumps([loaded_by, draws, "numpy.random" in sys.modules]))
"""


def test_numpy_random_loads_with_the_first_stream(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CFG + "sweep_param = b\nsweep_min = 0.1\nsweep_max = 0.3\n"
                   "sweep_points = 3\n")
    src = os.path.dirname(os.path.dirname(cm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, str(cfg), str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          check=True)
    loaded_by, draws, loaded = json.loads(done.stdout)
    assert loaded_by == []
    assert (7, -5, tuple(draws)) in PINNED
    assert loaded
