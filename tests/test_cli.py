"""Configuration parsing, subcommand output contracts, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

import corruption_mfg as cm
from corruption_mfg import cli

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


def test_parse_strategy_and_sweep_validation():
    with pytest.raises(cli.ConfigError, match="strategy"):
        cli.parse_config(BASE_CFG + "strategy = wobbly\n")
    with pytest.raises(cli.ConfigError, match="sweep_min"):
        cli.parse_config(BASE_CFG + "sweep_param = b\n")
    cfg = cli.parse_config(BASE_CFG + "sweep_param = b\nsweep_min = 1\nsweep_max = 2\nsweep_points = 3\n")
    assert cfg.sweep_grid == (1.0, 1.5, 2.0)


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
    with pytest.raises(cm.ParameterError, match="delta > 0"):
        cli.parse_config(BASE_CFG + "delta = 0\n")


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


def test_simulate_reaches_stable_point(tmp_path):
    rc, out = run_cli(tmp_path, BASE_CFG + "t_end = 50\n", "simulate")
    assert rc == 0
    last = [float(v) for v in out.decode().splitlines()[-1].split(",")]
    assert last[1:] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-6)


def test_simulate_step_guard_exit_code(tmp_path):
    rc, _ = run_cli(tmp_path, BASE_CFG + "dt = 0.05\n", "simulate")
    assert rc == 2


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


def test_sweep_lambda_axis_maps_to_rate(tmp_path):
    cfg = THREE_CFG + "sweep_param = lambda\nsweep_min = 0.1\nsweep_max = 0.3\nsweep_points = 2\n"
    rc, out = run_cli(tmp_path, cfg, "sweep")
    assert rc == 0
    rows = [l.split(",") for l in out.decode().splitlines()[1:]]
    # interior honest point (b + lam) / (q_inf - q_soc) tracks the axis value
    interior = {float(r[0]): float(r[4]) for r in rows if r[2] == "honest_interior"}
    assert interior[0.1] == pytest.approx(0.3 / 1.5, abs=1e-12)
    assert interior[0.3] == pytest.approx(0.5 / 1.5, abs=1e-12)


def test_sweep_requires_grid(tmp_path):
    rc, _ = run_cli(tmp_path, THREE_CFG, "sweep")
    assert rc == 1


# ---------------------------------------------------------------------------
# exit codes and stdout path


def test_missing_config_is_validation_error(tmp_path, capsys):
    rc = cli.main(["classify", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_stdout_output(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE_CFG)
    rc = cli.main(["classify", "--config", str(cfg)])
    assert rc == 0
    assert "x_bar" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# byte-identical table output

X0_CFG = "x0_R = 0.2\nx0_H = 0.5\nx0_C = 0.3\n"
CTMC_CFG = THREE_CFG + X0_CFG + "N = 1000\nreplications = 3\nt_end = 10\nseed = 2024\n"

# sha256 of the output of each (command, config), recorded before table rows
# were formatted in chunks and before ctmc reused its stream-0 path.
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
]


@pytest.mark.parametrize("command,cfg,digest", GOLDEN,
                         ids=["simulate-corrupt", "simulate-honest", "ctmc-corrupt",
                              "ctmc-honest", "sweep"])
def test_output_matches_golden_digest(tmp_path, command, cfg, digest):
    rc, out = run_cli(tmp_path, cfg, command)
    assert rc == 0
    assert hashlib.sha256(out).hexdigest() == digest

