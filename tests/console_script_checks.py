"""The installed ``corruption-mfg`` script, and the peak memory of its two
largest runs.

Each check runs the CLI as a child process, so the suite does not collect
this module (its name is not ``test_*.py``); run it by name:

    python -m pytest -q tests/console_script_checks.py

The child is ``corruption-mfg`` where that script is on ``PATH``, as after
``pip install -e .``, and otherwise the same entry point,
``corruption_mfg.cli.entry``, run by this interpreter with ``src`` on
``PYTHONPATH``.  A child's peak memory is its own ``ru_maxrss``, from
``os.wait4``, so no other child of the test process counts.
"""

import os
import shutil
import subprocess
import sys

import corruption_mfg
from corruption_mfg import cli
from support import THREE_EQ_CONFIG

if shutil.which("corruption-mfg"):
    SCRIPT, ENV = ["corruption-mfg"], None
else:
    SRC = os.path.dirname(os.path.dirname(corruption_mfg.__file__))
    SCRIPT = [sys.executable, "-c", "from corruption_mfg.cli import entry; entry()"]
    ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _run(command, cfg):
    return subprocess.run([*SCRIPT, command, "--config", cfg], env=ENV, capture_output=True,
                          text=True)


def _wait_for_peak_mb(child):
    """Wait for ``child``; its peak resident memory in MB."""
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def test_equilibria_of_the_bistable_set(tmp_path):
    done = _run("equilibria", _config(tmp_path, THREE_EQ_CONFIG))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "# 3 equilibria"


def test_state_off_the_simplex_exits_2(tmp_path):
    # Rates near 1e155 push the corrupt root off the simplex: exit 2 with one
    # stderr line and no output.
    cfg = _config(tmp_path, "lambda = 1e155\nr = 1e155\nb = 1e155\nf = 0\nq_soc = 0\n"
                            "q_inf = 0\nw_R = 0\nw_H = 1\nw_C = 10\n")
    done = _run("equilibria", cfg)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1


def test_sweep_at_the_point_cap(tmp_path):
    # The grid is one float64 array of 8 MB, and its points are evaluated
    # 1,024 at a time and written as pieces of at most 1,024 rows, so the run
    # peaks near 40 MB resident, mostly numpy and the _g17 writer's tables:
    # not a tuple of 10^6 Python floats (~32 MB) nor whole-grid arrays of
    # ~8 MB each.
    cfg = _config(tmp_path, THREE_EQ_CONFIG + "sweep_param = b\nsweep_min = -0.1\n"
                                              "sweep_max = 2\nsweep_points = 1000000\n")
    child = subprocess.Popen([*SCRIPT, "sweep", "--config", cfg], env=ENV,
                             stdout=subprocess.PIPE, text=True)
    # The grid increases, so the rows of one point are one run of its key.
    # The rows of every 1,000th point are kept, by grid index.
    with child.stdout:
        header = next(child.stdout, "")
        keys, last, sampled = 0, None, {}
        for line in child.stdout:
            key = line.split(",", 1)[0]
            keys, last = keys + (key != last), key
            if (keys - 1) % 1000 == 0:
                sampled.setdefault(keys - 1, []).append(line.rstrip("\n"))
    peak = _wait_for_peak_mb(child)
    assert child.returncode == 0
    assert header.startswith("param_value,")
    assert keys == 1_000_000 and peak <= 55, (keys, peak)
    # At each sampled point the sweep wrote the rows of the scalar path.
    parsed = cli.load_config(cfg)
    bad = [i for i, rows in sampled.items()
           if rows != cli._point_rows(parsed.params, "b", float(parsed.sweep_grid[i]))]
    assert len(sampled) == 1000 and not bad, bad[:5]


def test_ctmc_of_a_hundred_thousand_agents(tmp_path):
    # ~1.1 million events a path.  A path holds 9 B per event and its counts
    # are derived block by block, so the run peaks near 60 MB resident (~115
    # MB when every path held its counts as well).
    cfg = _config(tmp_path, THREE_EQ_CONFIG + "N = 100000\nt_end = 20\nreplications = 5\n")
    child = subprocess.Popen([*SCRIPT, "ctmc", "--config", cfg], env=ENV,
                             stdout=subprocess.DEVNULL)
    peak = _wait_for_peak_mb(child)
    assert child.returncode == 0
    assert peak < 85, peak
