"""The package namespace, and what the benchmark harness needs of it."""

import importlib.util
import inspect
from pathlib import Path

import corruption_mfg as cm
from corruption_mfg import cli, equilibria, hjb, model, simulate, stability
from support import THREE_EQ, THREE_EQ_CONFIG

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_names_resolve_without_duplicates():
    assert len(cm.__all__) == len(set(cm.__all__))
    assert [name for name in cm.__all__ if not hasattr(cm, name)] == []


def test_each_module_declares_its_public_names():
    # Every public function and class is declared in the module that defines
    # it, and the package exports those declarations and nothing else.
    modules = (model, hjb, equilibria, stability, simulate)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, name
    names = [name for module in modules for name in module.__all__]
    assert cm.__all__ == names
    assert len(names) == len(set(names)) == 47


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve_to_callables():
    # The traced benchmark run rebinds these attributes; a rename breaks it.
    bindings = _load_tracer().program_bindings(cli, equilibria, simulate)
    missing = []
    for owner, key, _, _ in bindings:
        target = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
        if not callable(target):
            missing.append(key)
    assert missing == []


def test_deviation_gain_takes_the_benchmark_positional_arguments():
    # deviation_gain(p, report, horizon, N, replications, seed), as the
    # benchmark calls it.
    report = cm.enumerate_equilibria(THREE_EQ)[0]
    estimate = simulate.deviation_gain(THREE_EQ, report, 2.0, 1000, 3, 7)
    assert estimate.replications == 3 and estimate.horizon == 2.0


def test_traced_ctmc_run_counts_every_stream(tmp_path):
    # The traced benchmark run reads the event paths that ctmc returns; a
    # change that breaks its counters must fail here too.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_EQ_CONFIG + "N = 50\nt_end = 2\nreplications = 3\n")
    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install(module.program_bindings(cli, equilibria, simulate))
    try:
        rc = cli.main(["ctmc", "--config", str(cfg), "--out", str(tmp_path / "ctmc.out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    counts = tracer.current.exact_counts()
    assert counts["simulate.simulate_population.calls"] == 3
    assert counts["simulate.simulate_population.events"] > 0
    assert counts["_rng.UniformStream.calls"] == 3


def _traced_sweep(tmp_path, model_lines):
    """Rows and traced counts of a nine-point sweep of b from -0.1 to 0.3."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(model_lines
                   + "sweep_param = b\nsweep_min = -0.1\nsweep_max = 0.3\nsweep_points = 9\n")
    out = tmp_path / "sweep.out"
    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install(module.program_bindings(cli, equilibria, simulate))
    try:
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    finally:
        tracer.uninstall()
    assert rc == 0
    return out.read_text().splitlines()[1:], tracer.current.exact_counts()


def test_traced_sweep_counts_every_layer_call(tmp_path):
    # A layer function captured out of the tracer's reach reads no calls here,
    # instead of silently zeroing a benchmark layer.  b <= 0 at three of the
    # nine points, whose error rows the grid pass writes.  q_soc = 0 sends the
    # six valid points through the scalar API; on THREE_EQ the grid pass
    # evaluates them without it.
    rows, counts = _traced_sweep(tmp_path, THREE_EQ_CONFIG.replace("q_soc = 0.5", "q_soc = 0"))
    report_rows = [row for row in rows if row.endswith(",")]
    assert 0 < len(report_rows) and len(rows) - len(report_rows) == 3
    assert counts["equilibria.enumerate_equilibria.calls"] == 6
    assert counts["equilibria.reports"] == len(report_rows)
    assert counts["stability.classify_equilibrium.calls"] == len(report_rows)
    # parse_config validates the base set once, then each handed-off point
    # is validated; the grid pass reads the rules on arrays, untraced.
    assert counts["model.validate_params.calls"] == 6 + 1
    rows, counts = _traced_sweep(tmp_path, THREE_EQ_CONFIG)
    assert len(rows) > 9 and sum(not row.endswith(",") for row in rows) == 3
    assert counts.get("equilibria.enumerate_equilibria.calls", 0) == 0
    assert counts.get("equilibria.reports", 0) == 0
    assert counts.get("stability.classify_equilibrium.calls", 0) == 0
    assert counts["model.validate_params.calls"] == 1
