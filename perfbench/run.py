"""Benchmark of corruption-mfg: seeded job-mix workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload untraced and traced and prints every
metric by name and unit.  Each workload run spawns fresh worker processes
(``worker.py``): several only to time set-up, and the last one to run the
jobs.  The report goes to stdout; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

``--record-golden`` re-records ``golden.json``, the outputs at the default
seed that later runs at that seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}
# Set-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
# A worker that has not finished this long after set-up is killed.
RUN_TIMEOUT_S = 120
# Layer costs of the ROADMAP's North star, measured before this benchmark
# existed, printed beside the traced run's figures:
# (metric, ROADMAP figure, what the figure is).
NORTH_STAR = (
    ("simulate.integrate_ode.us_per_step", 3.5, "us per RK4 step"),
    ("simulate.simulate_population.us_per_event", 2.9, "us per CTMC event"),
    ("equilibria.enumerate_equilibria.us_per_call", 49.0, "us per enumerate_equilibria call"),
    ("stability.classify_equilibrium.us_per_call", 12.0, "us per classify_equilibrium call"),
    ("simulate.deviation_gain.s_per_call", 0.21,
     "s per deviation_gain call (here 4 profiles x 50 replications of 10 expected jumps; "
     "the ROADMAP figure is for 4 x 100 replications, T=100)"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not run or a worker failed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _finish(proc: subprocess.Popen, command: str, timeout: float) -> str:
    """Send ``command`` to a worker and wait for it; a worker past ``timeout`` is killed."""
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def _spawn(worker_args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; returns it and its set-up seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *worker_args], cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
                 check_golden: bool = True) -> dict:
    """One workload run: timed set-ups, then the jobs in the last worker."""
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size, "--check-golden", str(int(check_golden))]
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if trace == 0 else 0):
        proc, elapsed = _spawn(worker_args)
        _finish(proc, "exit", 30)
        setups.append(elapsed)
    proc, elapsed = _spawn(worker_args)
    setups.append(elapsed)
    out = _finish(proc, "run", RUN_TIMEOUT_S + seconds)
    if not out.strip():
        raise BenchmarkError("worker printed no result")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
            "commit": _git_commit(), "seed": seed, "loadavg_start": os.getloadavg()}


def metric_values(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["layers"][name], "unit": unit}
                for name, unit in PER_LAYER.items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(result: dict, facts: dict, trace: int) -> list[str]:
    """Human-readable lines: machine facts, job mix, every metric with its unit."""
    lines = [
        f"# workload {result['workload']}  seed {result['seed']}  size {result['size']}  "
        f"trace {trace}",
        f"# machine: nproc {facts['nproc']}, cpu {facts['cpu']}, python {facts['python']}, "
        f"numpy {result['numpy']}, commit {facts['commit']}",
        f"# loadavg at start {facts['loadavg_start']}, at end {facts['loadavg_end']}",
        f"# {result['jobs']} jobs x {result['passes']} untraced passes = {result['job_samples']} "
        f"job samples; attempted {result['attempted']}, failed {result['failed']}, "
        f"fail_frac {result['failed'] / result['attempted']:.4g}",
    ]
    for name in ("p50", "p90"):
        planned, observed = result["mix_planned"][name], result["mix_observed"][name]
        lines.append(f"# {name} rank: planned in block {planned['block']} "
                     f"(margin {planned['margin']}), observed in block {observed['block']} "
                     f"(margin {observed['margin']})")
    lines += [f"# problem: {text}" for text in result["problems"]]
    lines += [f"# note: {text}" for text in result["notes"]]
    if trace:
        lines.append(f"# traced passes {len(result['traced_pass_wall_s'])}; "
                     f"{result['spans_written']} spans of the first written to "
                     f"{result['trace_file']}")
    else:
        lines.append(f"# setup_s is the median of {len(result['setup_samples_s'])} set-ups; "
                     f"wall_s the median of {result['passes']} passes; job percentiles "
                     f"over {result['job_samples']} samples")
    for name, metric in metric_values(result, trace).items():
        value = metric["value"]
        lines.append(f"{name} {value if isinstance(value, int) else format(value, '.6g')} "
                     f"{metric['unit']}")
    if trace:
        figures = dict(result["layers"], **{
            "simulate.deviation_gain.s_per_call": result["deviation_gain_s_per_call"]})
        for name, old, what in NORTH_STAR:
            value = figures[name]
            if value:
                lines.append(f"# North star: {value:.3g} {what}; ROADMAP baseline ~{old:g}")
    return lines


def run_and_report(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    facts = machine_facts(seed)
    result = run_workload(workload, seed, seconds, trace, size)
    facts["loadavg_end"] = os.getloadavg()
    result["machine"] = facts
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(report(result, facts, trace)))
    return result


def record_golden(seed: int) -> None:
    """Record every workload's outputs at ``seed`` for both sizes into golden.json."""
    golden = {}
    for size in workloads.SIZES:
        golden[size] = {}
        for workload in workloads.WORKLOADS:
            result = run_workload(workload, seed, 0.0, 0, size, check_golden=False)
            if result["failed"]:
                raise BenchmarkError(f"{workload}/{size}: {result['problems']}")
            golden[size][workload] = result["outputs"]
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "corruption_mfg")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            record_golden(args.seed)
            return 0
        if args.workload != "all":
            result = run_and_report(args.workload, args.seed, args.seconds, args.trace, args.size)
            metrics = metric_values(result, args.trace)
            attempted, failed = result["attempted"], result["failed"]
        else:
            metrics, attempted, failed = {}, 0, 0
            for workload in workloads.WORKLOADS:
                for trace in (0, 1):
                    result = run_and_report(workload, args.seed, args.seconds, trace, args.size)
                    metrics.update({f"{workload}.{name}": metric for name, metric
                                    in metric_values(result, trace).items()})
                    attempted += result["attempted"]
                    failed += result["failed"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
