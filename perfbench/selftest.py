"""Self-test of the benchmark at the tiny size.

Run from the root of the repository (about 30 seconds):

    python3 perfbench/selftest.py

It asserts that

* every metric named in ``BENCHMARK.json`` is printed with its unit, in the
  report and in the final JSON line, and every run is correct;
* two runs at one seed give identical output digests, nash gains and
  per-layer counts;
* a second seed changes the inputs and still passes every check;
* at the full size the p50 and p90 ranks of every workload fall at least
  ``MIN_MARGIN`` ranks inside one block of equal-work jobs;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import END_TO_END, HERE, OUT_DIR, ROOT, SRC
from tracer import PER_LAYER

OTHER_SEED = workloads.DEFAULT_SEED + 1
MIN_MARGIN = 5


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def checked_run(workload: str, seed: int, trace: int, declared: dict) -> dict:
    """Run, assert the printed metrics and correctness; returns the run's detail file."""
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final.keys()
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, lines
    printed_units = {name: metric["unit"] for name, metric in final["metrics"].items()}
    assert printed_units == declared, (printed_units, declared)
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    with open(os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_runs(declared: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            first, again, other = (checked_run(workload, seed, trace, declared[trace])
                                   for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED,
                                                OTHER_SEED))
            assert first["outputs"] == again["outputs"], f"{workload}: outputs differ"
            if trace:
                assert first["layer_counts"] == again["layer_counts"], f"{workload}: counts differ"
            assert first["inputs_digest"] == again["inputs_digest"], f"{workload}: inputs differ"
            assert other["inputs_digest"] != first["inputs_digest"], f"{workload}: same inputs"
        print(f"ok: {workload} prints every metric, repeats at one seed, passes at another")


def check_mix() -> None:
    sys.path.insert(0, SRC)
    from worker import equilibria_of

    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED, "full", equilibria_of)
        assert len(jobs) >= 100, f"{workload}: {len(jobs)} jobs"
        ranks = workloads.rank_blocks([job.block for job in jobs])
        for name, where in ranks.items():
            assert where["margin"] >= MIN_MARGIN, f"{workload} {name}: {where}"
        print(f"ok: {workload} has {len(jobs)} jobs; p50 in {ranks['p50']}, p90 in {ranks['p90']}")


def check_bare_directory() -> None:
    bare = os.path.join(OUT_DIR, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("atlas", workloads.DEFAULT_SEED, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok: without the program's source the benchmark exits", proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert declared == {0: END_TO_END, 1: PER_LAYER}, "BENCHMARK.json and the code disagree"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    check_mix()
    check_runs(declared)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
