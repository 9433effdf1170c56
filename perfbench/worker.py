"""One workload process: set up, run the job list in a closed loop, check, report.

Started by ``run.py`` with the program's ``src`` directory on ``PYTHONPATH``.
The process imports the program, runs one untimed warm-up job and prints
``ready``; that is the end of set-up.  It then reads one line from stdin:
``run`` starts the workload, anything else ends the process (``run.py``
starts several processes only to time set-up).

The workload runs as passes over its job list, one job after another, with
no threads or pools.  Passes go on while the next one fits in ``--seconds``
(at least one).  With ``--trace 1`` untraced and traced passes alternate, and
the traced ones give the per-layer metrics.  The result is printed as one
JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import corruption_mfg
from corruption_mfg import cli, equilibria, simulate

import checks
import workloads
from tracer import Tracer, program_bindings

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")
# deviation_gain accepts N and ignores it (the background is the mean-field limit).
NASH_N = 1000


def model_params(p: dict):
    return corruption_mfg.ModelParams(
        lam=p["lambda"], r=p["r"], b=p["b"], f=p["f"], q_soc=p["q_soc"], q_inf=p["q_inf"],
        w_R=p["w_R"], w_H=p["w_H"], w_C=p["w_C"])


def equilibria_of(p: dict) -> list:
    return corruption_mfg.enumerate_equilibria(model_params(p))


class Client:
    """Runs jobs of one workload in one work directory and checks their outputs."""

    def __init__(self, jobs: list, workdir: str, golden: dict | None):
        self.jobs = jobs
        self.golden = golden
        self.out_path = os.path.join(workdir, "out.txt")
        self.config_paths = []
        for i, job in enumerate(jobs):
            path = os.path.join(workdir, f"job-{i}.cfg")
            if job.command != "nash":
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(job.config_text())
            self.config_paths.append(path)
        # nash jobs call the library on the program's own equilibrium reports.
        self.nash_inputs = {}
        for i, job in enumerate(jobs):
            if job.command == "nash":
                report = equilibria_of(job.params)[job.settings["equilibrium"]]
                self.nash_inputs[i] = (model_params(job.params), report)
        self.outputs: dict[str, object] = {}   # job id -> digest, or [gain, se] for nash
        self.notes: list[str] = []

    def call(self, index: int):
        """Run job ``index``; returns the estimate for nash, the exit code otherwise."""
        job = self.jobs[index]
        if job.command == "nash":
            p, report = self.nash_inputs[index]
            s = job.settings
            return simulate.deviation_gain(p, report, s["horizon"], NASH_N,
                                           s["replications"], s["seed"])
        return cli.main([job.command, "--config", self.config_paths[index],
                         "--out", self.out_path])

    def check(self, index: int, returned, first_pass: bool) -> list[str]:
        """Problems with job ``index``'s output; semantic checks run on the first pass."""
        job = self.jobs[index]
        problems = []
        golden = None
        if self.golden is not None:
            golden = self.golden.get(job.id)
            if golden is None:
                problems.append("no output recorded for the default seed")
        if job.command == "nash":
            output = [returned.gain, returned.std_error]
            if first_pass:
                problems += checks.check_nash(job, self.nash_inputs[index][1], returned, golden)
        else:
            if returned != 0:
                return [f"exit code {returned}"]
            output = checks.digest(self.out_path)
            if first_pass and job.command == "sweep":
                problems += checks.check_sweep(job, self.out_path, self.notes)
            elif first_pass:
                problems += checks.CLI_CHECKS[job.command](job, self.out_path)
            if golden is not None and output != golden:
                problems.append("output differs from the recorded digest")
        if job.id in self.outputs and self.outputs[job.id] != output:
            problems.append("output differs from the previous pass")
        self.outputs[job.id] = output
        return problems

    def output_size(self) -> tuple[int, int]:
        """Rows and bytes of the last CLI output."""
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        return data.count(b"\n"), len(data)


def run_pass(client: Client, tracer: Tracer | None, first_pass: bool, tally: dict) -> list[float]:
    """One closed-loop pass over the job list; returns the job times in seconds."""
    times = []
    for index, job in enumerate(client.jobs):
        gc.collect()
        if tracer is not None:
            tracer.job = index
        problems = []
        start = time.perf_counter()
        try:
            returned = client.call(index)
        except (Exception, SystemExit) as exc:  # a failed job is counted, the run goes on
            returned, problems = None, [f"raised {exc!r}"]
        times.append(time.perf_counter() - start)
        if not problems:
            problems = client.check(index, returned, first_pass)
        if tracer is not None and job.command != "nash" and returned == 0:
            rows, size = client.output_size()
            tracer.current.counts["cli.rows_out"] += rows
            tracer.current.counts["cli.bytes_out"] += size
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            tally["problems"] += [f"{job.id}: {text}" for text in problems[:3]]
    return times


def warm_up(workload: str, workdir: str) -> None:
    """One small fixed job of the workload's kind, untimed."""
    three_eq = workloads.THREE_EQ
    command, settings = {
        "atlas": ("equilibria", {"format": "structured"}),
        "trajectory": ("simulate", {"dt": 0.01, "t_end": 2.0}),
        "finite_n": ("ctmc", {"N": 50, "t_end": 1.0, "replications": 1}),
    }[workload]
    job = workloads.Job("warm-up", "warm-up", command, three_eq, settings)
    config = os.path.join(workdir, "warm-up.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(job.config_text())
    code = cli.main([command, "--config", config, "--out", os.path.join(workdir, "warm-up.out")])
    if code != 0:
        raise SystemExit(f"warm-up job exited with {code}")


def run_workload(args, workdir: str) -> dict:
    jobs = workloads.make_jobs(args.workload, args.seed, args.size, equilibria_of)
    golden = None
    if args.check_golden and args.seed == workloads.DEFAULT_SEED:
        recorded = {}
        if os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                recorded = json.load(fh)
        golden = recorded.get(args.size, {}).get(args.workload, {})
    client = Client(jobs, workdir, golden)
    tracer = Tracer() if args.trace else None
    bindings = program_bindings(cli, equilibria, simulate)

    tally = {"attempted": 0, "failed": 0, "problems": []}
    untraced_walls, traced_walls, job_times = [], [], []
    # Another pass (or untraced and traced pair) starts only if its jobs, timed
    # like the last ones, end within --seconds of the start.
    deadline = time.perf_counter() + args.seconds
    while True:
        times = run_pass(client, None, not untraced_walls, tally)
        untraced_walls.append(sum(times))
        job_times += times
        if tracer is not None:
            tracer.install(bindings)
            try:
                traced = run_pass(client, tracer, False, tally)
            finally:
                tracer.uninstall()
            tracer.end_pass()
            traced_walls.append(sum(traced))
        cycle = untraced_walls[-1] + (traced_walls[-1] if traced_walls else 0.0)
        if time.perf_counter() + cycle > deadline:
            break

    job_times_sorted = sorted(job_times)
    n = len(job_times_sorted)
    blocks = [job.block for job in jobs]
    by_time = [blocks[i % len(jobs)] for i in
               sorted(range(n), key=lambda i: job_times[i])]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "numpy": sys.modules["numpy"].__version__,
        "jobs": len(jobs),
        "passes": len(untraced_walls),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": tally["problems"][:20],
        "notes": client.notes,
        "pass_wall_s": untraced_walls,
        "wall_s": statistics.median(untraced_walls),
        "job_samples": n,
        "job_p50_s": job_times_sorted[workloads.percentile_rank(0.5, n) - 1],
        "job_p90_s": job_times_sorted[workloads.percentile_rank(0.9, n) - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "block_p50_s": {block: statistics.median(
            t for i, t in enumerate(job_times) if blocks[i % len(jobs)] == block)
            for block in dict.fromkeys(blocks)},
        "mix_planned": workloads.rank_blocks(blocks),
        "mix_observed": workloads.rank_blocks(by_time),
        "inputs_digest": hashlib.sha256(
            "".join(job.id + repr(job.params) + repr(job.settings) for job in jobs).encode()
        ).hexdigest(),
        "outputs": client.outputs,
    }
    if tracer is not None:
        counts = [stats.exact_counts() for stats in tracer.passes]
        if any(c != counts[0] for c in counts[1:]):
            result["failed"] += 1
            result["problems"].append("per-layer counts differ between traced passes")
        result["traced_pass_wall_s"] = traced_walls
        result["layers"] = tracer.metrics(statistics.median(traced_walls),
                                          statistics.median(untraced_walls))
        result["layer_counts"] = counts[0]
        result["deviation_gain_s_per_call"] = tracer.seconds_per_call("simulate.deviation_gain")
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.csv")
        result["spans_written"] = tracer.write_spans(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, os.path.dirname(HERE))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--check-golden", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        warm_up(args.workload, workdir)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
