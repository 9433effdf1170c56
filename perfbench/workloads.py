"""Seeded job lists of the four benchmark workloads.

A job is one CLI call, ``cli.main([command, "--config", cfg, "--out", out])``
on a generated config, or for a ``nash`` job one library call to
``deviation_gain``.  The same ``(workload, seed, size)`` always gives the same
jobs.  Jobs come in *blocks* of equal work, listed from the cheapest block to
the dearest, and block sizes put the p50 and p90 ranks of the per-job times
well inside one block (see :func:`rank_blocks`), so that a percentile does not
jump between two kinds of job from one seed to the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracle import rate_scale, tagged_agent_expectations

DEFAULT_SEED = 1
WORKLOADS = ("atlas", "trajectory", "finite_n")

PARAM_KEYS = ("lambda", "r", "b", "f", "q_soc", "q_inf", "w_R", "w_H", "w_C")
RATE_KEYS = ("lambda", "r", "b", "q_soc", "q_inf")
SWEEP_AXES = ("b", "f", "q_soc", "q_inf", "lambda")
# The bistable set of the test suite: three coexisting equilibria.
THREE_EQ = {"lambda": 0.1, "r": 1.0, "b": 0.2, "f": 0.0, "q_soc": 0.5, "q_inf": 2.0,
            "w_R": 0.0, "w_H": 1.0, "w_C": 1.275}

SIZES = {
    "full": {
        "classify": 40, "equilibria": 60, "sweep_bases": 5, "sweep_points": 1000,
        "trajectories": 100, "ode_steps": 10_000,
        "ctmc_blocks": ((100, 80), (1000, 40), (10_000, 1)), "ctmc_extra_factor": 50,
        "nash_jobs": 20, "nash_replications": 50, "nash_jumps_per_stream": 10,
    },
    "tiny": {
        "classify": 3, "equilibria": 3, "sweep_bases": 1, "sweep_points": 40,
        "trajectories": 4, "ode_steps": 300,
        "ctmc_blocks": ((20, 3), (50, 2)), "ctmc_extra_factor": 4,
        "nash_jobs": 2, "nash_replications": 8, "nash_jumps_per_stream": 5,
    },
}
# Fraction of each sweep range that lies below zero, where the swept
# parameter is invalid and the CLI writes an error row.
SWEEP_INVALID_SHARE = 0.08


@dataclass(frozen=True)
class Job:
    id: str
    block: str
    command: str     # CLI subcommand, or "nash"
    params: dict     # model parameters by config key
    settings: dict   # the other config keys; for nash, the call's arguments

    def config_text(self) -> str:
        items = list(self.params.items()) + list(self.settings.items())
        return "".join(f"{key} = {_render(value)}\n" for key, value in items)


def _render(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def moderate_params(rng: random.Random) -> dict:
    """A valid parameter set on desk-scale ranges (rates 0.1 to 5)."""
    p = {key: _log_uniform(rng, -1.0, 0.7) for key in ("lambda", "r", "b")}
    p["f"] = 0.0 if rng.random() < 0.3 else _log_uniform(rng, -1.0, 0.5)
    p["q_soc"] = _log_uniform(rng, -0.3, 0.7)
    p["q_inf"] = _log_uniform(rng, -0.3, 0.7)
    p["w_R"] = rng.uniform(0.0, 1.0)
    p["w_H"] = p["w_R"] + _log_uniform(rng, -1.0, 0.48)
    p["w_C"] = p["w_H"] + _log_uniform(rng, -1.0, 0.48)
    return {key: p[key] for key in PARAM_KEYS}


def bistable_params(rng: random.Random) -> dict:
    """THREE_EQ on a random time scale with a small jitter: still three equilibria.

    Multiplying every rate and wage by one factor rescales time and leaves the
    equilibria unchanged; the jitter of at most 0.2% stays clear of the fold
    where two of the three merge.
    """
    scale = _log_uniform(rng, -0.6, 0.6)
    p = {}
    for key, value in THREE_EQ.items():
        factor = 1.0 if key == "f" else scale
        p[key] = value * factor * rng.uniform(0.998, 1.002)
    return p


def simplex_point(rng: random.Random) -> tuple[float, float, float]:
    a, b = sorted((rng.random(), rng.random()))
    return (a, b - a, 1.0 - b)


def _x0_settings(x0: tuple) -> dict:
    return {"x0_R": x0[0], "x0_H": x0[1], "x0_C": x0[2]}


def atlas_jobs(rng: random.Random, size: dict) -> list[Job]:
    jobs = []
    for i in range(size["classify"]):
        p = moderate_params(rng)
        jobs.append(Job(f"classify-{i}", "classify", "classify", p,
                        {"delta": _log_uniform(rng, -2.0, 0.0)}))
    for i in range(size["equilibria"]):
        jobs.append(Job(f"equilibria-{i}", "equilibria", "equilibria", bistable_params(rng),
                        {"format": "structured"}))
    # Random moderate bases made the cost of a sweep vary by tens of percent
    # from seed to seed; time-rescaled THREE_EQ sets keep every sweep's regime
    # structure, so the work per seed stays the same while the inputs change.
    bases = [dict(THREE_EQ)] + [bistable_params(rng) for _ in range(size["sweep_bases"] - 1)]
    for k, base in enumerate(bases):
        for axis in SWEEP_AXES:
            hi = 3.0 * base[axis] if base[axis] > 0.0 else 1.0
            settings = {"sweep_param": axis, "sweep_min": -SWEEP_INVALID_SHARE * hi,
                        "sweep_max": hi, "sweep_points": size["sweep_points"]}
            jobs.append(Job(f"sweep-{k}-{axis}", "sweep", "sweep", base, settings))
    return jobs


def trajectory_jobs(rng: random.Random, size: dict) -> list[Job]:
    jobs = []
    steps = size["ode_steps"]
    for i in range(size["trajectories"]):
        p = moderate_params(rng)
        dt = 0.1 / rate_scale(p) * rng.uniform(0.5, 0.999)
        settings = {"dt": dt, "t_end": (steps + 0.5) * dt,
                    "strategy": "corrupt" if i % 2 == 0 else "honest",
                    **_x0_settings(simplex_point(rng))}
        jobs.append(Job(f"simulate-{i}", "simulate", "simulate", p, settings))
    return jobs


def _nash_horizon(p: dict, x: tuple, jumps_per_stream: int) -> float:
    """Horizon at which the four profiles' streams expect ``jumps_per_stream`` jumps each."""
    profiles = ((0, 0), (0, 1), (1, 0), (1, 1))
    target = len(profiles) * jumps_per_stream
    horizon = 1.0
    for _ in range(40):
        expected = sum(tagged_agent_expectations(p, x, u, horizon)[1] for u in profiles)
        if abs(expected / target - 1.0) < 1e-3:
            break
        horizon *= target / expected
    return horizon


def nash_jobs(rng: random.Random, size: dict, equilibria_of) -> list[Job]:
    """One job per equilibrium with x_C > 0 of seeded parameter sets.

    ``equilibria_of(params)`` is the program's ``enumerate_equilibria``: the
    jobs call ``deviation_gain`` on its own reports.  Every job's horizon
    gives the same expected number of jumps.  Equilibria with ``x_C = 0`` (the
    honest boundary) are skipped: there the two profiles that never switch
    out of H draw no uniform, so those jobs do about a quarter less work.
    """
    jobs = []
    while len(jobs) < size["nash_jobs"]:
        p = moderate_params(rng)
        for index, report in enumerate(equilibria_of(p)):
            if report.state.x_C == 0.0 or len(jobs) == size["nash_jobs"]:
                continue
            x = (report.state.x_R, report.state.x_H, report.state.x_C)
            settings = {
                "equilibrium": index,
                "horizon": _nash_horizon(p, x, size["nash_jumps_per_stream"]),
                "replications": size["nash_replications"],
                "seed": rng.randrange(2**31),
            }
            jobs.append(Job(f"nash-{len(jobs)}", "nash", "nash", p, settings))
    return jobs


def finite_n_jobs(rng: random.Random, size: dict, equilibria_of) -> list[Job]:
    """Monte Carlo jobs: ctmc blocks of equal N, and a block of ``deviation_gain`` jobs.

    The ctmc jobs run THREE_EQ at half speed.  Jobs of the many-job blocks get
    a random x0 and rates jittered by up to 5%, and alternate the two
    strategies.  The single-job blocks, whose event counts set much of the
    wall time and the peak memory, vary only in their stream seed, so that
    their work is the same at every seed.  The nash block, whose jobs cost
    between the two smallest N, goes between them in the list.
    """
    base = dict(THREE_EQ, **{key: 0.5 * THREE_EQ[key] for key in RATE_KEYS})

    def ctmc_job(job_id: str, block: str, n_agents: int, varied: bool, strategy: str) -> Job:
        p = dict(base)
        x0 = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        if varied:
            p.update({key: base[key] * rng.uniform(0.95, 1.05) for key in RATE_KEYS})
            x0 = simplex_point(rng)
        settings = {"N": n_agents, "t_end": 10.0, "replications": 4,
                    "seed": rng.randrange(2**31), "strategy": strategy, **_x0_settings(x0)}
        return Job(job_id, block, "ctmc", p, settings)

    blocks = [[ctmc_job(f"ctmc-N{n_agents}-{i}", f"N{n_agents}", n_agents, count > 1,
                        ("corrupt", "honest")[i % 2]) for i in range(count)]
              for n_agents, count in size["ctmc_blocks"]]
    ctmc = [job for block in blocks for job in block]
    # Events grow with N, so this job has about `factor` times the events of
    # the mean ctmc job, and holds them all in memory at once.
    mean_n = sum(job.settings["N"] for job in ctmc) / len(ctmc)
    big_n = int(round(size["ctmc_extra_factor"] * mean_n))
    extra = ctmc_job(f"ctmc-N{big_n}-extra", "extra", big_n, False, "corrupt")
    nash = nash_jobs(rng, size, equilibria_of)
    return blocks[0] + nash + [job for block in blocks[1:] for job in block] + [extra]


def make_jobs(workload: str, seed: int, size_name: str, equilibria_of=None) -> list[Job]:
    """The job list of ``workload``; finite_n needs the program's ``equilibria_of``."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[size_name]
    if workload == "atlas":
        return atlas_jobs(rng, size)
    if workload == "trajectory":
        return trajectory_jobs(rng, size)
    if workload == "finite_n":
        return finite_n_jobs(rng, size, equilibria_of)
    raise ValueError(f"unknown workload {workload!r}")


def percentile_rank(q: float, n: int) -> int:
    """Nearest-rank percentile: the 1-based rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n))


def rank_blocks(blocks: list[str]) -> dict:
    """Where the p50 and p90 ranks fall in ``blocks`` (block names in rank order).

    For each percentile gives the block at that rank and the margin, the
    number of ranks to the nearer edge of that block.
    """
    n = len(blocks)
    result = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        i = percentile_rank(q, n) - 1
        lo = i
        while lo > 0 and blocks[lo - 1] == blocks[i]:
            lo -= 1
        hi = i
        while hi < n - 1 and blocks[hi + 1] == blocks[i]:
            hi += 1
        result[name] = {"block": blocks[i], "margin": min(i - lo, hi - i)}
    return result
