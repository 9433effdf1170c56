"""The CLI's bytes on the benchmark's ``atlas`` job set.

The benchmark's generators, ``perfbench/workloads.py``, are loaded read-only,
as ``tests/test_api.py`` loads the tracer.  A change to those generators
changes the jobs, and the digests below are re-recorded with it.
"""

import hashlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

from corruption_mfg import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# One sha256 per command over every output of its atlas jobs at seeds 1-10,
# in seed then job order.
ATLAS_DIGESTS = {
    "classify": "1cbba40a1bdcd3b744ce78df2ca2458782bf2be88c4055e38fcda433eea68a33",
    "equilibria": "09ac4e29591690d6fc0557afed5f082d09864f9ec69f7a3908ef2115c1d5b502",
    "sweep": "4844b3a20202f06b343c18dfd7a9a0c4cfb83e23f607dfb145895942ce4126b5",
}


def _load(monkeypatch, name):
    """``perfbench/<name>.py``, in ``sys.modules`` under ``name`` for this test:
    ``workloads`` imports ``oracle`` by that name, and its dataclass looks up
    its own module there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_atlas_jobs_at_ten_seeds_match_their_digests(monkeypatch):
    _load(monkeypatch, "oracle")
    workloads = _load(monkeypatch, "workloads")
    digests = defaultdict(hashlib.sha256)
    for seed in range(1, 11):
        for job in workloads.make_jobs("atlas", seed, "full"):
            pieces = []
            cli._COMMANDS[job.command](cli.parse_config(job.config_text()), pieces.append)
            digests[job.command].update("".join(pieces).encode())
    assert {command: digest.hexdigest() for command, digest in digests.items()} == ATLAS_DIGESTS


def test_atlas_jobs_over_one_out_file_leave_their_own_bytes(monkeypatch, tmp_path):
    # The benchmark writes each job's answer over the previous job's at one
    # --out path.  Two passes in job order make that file grow and shrink:
    # classify, equilibria, sweep, then sweep followed by classify.
    _load(monkeypatch, "oracle")
    workloads = _load(monkeypatch, "workloads")
    jobs = workloads.make_jobs("atlas", 1, "full")
    answers = []
    for i, job in enumerate(jobs):
        (tmp_path / f"job-{i}.cfg").write_text(job.config_text())
        pieces = []
        cli._COMMANDS[job.command](cli.parse_config(job.config_text()), pieces.append)
        answers.append("".join(pieces).encode())
    out = tmp_path / "out.txt"
    for _ in range(2):
        for i, job in enumerate(jobs):
            assert cli.main([job.command, "--config", str(tmp_path / f"job-{i}.cfg"),
                             "--out", str(out)]) == 0
            assert out.read_bytes() == answers[i], job.id
