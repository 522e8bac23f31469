"""Every benchmark job, replayed as a test.

bench/run.py times the jobs of bench/workloads.py and rejects a run whose
job exits nonzero, prints bytes other than those recorded in
bench/digests.json, or fails its own output check.  These tests apply the
same rule (``check_job`` in bench/run.py) to every job of every workload at
seeds 1-4, each in a fresh interpreter, without timing anything.  They read
bench/ without changing it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fresh_env import fresh_env

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = range(1, 5)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building Job
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text())
JOBS = [(workload, seed, job) for workload in ("scan", "beta", "filtration")
        for seed in SEEDS for job in WORKLOADS.WORKLOADS[workload](seed)]


def test_every_workload_is_replayed():
    assert {workload for workload, _, _ in JOBS} == set(WORKLOADS.WORKLOADS)


@pytest.mark.parametrize("workload,seed,job", JOBS,
                         ids=["%s-%d-%s" % (w, s, job.name) for w, s, job in JOBS])
def test_job_passes_the_bench_check(workload, seed, job, tmp_path):
    for name, text in job.files.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run([sys.executable, "-m", "diophkit", *job.argv],
                          cwd=tmp_path, env=fresh_env(), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    digests = DIGESTS[workload]
    if job.seed_free or seed == digests["seed"]:
        assert WORKLOADS.sha256(proc.stdout) == digests["jobs"][job.name]["sha256"]
    job.check(proc.stdout.decode())
