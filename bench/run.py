"""diophkit benchmark: real ``python -m diophkit`` command lines, timed from
outside, with every output checked.

    python3 bench/run.py --workload scan|beta|filtration --seed N \\
        --seconds S --trace 0|1

One client runs the workload's jobs one at a time (a closed loop with a
single client), each job in a fresh interpreter, and repeats the whole job
list until S seconds have passed.  Before timing it compiles bytecode in a
discarded warm-up run.  Each job's exit code and stdout are checked against
recorded digests and against oracles that do not use diophkit (see
workloads.py); a job that fails any check counts as failed.

Every time is reported at the reference machine speed: the benchmark times
a fixed pure-Python loop just before and just after each process it runs,
and scales that process's times by CAL_REFERENCE_S over the mean of the
two.  On a shared virtual machine whose speed drifts by tens of percent
within a minute this removes most of the run-to-run spread; the raw
seconds are printed to stderr next to the scaled ones.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 one more pass runs every job under bench/tracer.py and the line
carries the per-layer metrics instead.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.

Isolation: each run gets a fresh directory under .bench_tmp/ in the
checkout holding the jobs' cwd, HOME, XDG_CACHE_HOME and bytecode cache;
the checkout's src/ is the only entry on PYTHONPATH and PYTHONHASHSEED is
fixed.  No more than two processes (this one and one job) run at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACER = HERE / "tracer.py"
RUN_LIMIT_S = 150          # no pass starts that could end after this
SETUP_REPEATS = 9
SETUP_CODE = "import diophkit.cli as c; c.build_parser()"
# median calibrate() time on the reference machine: a 2-vCPU shared Xeon
# VM at 2.1 GHz, CPython 3.11
CAL_REFERENCE_S = 0.060


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout


def calibrate():
    """Seconds for a fixed loop of the big-integer, Fraction and small-int
    work that diophkit itself does; it never touches diophkit."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(i % 7, i)
    small = 0
    for i in range(150000):
        small += i * i % 7
    return time.perf_counter() - start


def run_process(argv, run_dir, deadline):
    """Run one process to completion with stdout and stderr going to files.

    Returns (exit code, wall s, user+sys s, max RSS MB, stdout bytes).  A
    process still running at the deadline is killed and reported with exit
    code None.
    """
    out_path, err_path = run_dir / "stdout", run_dir / "stderr"
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "PYTHONPYCACHEPREFIX": str(run_dir / "pycache"),
        "HOME": str(run_dir / "home"),
        "XDG_CACHE_HOME": str(run_dir / "cache"),
    }
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir / "cwd", env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        reaped = None
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.001))
        try:
            reaped = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(reaped[1])
        except JobTimeout:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if reaped is None:
                # timed out or interrupted: never leave the child running
                proc.kill()
                reaped = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # os.wait4 reaped the child; tell Popen so it never waits on the pid again
    proc.returncode = os.waitstatus_to_exitcode(reaped[1])
    usage = reaped[2]
    return (code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            out_path.read_bytes())


def check_job(job, code, stdout, digests, seed, record):
    """Return None when the job's outputs are right, else the reason."""
    if code != 0:
        return "exit code %r" % code
    if record is not None:
        record[job.name] = {"exit": code, "sha256": workloads.sha256(stdout)}
    elif job.seed_free or seed == digests.get("seed"):
        want = digests.get("jobs", {}).get(job.name)
        if want is None:
            return "no recorded digest"
        if workloads.sha256(stdout) != want["sha256"]:
            return "stdout digest differs from the recorded one"
    try:
        job.check(stdout.decode())
    except workloads.CheckFailed as exc:
        return "oracle: %s" % exc
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unparseable output: %r" % exc
    return None


class Run:
    def __init__(self, workload, seed, record, run_dir):
        self.seed = seed
        self.jobs = workloads.WORKLOADS[workload](seed)
        self.record = {} if record else None
        self.digests = {} if record else json.loads(DIGESTS.read_text()).get(workload, {})
        self.run_dir = run_dir
        self.attempted = 0
        self.failures = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def measure(self, argv):
        """Run one process between two calibrations.

        Returns (exit code, scaled wall s, scaled cpu s, RSS MB, stdout,
        scale, raw wall s).
        """
        before = calibrate()
        code, wall, cpu, rss, stdout = run_process(argv, self.run_dir, self.deadline)
        scale = CAL_REFERENCE_S / ((before + calibrate()) / 2)
        return code, wall * scale, cpu * scale, rss, stdout, scale, wall

    def run_job(self, job, trace_file=None):
        if trace_file is None:
            argv = [sys.executable, "-m", "diophkit", *job.argv]
        else:
            argv = [sys.executable, str(TRACER), str(trace_file), *job.argv]
        result = self.measure(argv)
        code, stdout = result[0], result[4]
        self.attempted += 1
        reason = check_job(job, code, stdout, self.digests, self.seed, self.record)
        if reason is None and trace_file is not None and not trace_file.exists():
            reason = "no trace written"
        if reason is not None:
            self.failures.append("%s: %s" % (job.name, reason))
            err = (self.run_dir / "stderr").read_text(errors="replace").strip()
            if err:
                print("  stderr of %s: %s" % (job.name, err[-400:]), file=sys.stderr)
        return result

    def prepare(self):
        for sub in ("cwd", "home", "cache", "pycache"):
            (self.run_dir / sub).mkdir()
        for job in self.jobs:
            for name, text in job.files.items():
                (self.run_dir / "cwd" / name).write_text(text)

    def timed_passes(self, seconds):
        """Repeat the job list until `seconds` have passed (at least once).

        Returns per-job lists of scaled wall s, scaled cpu s and raw wall s,
        and the largest max RSS.
        """
        walls = {job.name: [] for job in self.jobs}
        cpus = {job.name: [] for job in self.jobs}
        raws = {job.name: [] for job in self.jobs}
        peak = 0.0
        begin = time.monotonic()
        last_pass = 0.0
        while not walls[self.jobs[0].name] or time.monotonic() - begin < seconds:
            if time.monotonic() + 2 * last_pass > self.deadline:
                break
            start = time.monotonic()
            for job in self.jobs:
                _, wall, cpu, rss, _, _, raw = self.run_job(job)
                walls[job.name].append(wall)
                cpus[job.name].append(cpu)
                raws[job.name].append(raw)
                peak = max(peak, rss)
            last_pass = time.monotonic() - start
        return walls, cpus, raws, peak

    def traced_pass(self):
        """One pass under the tracer: summed per-layer stats (times scaled),
        counters, absent layers, scaled wall s, stdout bytes, per-job traces."""
        stats, counters, absent, per_job = {}, {}, set(), {}
        wall = 0.0
        out_bytes = 0
        for job in self.jobs:
            trace_file = self.run_dir / ("trace-%s.json" % job.name)
            _, w, _, _, stdout, scale, _ = self.run_job(job, trace_file)
            wall += w
            out_bytes += len(stdout)
            if not trace_file.exists():
                continue
            data = json.loads(trace_file.read_text())
            per_job[job.name] = data
            absent.update(data["absent"])
            for name, s in data["stats"].items():
                agg = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                agg["calls"] += s["calls"]
                agg["self_s"] += s["self_s"] * scale
                agg["total_s"] += s["total_s"] * scale
            for key, value in data["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return stats, counters, absent, wall, out_bytes, per_job


def _ratio(num, den):
    return num / den if den else 0.0


# (layer, fields of its call stats reported as <layer>.<field>)
PER_LAYER_STATS = [
    ("polynomials.evaluate", ("calls", "self_s")),
    ("heights.weil_norm", ("calls", "self_s")),
    ("graded.vanishes_at", ("calls", "self_s")),
    ("experiments.scan_inequality", ("self_s",)),
    ("experiments.sample_points", ("self_s",)),
    ("linalg.rank", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.in_span", ("calls", "self_s")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("graded.ideal_power_gens", ("calls", "self_s")),
    ("graded.span_dim", ("calls", "self_s")),
    ("graded.span_piece", ("calls", "self_s")),
    ("graded.graded_dim_ideal_power", ("calls", "self_s")),
    ("graded.graded_dim_filtration_ideal", ("calls", "self_s")),
    ("graded.filtration_ideal_gens", ("calls", "self_s")),
    ("graded.coordinate_groups", ("calls",)),
    ("staircase.threshold_set", ("calls", "self_s")),
    ("filtration.profile_init", ("self_s",)),
    ("filtration.build_profile", ("calls", "self_s")),
    ("filtration.common_adapted_basis", ("self_s",)),
    ("filtration.concavity_bound", ("self_s",)),
    ("beta.ideal_power_terms", ("self_s",)),
    ("beta.beta_blowup_crosscheck", ("self_s",)),
    ("surface.zariski_h0", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]


def layer_metrics(stats, counters, absent, traced_wall, untraced_wall, out_bytes):
    """Per-layer metrics; a layer the tracer could not find maps to None."""
    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def count(key):
        return counters.get(key, 0)

    values = {"%s.%s" % (name, key): stat(name, key)
              for name, fields in PER_LAYER_STATS for key in fields}
    values.update({
        "heights.ord_p.calls": stat("heights.ord_p", "calls"),
        "experiments.sample_points.points": count("experiments.sample_points.points"),
        "experiments.points_per_s": _ratio(count("experiments.scan.total"),
                                           stat("experiments.scan_inequality", "total_s")),
        "experiments.skip_ratio": _ratio(count("experiments.scan.skipped"),
                                         count("experiments.scan.total")),
        "linalg.rank.cells": count("linalg.rank.cells"),
        "linalg.rank.yield": _ratio(count("linalg.rank.rank_sum"),
                                    count("linalg.rank.rows")),
        "linalg.rref.cells": count("linalg.rref.cells"),
        "linalg.rref.yield": _ratio(count("linalg.rref.rank_sum"),
                                    count("linalg.rref.rows")),
        "graded.ideal_power_gens.forms": count("graded.ideal_power_gens.forms"),
        "graded.filtration_ideal_gens.forms": count("graded.filtration_ideal_gens.forms"),
        "staircase.threshold_set.box_cells": count("staircase.threshold_set.box_cells"),
        "filtration.candidates": count("filtration.candidates"),
        "filtration.jumps": count("filtration.jumps"),
        "filtration.jump_yield": _ratio(count("filtration.jumps"),
                                        count("filtration.candidates")),
        "graded.coordinate_groups.hit_ratio": _ratio(
            count("graded.coordinate_groups.hits"),
            stat("graded.coordinate_groups", "calls")),
        "cli.stdout_bytes": out_bytes,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for key in values:
        if any(key.startswith(name + ".") for name in absent):
            values[key] = None
    return values


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass at the default seed and store its "
                             "exit codes and stdout digests in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "diophkit" / "cli.py").is_file():
        print("error: no diophkit sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        print("error: digests are recorded at --seed %d" % workloads.DEFAULT_SEED,
              file=sys.stderr)
        return 2
    units = load_units()
    signal.signal(signal.SIGALRM, _on_alarm)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.record_digests,
              Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root)))
    try:
        run.prepare()
        # warm-up: fills this run's bytecode cache; its timing is discarded
        code = run.measure([sys.executable, "-m", "diophkit", "height", "--point", "2:3"])[0]
        if code != 0:
            print("error: diophkit does not start (exit %r)" % code, file=sys.stderr)
            return 2
        setup = [run.measure([sys.executable, "-c", SETUP_CODE])[1]
                 for _ in range(SETUP_REPEATS)]
        walls, cpus, raws, peak = run.timed_passes(
            0 if args.record_digests else args.seconds)
        wall_s = sum(statistics.median(w) for w in walls.values())
        for job in run.jobs:
            print("%-10s %-20s median %.3f s over %d passes, raw s: %s"
                  % (args.workload, job.name, statistics.median(walls[job.name]),
                     len(walls[job.name]), " ".join("%.3f" % w for w in raws[job.name])),
                  file=sys.stderr)
        if args.trace:
            stats, counters, absent, traced_wall, out_bytes, per_job = run.traced_pass()
            values = layer_metrics(stats, counters, absent, traced_wall, wall_s, out_bytes)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))).write_text(
                json.dumps({"workload": args.workload, "seed": args.seed,
                            "stats": stats, "counters": counters, "jobs": per_job}))
            if absent:
                print("absent layers: %s" % ", ".join(sorted(absent)), file=sys.stderr)
        else:
            values = {
                "wall_s": wall_s,
                "cpu_s": sum(statistics.median(c) for c in cpus.values()),
                "peak_rss_mb": peak,
                "setup_s": statistics.median(setup),
                "pass_rate": _ratio(run.attempted - len(run.failures), run.attempted),
            }
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)

    if run.record is not None and not run.failures:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[args.workload] = {"seed": args.seed, "jobs": run.record}
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    for failure in run.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items() if value is not None}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
