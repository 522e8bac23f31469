"""Run one diophkit command line with its public functions traced.

    python3 bench/tracer.py TRACE.json <diophkit arguments...>

The tracer rebinds each function listed in TARGETS wherever it is bound:
in every ``diophkit.*`` module namespace (several modules import these
functions by name) and on the class that defines a method.  It then calls
``diophkit.cli.main(argv)``, so stdout and the exit code are those of
``python -m diophkit``.  Every call is counted and timed; self time is a
call's duration minus that of the traced calls it made.  Full spans (name,
start, end, parent) are kept for the first SPAN_CAP calls of each function
and the rest are only aggregated, which bounds memory on the fine-grained
functions called hundreds of thousands of times.  Everything is written to
TRACE.json when the command returns.  A target that no longer exists is
listed as absent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
import time
from fractions import Fraction

SPAN_CAP = 200

# (layer name, module, attribute path inside the module)
TARGETS = [
    ("cli.main", "cli", "main"),
    ("polynomials.evaluate", "polynomials", "HomogeneousForm.evaluate"),
    ("heights.weil_norm", "heights", "weil_norm"),
    ("heights.ord_p", "heights", "ord_p"),
    ("graded.vanishes_at", "graded", "Subscheme.vanishes_at"),
    ("graded.coordinate_groups", "graded", "coordinate_groups"),
    ("graded.ideal_power_gens", "graded", "ideal_power_gens"),
    ("graded.filtration_ideal_gens", "graded", "filtration_ideal_gens"),
    ("graded.span_dim", "graded", "span_dim"),
    ("graded.span_piece", "graded", "span_piece"),
    ("graded.graded_dim_ideal_power", "graded", "graded_dim_ideal_power"),
    ("graded.graded_dim_filtration_ideal", "graded", "graded_dim_filtration_ideal"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.in_span", "linalg", "in_span"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("staircase.threshold_set", "staircase", "threshold_set"),
    ("experiments.sample_points", "experiments", "sample_points"),
    ("experiments.scan_inequality", "experiments", "scan_inequality"),
    ("filtration.profile_init", "filtration", "FiltrationProfile.__post_init__"),
    ("filtration.build_profile", "filtration", "build_profile"),
    ("filtration.common_adapted_basis", "filtration", "common_adapted_basis"),
    ("filtration.concavity_bound", "filtration", "concavity_bound"),
    ("beta.ideal_power_terms", "beta", "ideal_power_terms"),
    ("beta.beta_blowup_crosscheck", "beta", "beta_blowup_crosscheck"),
    ("surface.zariski_h0", "surface", "SurfaceModel.zariski_h0"),
    # entry points traced only so that their time stays out of cli.main's
    # self time, which should hold parsing and output formatting alone
    ("filtration.adapted_basis", "filtration", "adapted_basis"),
    ("beta.beta_truncated", "beta", "beta_truncated"),
    ("beta.beta_convergence", "beta", "beta_convergence"),
]


class Tracer:
    def __init__(self):
        self.frames = []        # one [child seconds, layer name, candidates] per open call
        self.open_spans = [0]   # ids of the recorded spans still open; 0 is the root
        self.spans = []         # (id, parent id, layer name, start, end)
        self.span_ids = itertools.count(1)
        self.stats = {}         # layer name -> {"calls", "total_s", "self_s", "spans"}
        self.counters = {}
        self.absent = []

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "spans": 0})
        hook = HOOKS.get(name)
        frames, open_spans, spans = self.frames, self.open_spans, self.spans
        span_ids = self.span_ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = stat["spans"] < SPAN_CAP
            if record:
                stat["spans"] += 1
                sid = next(span_ids)
                parent = open_spans[-1]
                open_spans.append(sid)
            frame = [0.0, name, 0]
            frames.append(frame)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                frames.pop()
                elapsed = t1 - t0
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
                if record:
                    open_spans.pop()
                    spans.append((sid, parent, name, t0, t1))
                if done and hook is not None:
                    hook(self, frame, args, result)
                if frames:
                    # the bookkeeping above is charged to nobody's self time
                    frames[-1][0] += clock() - t0

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {short: importlib.import_module("diophkit." + short)
                   for short in {mod for _, mod, _ in TARGETS}}
        importlib.import_module("diophkit")
        namespaces = []
        for modname, module in list(sys.modules.items()):
            if modname == "diophkit" or modname.startswith("diophkit."):
                namespaces.append(module)
                namespaces.extend(v for v in vars(module).values()
                                  if isinstance(v, type)
                                  and v.__module__.startswith("diophkit"))
        for name, short, path in TARGETS:
            owner = modules[short]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        return modules["cli"]

    def dump(self, path):
        spans = sorted(self.spans)
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "counters": self.counters,
                       "absent": self.absent, "spans": spans}, fh)


# --- counters measured at the layer boundaries -----------------------------

def _matrix(tr, name, rows, out_rank):
    if isinstance(rows, (list, tuple)):
        width = len(rows[0]) if rows else 0
        tr.add(name + ".rows", len(rows))
        tr.add(name + ".cells", len(rows) * width)
        tr.add(name + ".rank_sum", out_rank)


def _rank(tr, frame, args, result):
    _matrix(tr, "linalg.rank", args[0], result)


def _rref(tr, frame, args, result):
    _matrix(tr, "linalg.rref", args[0], len(result))


def _power_gens(tr, frame, args, result):
    tr.add("graded.ideal_power_gens.forms", len(result))


def _dim_at_candidate(tr, frame, args, result):
    # build_profile asks for one of these per candidate threshold x > 0
    parent = tr.frames[-1] if tr.frames else None
    if parent is not None and parent[1] == "filtration.build_profile":
        parent[2] += 1


def _filtration_gens(tr, frame, args, result):
    tr.add("graded.filtration_ideal_gens.forms", len(result))
    _dim_at_candidate(tr, frame, args, result)


def _build_profile(tr, frame, args, result):
    # frame[2] counts the thresholds at which this call computed a dimension
    # by elimination; the coordinate fast path computes none
    if frame[2]:
        tr.add("filtration.candidates", frame[2])
        tr.add("filtration.jumps", len(result.jumps))


def _threshold_set(tr, frame, args, result):
    t, x = args[0], Fraction(args[1])
    cells = 0
    if x > 0:
        cells = 1
        for w in t:
            w = Fraction(w)
            if w > 0:
                cells *= math.ceil(x / w) + 1
    tr.add("staircase.threshold_set.box_cells", cells)


def _coordinate_groups(tr, frame, args, result):
    tr.add("graded.coordinate_groups.hits", result is not None)


def _sample_points(tr, frame, args, result):
    tr.add("experiments.sample_points.points", len(result))


def _scan(tr, frame, args, result):
    tr.add("experiments.scan.total", result.total)
    tr.add("experiments.scan.skipped", result.skipped)


HOOKS = {
    "linalg.rank": _rank,
    "linalg.rref": _rref,
    "graded.ideal_power_gens": _power_gens,
    "graded.filtration_ideal_gens": _filtration_gens,
    "graded.graded_dim_filtration_ideal": _dim_at_candidate,
    "filtration.build_profile": _build_profile,
    "staircase.threshold_set": _threshold_set,
    "graded.coordinate_groups": _coordinate_groups,
    "experiments.sample_points": _sample_points,
    "experiments.scan_inequality": _scan,
}


def main():
    if len(sys.argv) < 3:
        print("usage: tracer.py TRACE.json <diophkit arguments...>", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
