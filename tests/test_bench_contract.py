"""The benchmark's hooks into the package.

bench/tracer.py wraps the functions it lists in TARGETS, and bench/run.py
times `import diophkit.cli; build_parser()`.  A target that no longer
resolves is reported as absent and its metrics drop out of the result, so
renaming or moving one of these names breaks the benchmark without any
error.  A hook in HOOKS reads fields of its target's arguments and result
after each traced call; a field that has moved makes the traced run fail.
These checks resolve every target the way the tracer does and run every
hook on a real result, without installing anything, and read bench/
without changing it.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = TRACER.TARGETS


def _resolve(short, path):
    owner = importlib.import_module("diophkit." + short)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner).get(attr)


@pytest.mark.parametrize("name,short,path", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, short, path):
    assert callable(_resolve(short, path)), name


def _hook_args():
    """Arguments of a tiny call to each target that has a hook."""
    from diophkit.experiments import four_lines_config
    from diophkit.graded import Subscheme

    point = Subscheme.from_strings("P", ["x0", "x1"], nvars=3)
    lines = [Subscheme.from_strings("A", ["x0"], nvars=3),
             Subscheme.from_strings("B", ["x1 + x2"], nvars=3)]
    t = (1, Fraction(1, 2))
    return {
        "linalg.rank": ([[1, 2], [2, 4]],),
        "linalg.rref": ([[1, 2], [3, 4]],),
        "graded.ideal_power_gens": (point, 2, 2),
        "graded.filtration_ideal_gens": (lines, t, 1, 2),
        "graded.graded_dim_filtration_ideal": (lines, t, 1, 2),
        "filtration.build_profile": (lines, t, 2),
        "staircase.threshold_set": (t, 1),
        "graded.coordinate_groups": (lines,),
        "experiments.sample_points": (1, 2),
        "experiments.scan_inequality": (four_lines_config(), 2),
    }


@pytest.mark.parametrize("name", sorted(TRACER.HOOKS))
def test_hook_reads_a_real_result(name):
    args = _hook_args()
    assert name in args, "no tiny call for the hook of %s" % name
    short, path = next((s, p) for n, s, p in TARGETS if n == name)
    result = _resolve(short, path)(*args[name])
    tracer = TRACER.Tracer()
    # an open build_profile call, and a frame that has counted one
    # candidate, so every branch of a hook that reads the result runs
    parent = [0.0, "filtration.build_profile", 0]
    tracer.frames.append(parent)
    TRACER.HOOKS[name](tracer, [0.0, name, 1], args[name], result)
    assert tracer.counters or parent[2], name


def test_setup_entry_points():
    from diophkit import cli

    assert callable(cli.main)
    cli.build_parser()
