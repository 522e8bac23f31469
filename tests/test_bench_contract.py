"""The benchmark's hooks into the package.

bench/tracer.py wraps the functions it lists in TARGETS, and bench/run.py
times `import diophkit.cli; build_parser()`.  A target that no longer
resolves is reported as absent and its metrics drop out of the result, so
renaming or moving one of these names breaks the benchmark without any
error.  These checks resolve every target the way the tracer does, without
installing anything, and read bench/ without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("name,short,path", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, short, path):
    owner = importlib.import_module("diophkit." + short)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), name


def test_setup_entry_points():
    from diophkit import cli

    assert callable(cli.main)
    cli.build_parser()
