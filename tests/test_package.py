"""The package's public names, and which modules each command line loads.

`import diophkit` loads no submodule; names are imported on first access.
The command line runs each subcommand in its own process, so the modules a
subcommand does not run must stay out of that process: these checks list
`sys.modules` in fresh interpreters and use no clock.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diophkit
from test_bench_contract import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name, grouped by the module that defines it
EXPORTS = {
    "beta": [
        "BetaReport", "ConvergenceRow", "CrosscheckReport",
        "beta_blowup_crosscheck", "beta_convergence", "beta_truncated",
        "ideal_power_terms",
    ],
    "experiments": [
        "ConfigError", "FourLinesRow", "InequalityConfig", "ScanReport", "ScanRow",
        "four_lines", "four_lines_config", "four_lines_exclusions",
        "four_lines_table", "sample_points",
        "scan_inequality", "sigma_select",
    ],
    "filtration": [
        "AdaptedBasis", "BoundReport", "FiltrationProfile",
        "InconsistentProfilesError", "ProfileError", "F_value", "adapted_basis",
        "build_profile", "common_adapted_basis", "concavity_bound", "is_adapted",
        "mu_value", "scale_check",
    ],
    "graded": [
        "CatalogError", "PositionReport", "Subscheme", "check_general_position",
        "common_support_dim", "graded_dim_filtration_ideal",
        "graded_dim_ideal_power",
    ],
    "heights": [
        "PLACE_INF", "Place", "PlaceError", "PlaceSet", "ProjectivePoint",
        "SupportError", "global_weil_norm", "height", "height_norm",
        "parse_place", "product_formula_holds", "proximity", "weil",
        "weil_floor_norm", "weil_norm",
    ],
    "polynomials": ["FormError", "HomogeneousForm", "ParseError", "parse_form"],
    "surface": [
        "ClosedFormReport", "ComparisonReport", "NotNefError", "PicardClass",
        "SeshadriReport", "SurfaceError", "SurfaceModel", "UnsupportedClassError",
        "beta_closed_form", "beta_surface_truncated", "compare_beta_seshadri",
        "format_class", "parse_class", "three_point_blowup",
        "weighted_lines_class",
    ],
}
SUBMODULES = ["beta", "experiments", "filtration", "graded", "heights", "linalg",
              "polynomials", "staircase", "surface"]


class TestPublicNames:
    def test_all_is_unchanged(self):
        names = SUBMODULES + [n for group in EXPORTS.values() for n in group]
        assert len(names) == 82
        assert diophkit.__all__ == sorted(names)

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_defining_objects(self, module):
        owner = importlib.import_module("diophkit." + module)
        for name in EXPORTS[module]:
            assert getattr(diophkit, name) is getattr(owner, name)

    def test_submodules(self):
        for module in SUBMODULES:
            assert getattr(diophkit, module) is sys.modules["diophkit." + module]

    def test_star_import_binds_everything(self):
        namespace = {}
        exec("from diophkit import *", namespace)
        for name in diophkit.__all__:
            assert namespace[name] is getattr(diophkit, name)

    def test_dir_lists_everything(self):
        assert set(diophkit.__all__) <= set(dir(diophkit))

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            diophkit.nope
        assert not hasattr(diophkit, "nope")
        from diophkit import linalg
        assert linalg is diophkit.linalg

    def test_every_listed_name_is_used(self):
        """A name in a submodule's __all__ is re-exported by the package,
        wrapped by the benchmark's tracer, or used by code in src/: loaded,
        read as an attribute or imported, which its own def or class line
        and the __all__ strings are not."""
        traced = {(short, path.split(".")[0]) for _, short, path in TARGETS}
        used = set()
        for path in (SRC / "diophkit").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
        unused = ["%s.%s" % (module, name) for module in SUBMODULES
                  for name in importlib.import_module("diophkit." + module).__all__
                  if name not in diophkit._EXPORTS[module]
                  and (module, name) not in traced and name not in used]
        assert unused == []

    def test_only_filtration_counts_order_vectors(self):
        """Every graded dimension is read off filtration.build_profile, so
        the fast-path test and the order-vector count have one caller."""
        callers = set()
        for path in (SRC / "diophkit").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else \
                        getattr(func, "attr", None)
                    if name in ("normalize", "order_vector"):
                        callers.add(path.name)
        assert callers == {"filtration.py"}

    def test_one_filtration_walk_builds_row_spaces(self):
        """Both row sources feed one downward walk, so exactly one function
        in the filtration module constructs a linalg.RowSpace."""
        tree = ast.parse((SRC / "diophkit" / "filtration.py").read_text())
        builders = {func.name for func in ast.walk(tree)
                    if isinstance(func, ast.FunctionDef)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "RowSpace"}
        assert len(builders) == 1

    def test_only_polynomials_orders_columns(self):
        """Forms become coefficient rows, and rows forms, in one column
        order, so only the polynomials module reads a form's coefficients
        off against a column index."""
        callers = set()
        for path in (SRC / "diophkit").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "attr", None) == "coeff_vector":
                    callers.add(path.name)
        assert callers == {"polynomials.py"}


# standard modules a command line should load only when it needs them
WATCHED = ("csv", "json", "dataclasses", "inspect")

# lists sys.modules before importing json itself, so a run that never
# needed json or csv shows neither
PROBE = """
import sys
from diophkit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
names = sorted(m for m in sys.modules
               if m.startswith("diophkit.") or m in %r)
import json
print(json.dumps([code, names]), file=sys.stderr)
""" % (WATCHED,)


def loaded_by(code, *argv):
    """(exit code, short names of the diophkit modules loaded, plus the
    WATCHED modules where the probe lists them) of a fresh interpreter
    running `code` with the given arguments."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    exit_code, names = json.loads(proc.stderr.splitlines()[-1])
    return exit_code, {name.split(".", 1)[-1] for name in names}


def run_cli(*argv):
    return loaded_by(PROBE, *argv)


LINES = ["--space", "P2", "--ideals", "x0 + x1;x1 + x2;x0 + x2"]


class TestImportSets:
    def test_package_import_loads_no_submodule(self):
        code = ('import json, sys, diophkit\n'
                'print(json.dumps([0, [m for m in sys.modules'
                ' if m.startswith("diophkit.")]]), file=sys.stderr)')
        assert loaded_by(code) == (0, set())

    def test_filtration(self):
        code, modules = run_cli("filtration", *LINES, "--weights", "1,1/2,1/3",
                                "--N", "2")
        assert code == 0
        assert "filtration" in modules
        assert not modules & {"surface", "experiments", "heights", "beta"}

    def test_beta(self):
        code, modules = run_cli("beta", "--space", "P2", "--ideal",
                                "x0 + x1,x1 - x2", "--N", "2")
        assert code == 0
        assert "beta" in modules
        assert not modules & {"surface", "experiments", "heights"}

    def test_beta_crosscheck_adds_only_surface(self):
        code, modules = run_cli("beta", "--space", "P2", "--ideal",
                                "x0 + x1,x1 - x2", "--N", "2", "--crosscheck")
        assert code == 0
        assert {"beta", "surface"} <= modules
        assert not modules & {"experiments", "heights"}

    def test_scan(self):
        code, modules = run_cli("scan", "--four-lines", "--bound", "2")
        assert code == 0
        assert "experiments" in modules
        assert not modules & {"beta", "filtration", "surface"}

    def test_scan_rows_render_without_writers(self):
        code, modules = run_cli("scan", "--four-lines", "--bound", "3",
                                "--keep-rows", "--output", "csv")
        assert code == 0
        assert not modules & {"csv", "json"}

    # each output format loads only its own writer
    @pytest.mark.parametrize("fmt,writers", [("text", set()), ("json", {"json"}),
                                             ("csv", {"csv"})])
    def test_output_writers(self, fmt, writers):
        code, modules = run_cli("height", "--point", "2:3", "--output", fmt)
        assert code == 0
        assert modules & {"csv", "json"} == writers


# one command line per subcommand and mode; the records they build are plain
# classes, so none of them pays for dataclasses and the inspect it imports
COMMAND_LINES = {
    "beta": ["beta", "--space", "P2", "--ideal", "x0 + x1,x1 - x2", "--N", "2"],
    "beta-crosscheck": ["beta", "--space", "P2", "--ideal", "x0,x1", "--N", "2",
                        "--crosscheck"],
    "beta-convergence": ["beta", "--space", "P2", "--ideal", "x0", "--n-max", "2"],
    "beta-surface": ["beta-surface", "--A", "4H - E1", "--D", "H - E1", "--N", "2"],
    "seshadri": ["seshadri", "--A", "2H", "--D", "-E1"],
    "filtration": ["filtration", *LINES, "--weights", "1,1/2,1/3", "--N", "2"],
    "adapted-basis": ["adapted-basis", *LINES, "--weights", "1,1/2,1/3",
                      "--weights2", "1/3,1/2,1", "--N", "2"],
    "weil": ["weil", "--ideal", "x0", "--point", "2:3", "--places", "inf,2"],
    "height": ["height", "--point", "2:3"],
    "scan": ["scan", "--four-lines", "--bound", "2", "--keep-rows"],
    "example5": ["example5", "--l-max", "2"],
    "check-position": ["check-position", "--space", "P2", "--ideals", "x0;x1"],
    "concavity-test": ["concavity-test", "--space", "P2", "--ideals", "x0;x1",
                       "--betas", "1,1", "--weights", "1/2,1/2", "--N", "2"],
}


class TestNoDataclasses:
    @pytest.mark.parametrize("name", sorted(COMMAND_LINES))
    def test_command_line(self, name):
        code, modules = run_cli(*COMMAND_LINES[name])
        assert code == 0
        assert not modules & {"dataclasses", "inspect"}

    def test_parser(self):
        code = ("import sys\n"
                "from diophkit.cli import build_parser\n"
                "build_parser()\n"
                "names = sorted(m for m in sys.modules if m in %r)\n"
                "import json\n"
                "print(json.dumps([0, names]), file=sys.stderr)" % (WATCHED,))
        assert loaded_by(code) == (0, set())
