"""The package's public names, and which modules each command line loads.

`import diophkit` loads no submodule; names are imported on first access.
The command line runs each subcommand in its own process, so the modules a
subcommand does not run must stay out of that process: these checks list
`sys.modules` in fresh interpreters and use no clock.
"""

import ast
import importlib
import json
import subprocess
import sys

import pytest

import diophkit
from fresh_env import SRC, fresh_env
from test_bench_contract import TARGETS

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
        "four_lines_table", "sample_points", "scan_inequality",
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
        "parse_place", "proximity", "weil", "weil_norm",
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


# (module, name) of each function or class the benchmark's tracer wraps
TRACED = {(short, path.split(".")[0]) for _, short, path in TARGETS}


def names_used_in_src():
    """Every name that code in src/ loads, reads as an attribute or
    imports; a def or class line and the __all__ strings use none."""
    used = set()
    for path in (SRC / "diophkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


class TestPublicNames:
    def test_all_is_unchanged(self):
        names = SUBMODULES + [n for group in EXPORTS.values() for n in group]
        assert len(names) == 79
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
        wrapped by the benchmark's tracer, or used by code in src/."""
        used = names_used_in_src()
        unused = ["%s.%s" % (module, name) for module in SUBMODULES
                  for name in importlib.import_module("diophkit." + module).__all__
                  if name not in diophkit._EXPORTS[module]
                  and (module, name) not in TRACED and name not in used]
        assert unused == []

    @pytest.mark.parametrize("module", sorted(diophkit._EXPORTS))
    def test_exports_are_in_module_all(self, module):
        """Each name the package re-exports is in its own module's
        __all__, so ``from diophkit.<module> import *`` binds it too."""
        owner = importlib.import_module("diophkit." + module)
        assert set(diophkit._EXPORTS[module]) - set(owner.__all__) == set()

    def test_every_top_level_definition_is_used(self):
        """A function or class defined at the top of a module in src/ is
        used by code in src/, re-exported by the package, or wrapped by the
        benchmark's tracer; a name only the tests call belongs in tests/,
        beside the oracles.  Module hooks such as ``__getattr__`` are
        called by the interpreter and do not count."""
        used = names_used_in_src()
        defined = [(path.stem, node.name)
                   for path in (SRC / "diophkit").glob("*.py")
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))]
        unused = ["%s.%s" % (module, name) for module, name in defined
                  if name not in used
                  and name not in diophkit._EXPORTS.get(module, ())
                  and (module, name) not in TRACED]
        assert unused == []

    def test_every_method_is_used(self):
        """A method of a class in src/ is called or read by code in src/;
        dunder methods are called by the interpreter.  The two listed are
        kept for callers outside src/: the benchmark's tracer wraps
        Subscheme.vanishes_at, and the tests read
        HomogeneousForm.coefficient."""
        used = names_used_in_src()
        unused = {"%s.%s" % (cls.name, node.name)
                  for path in (SRC / "diophkit").glob("*.py")
                  for cls in ast.walk(ast.parse(path.read_text()))
                  if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in used}
        assert unused == {"Subscheme.vanishes_at", "HomogeneousForm.coefficient"}

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

    def test_one_filtration_row_builder(self):
        """Every row of the walk, the y^e of a normalized input included, is
        a product built by ``_products``, so only it multiplies integer
        polynomials, and no memoized image builder is left beside it."""
        tree = ast.parse((SRC / "diophkit" / "filtration.py").read_text())
        callers = {func.name for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_mul"}
        assert callers == {"_products"}
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        assert "functools" not in imported and "_monomial_images" not in defined

    def test_only_build_parser_declares_flags(self):
        """Every subcommand flag is one entry of cli._COMMANDS, which
        build_parser() and the plain matcher both read, so add_argument is
        called in the cli module only inside build_parser()."""
        tree = ast.parse((SRC / "diophkit" / "cli.py").read_text())
        owners = {getattr(top, "name", None) for top in tree.body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "add_argument"}
        assert owners == {"build_parser"}

    def test_only_the_scan_kernel_is_compiled(self):
        """The scan compiles one function per configuration, in
        experiments._scan_function; no other code in the package, in a
        function or at module level, calls the compile, exec or eval
        builtins (re.compile is an attribute call and does not count)."""
        owners = set()
        for path in (SRC / "diophkit").glob("*.py"):
            tree = ast.parse(path.read_text())
            # ast.walk is breadth-first, so a nested def names its own calls
            enclosing = {node: func.name for func in ast.walk(tree)
                         if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                         for node in ast.walk(func)}
            owners |= {(path.name, enclosing.get(node)) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Name)
                       and node.func.id in ("compile", "exec", "eval")}
        assert owners == {("experiments.py", "_scan_function")}

    def test_no_fraction_substitution(self):
        """Support dimensions read ideal membership off the filtration walk
        and the monomial images are integer rows, so no module defines or
        calls the Fraction substitution (``fraction_oracle`` keeps it), and
        ``common_support_dim`` takes no nullspace."""
        banned = {"substitute", "_restrict", "_linear_forms"}
        found = set()
        for path in (SRC / "diophkit").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else \
                        getattr(func, "attr", None)
                else:
                    continue
                if name in banned:
                    found.add((path.name, name))
        assert found == set()
        tree = ast.parse((SRC / "diophkit" / "graded.py").read_text())
        support = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                       and node.name == "common_support_dim")
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(support) if isinstance(node, ast.Call)}
        assert "mu_value" in called and "nullspace" not in called

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
WATCHED = ("csv", "json", "dataclasses", "inspect", "argparse", "gettext",
           "locale", "__future__")

# lists sys.modules before importing json itself, so a run that never
# needed json or csv shows neither; help and usage errors exit through
# SystemExit and are listed too
PROBE = """
import sys
from diophkit.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
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
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(),
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

    def test_cli_import(self):
        """What the benchmark's setup time imports: the parser's modules,
        and neither the scanner nor the code that compiles its kernel."""
        code = ('import json, sys, diophkit.cli\n'
                'print(json.dumps([0, [m for m in sys.modules'
                ' if m.startswith("diophkit.")]]), file=sys.stderr)')
        assert loaded_by(code) == (0, {"cli", "graded", "linalg", "polynomials",
                                       "staircase"})

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

    # each output mode loads its own writer, and text loads neither
    @pytest.mark.parametrize("fmt,writers", [("text", set()), ("json", {"json"}),
                                             ("csv", {"csv"})])
    def test_output_writers(self, fmt, writers):
        code, modules = run_cli("height", "--point", "2:3", "--output", fmt)
        assert code == 0
        assert modules & {"csv", "json"} == writers

    def test_json_filtration_skips_argparse(self):
        code, modules = run_cli("filtration", *LINES, "--weights", "1,1/2,1/3",
                                "--N", "2", "--output", "json")
        assert code == 0
        assert "filtration" in modules
        assert "argparse" not in modules


# one command line per subcommand and mode; the records they build are plain
# classes, so none of them pays for dataclasses and the inspect it imports,
# and no module holds an annotation, so none imports __future__
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


# the same with a seshadri class that does not start with a minus sign,
# so that every line is plain, and a generator list that does: with a
# space in it, argparse reads it as a value, and so does the matcher
PLAIN_LINES = dict(COMMAND_LINES,
                   seshadri=["seshadri", "--A", "2H", "--D", "H - E1"])
PLAIN_LINES["filtration-minus"] = [
    "filtration", "--space", "P2", "--ideals", "-x0 + x1;x1 + x2;x0 + x2",
    "--weights", "1,1/2,1/3", "--N", "2"]


class TestNoDataclasses:
    @pytest.mark.parametrize("name", sorted(COMMAND_LINES))
    def test_command_line(self, name):
        code, modules = run_cli(*COMMAND_LINES[name])
        assert code == 0
        assert not modules & {"dataclasses", "inspect", "__future__"}

    def test_parser(self):
        code = ("import sys\n"
                "from diophkit.cli import build_parser\n"
                "build_parser()\n"
                "names = sorted(m for m in sys.modules if m in %r)\n"
                "import json\n"
                "print(json.dumps([0, names]), file=sys.stderr)" % (WATCHED,))
        assert loaded_by(code) == (0, ARGPARSE)


ARGPARSE = {"argparse", "gettext", "locale"}


class TestNoArgparse:
    """A plain command line is matched without argparse, which gettext and
    locale come with; help, usage errors and every other shape use it."""

    @pytest.mark.parametrize("name", sorted(PLAIN_LINES))
    def test_plain_command_line(self, name):
        code, modules = run_cli(*PLAIN_LINES[name])
        assert code == 0
        assert not modules & ARGPARSE

    def test_scan_config(self, tmp_path):
        from diophkit.experiments import four_lines_config

        path = tmp_path / "config.json"
        path.write_text(json.dumps(four_lines_config().to_json()))
        code, modules = run_cli("scan", "--config", str(path), "--bound", "2")
        assert code == 0
        assert not modules & ARGPARSE

    @pytest.mark.parametrize("expected,argv", [
        (0, ["height", "-h"]),
        (2, ["height", "--point", "2:3", "--bogus"]),
        (0, ["seshadri", "--A", "2H", "--D", "-E1"]),
    ], ids=["help", "usage-error", "minus-class"])
    def test_other_shapes_load_argparse(self, expected, argv):
        code, modules = run_cli(*argv)
        assert code == expected
        assert "argparse" in modules
