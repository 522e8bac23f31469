"""End-to-end command line checks through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diophkit import beta as beta_mod
from diophkit import cli
from diophkit.cli import fmt_rat, main
from diophkit.experiments import InequalityConfig, ScanReport
from diophkit.filtration import FiltrationProfile
from diophkit.graded import Subscheme
from diophkit.heights import PlaceSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_fmt_rat(self):
        from fractions import Fraction

        assert fmt_rat(Fraction(1, 3)) == "1/3 (0.333333333333)"
        assert fmt_rat(Fraction(2)) == "2 (2)"
        assert fmt_rat(Fraction(7, 2), decimals=False) == "7/2"
        assert fmt_rat(float("inf")) == "inf"


class TestWorkedExamples:
    def test_beta_hyperplane(self, capsys):
        code, out, _ = run(capsys, "beta", "--space", "P2", "--ideal", "x0",
                           "--degree", "1", "--N", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "beta = 1/3 (0.333333333333)"
        assert "220/660" in lines[1]

    def test_height(self, capsys):
        code, out, _ = run(capsys, "height", "--point", "2:3")
        assert code == 0
        assert out.splitlines() == ["point = 2:3", "height_norm = 3",
                                    "height = 1.09861228867"]

    def test_example5_table(self, capsys):
        code, out, _ = run(capsys, "example5", "--l-max", "3")
        assert code == 0
        assert out.splitlines() == [
            "l,A_self,A_dot_D,xi,beta,epsilon,seshadri_side,beta_lower",
            "1,13,3,13/6,13/12,1,1/3,3/4",
            "2,37,5,37/10,37/20,2,2/3,3/2",
            "3,73,7,73/14,73/28,3,1,9/4",
        ]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "example5", "--l-max", "5")
        _, second, _ = run(capsys, "example5", "--l-max", "5")
        assert first == second


class TestOutputModes:
    def test_output_flag_position(self, capsys):
        _, before, _ = run(capsys, "--output", "json", "height",
                           "--point", "2:3")
        _, after, _ = run(capsys, "height", "--point", "2:3",
                          "--output", "json")
        assert before == after
        data = json.loads(before)
        assert data["point"] == "2:3" and data["height_norm"] == 3

    def test_beta_convergence_csv(self, capsys):
        code, out, _ = run(capsys, "beta", "--space", "P2", "--ideal", "x0",
                           "--n-max", "3", "--output", "csv")
        assert code == 0
        Y = Subscheme.from_strings("H", ["x0"], nvars=3)
        rows = beta_mod.beta_convergence(Y, 1, 3)
        assert out == "N,numerator,denominator,value,min_so_far\n" + "".join(
            "%d,%d,%d,%s,%s\n" % (r.N, r.numerator, r.denominator, r.value,
                                  r.min_so_far) for r in rows)

    def test_filtration_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "filtration", "--space", "P1",
                           "--ideals", "x0", "--weights", "1", "--N", "2",
                           "--output", "json")
        assert code == 0
        data = json.loads(out)
        profile = FiltrationProfile.from_json(data)
        assert profile.degree == 2 and profile.nvars == 2
        assert data["F"] == "1"

    def test_scan_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "scan", "--four-lines", "--bound", "2",
                           "--output", "json")
        assert code == 0
        report = ScanReport.from_json(json.loads(out))
        assert report.total == 49
        assert report.skipped + report.excluded + report.evaluated == 49


class TestSubcommands:
    def test_beta_crosscheck(self, capsys):
        code, out, _ = run(capsys, "beta", "--space", "P2", "--ideal",
                           "x0,x1", "--N", "3", "--crosscheck")
        assert code == 0
        assert "match        = True" in out
        assert "beta         = 2/3" in out

    def test_beta_surface_plane(self, capsys):
        code, out, _ = run(capsys, "beta-surface", "--A", "H", "--D", "H",
                           "--k", "0", "--N", "2")
        assert code == 0
        assert out.splitlines()[0] == "beta_trunc = 1/3 (0.333333333333)"

    def test_beta_surface_counts_each_section_once(self, capsys, monkeypatch):
        # h^0(6 A) once, then h^0(6 A - m D) for m = 1..19, the last zero
        from diophkit.surface import SurfaceModel

        calls = []
        count = SurfaceModel.zariski_h0
        monkeypatch.setattr(SurfaceModel, "zariski_h0",
                            lambda self, D: calls.append(D) or count(self, D))
        code, out, _ = run(capsys, "beta-surface", "--A", "4H - E1 - E2 - E3",
                           "--D", "H - E1", "--N", "6")
        assert code == 0
        assert len(calls) == 20
        assert len(set(map(str, calls))) == 20

    def test_seshadri_certificates(self, capsys):
        code, out, _ = run(capsys, "seshadri", "--A", "4H - E1 - E2 - E3",
                           "--D", "H - E1")
        assert code == 0
        assert out.splitlines()[0] == "seshadri = 1 (1)"
        assert "E1" in out
        assert "not nef at 101/100" in out

    # argparse alone reads a value with a leading minus sign as an option
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("command,flag,value,rest", [
        ("seshadri", "--D", "-E1", ["--A", "2H"]),
        ("seshadri", "--A", "-E1+2H", ["--D", "H-E1"]),
        ("beta-surface", "--D", "-E1+H", ["--A", "4H-E1", "--N", "2"]),
        ("beta-surface", "--A", "-E1+4H", ["--D", "H-E1", "--N", "2"]),
    ])
    def test_class_with_leading_minus(self, capsys, fmt, command, flag, value,
                                      rest):
        spaced = run(capsys, command, flag, value, *rest, "--output", fmt)
        glued = run(capsys, command, flag + "=" + value, *rest, "--output", fmt)
        assert spaced == glued and spaced[0] == 0 and spaced[1]

    def test_weil_infers_space_from_point(self, capsys):
        code, out, _ = run(capsys, "weil", "--ideal", "x0,x1",
                           "--point", "1:10:100", "--place", "inf")
        assert code == 0
        assert "norm = 10" in out

    def test_weil_multiple_places(self, capsys):
        code, out, _ = run(capsys, "weil", "--ideal", "x0",
                           "--point", "4:5", "--places", "inf,2")
        assert code == 0
        assert "sum = 1.60943791243" in out  # log 5

    def test_adapted_basis_two_weightings(self, capsys):
        code, out, _ = run(capsys, "adapted-basis", "--space", "P1",
                           "--ideals", "x0;x1", "--weights", "1,1",
                           "--weights2", "2,1", "--N", "2",
                           "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element,mu,mu2"
        assert len(lines) == 4  # basis of the degree-2 piece on P^1

    def test_check_position_both_ways(self, capsys):
        code, out, _ = run(capsys, "check-position", "--space", "P1",
                           "--ideals", "x0;x1;x0 + x1")
        assert code == 0 and "ok" in out
        code, out, _ = run(capsys, "check-position", "--space", "P2",
                           "--ideals", "x0;x1;x0 + x1")
        assert code == 0
        assert "violated by {Y1,Y2,Y3}" in out

    def test_concavity_bound_holds(self, capsys):
        code, out, _ = run(capsys, "concavity-test", "--space", "P2",
                           "--ideals", "x0", "--betas", "1/3",
                           "--weights", "3", "--N", "5")
        assert code == 0
        assert "bound holds: True" in out


class TestExitCodes:
    def test_runtime_error_is_one(self, capsys):
        code, out, err = run(capsys, "beta", "--ideal", "x0")
        assert code == 1
        assert err.startswith("error:")

    # three coordinate lines of P^2 meet nowhere, and so do two points of
    # P^1 (the space inferred from x0, x1): the ideal sheaf is O_X, no term
    # vanishes, and beta is not finite
    @pytest.mark.parametrize("argv", [
        ["beta", "--space", "P2", "--ideal", "x0,x1,x2", "--N", "3"],
        ["beta", "--ideal", "x0,x1", "--N", "3"],
        ["concavity-test", "--space", "P2", "--ideals", "x0,x1,x2;x0",
         "--betas", "1/3,1", "--weights", "3/2,1/2", "--N", "3"],
    ], ids=["P2", "inferred-P1", "concavity-test"])
    def test_empty_subscheme_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == ("error: subscheme 'Y1' is empty, so no term vanishes "
                       "and beta is not finite\n")

    # a list of generators with none in it names no subscheme
    @pytest.mark.parametrize("argv", [
        ["beta", "--ideal", ","],
        ["filtration", "--ideals", "x0;,", "--weights", "1,1", "--N", "2"],
    ], ids=["beta", "filtration"])
    def test_no_generator_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: a subscheme needs at least one generator\n"

    # a malformed configuration file is one error line, not a traceback
    @pytest.mark.parametrize("mangle,message", [
        (lambda data: {k: v for k, v in data.items() if k != "betas"},
         "configuration has no 'betas' key"),
        (lambda data: dict(data, subschemes=5),
         "bad 'subschemes' in configuration: 'int' object is not iterable"),
        (lambda data: [data], "a configuration is a JSON object, not list"),
    ], ids=["missing-key", "number-for-list", "top-level-list"])
    def test_malformed_config_is_one(self, tmp_path, mangle, message):
        data = InequalityConfig(
            subschemes=(Subscheme.from_strings("H", ["x0"], nvars=2),),
            betas=("1/3",), places=PlaceSet.from_string("inf,2"),
            epsilon="1/2").to_json()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(mangle(data)))
        code, out, err = fresh(MAIN, ["scan", "--config", str(path),
                                      "--bound", "2"])
        assert code == 1
        assert out == b""
        assert err.decode() == "error: %s\n" % message

    def test_support_hit_is_one(self, capsys):
        code, _, err = run(capsys, "weil", "--ideal", "x0",
                           "--point", "0:1", "--place", "inf")
        assert code == 1
        assert "support" in err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--four-lines"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "height", "--point", "2:3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_violations_are_three(self, capsys, tmp_path):
        config = InequalityConfig(
            subschemes=(Subscheme.from_strings("H", ["x0"], nvars=2),),
            betas=("5",),
            places=PlaceSet.from_string("inf,2,3,5"),
            epsilon="1/2",
        )
        path = tmp_path / "overweight.json"
        path.write_text(json.dumps(config.to_json()))
        code, out, _ = run(capsys, "scan", "--config", str(path),
                           "--bound", "12")
        assert code == 3
        assert "VIOLATION" in out

    def test_clean_scan_is_zero(self, capsys):
        code, _, _ = run(capsys, "scan", "--four-lines", "--bound", "3")
        assert code == 0


# main builds only the parser of the subcommand that argv starts with; the
# full parser, with every subcommand, is the reference it must match
FULL_PARSER = """
import sys
from diophkit import cli
full = cli.build_parser
cli.build_parser = lambda command=None: full()
sys.exit(cli.main())
"""
MAIN = "import sys\nfrom diophkit import cli\nsys.exit(cli.main())\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="100")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestNarrowedParser:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_subcommand_help(self, capsys, monkeypatch, command):
        outputs = []
        for narrowed in (True, False):
            if not narrowed:
                full = cli.build_parser
                monkeypatch.setattr(cli, "build_parser",
                                    lambda command=None: full())
            with pytest.raises(SystemExit) as exc:
                main([command, "-h"])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: diophkit %s " % command)

    @pytest.mark.parametrize("argv", [
        [],
        ["nosuch"],
        ["-h"],
        ["--output", "xml", "beta", "--ideal", "x0", "--N", "2"],
        ["beta", "--ideal", "x0", "--N", "2", "--bogus"],
        ["beta", "--ideal", "x0", "--N", "x"],
        ["--output", "json", "beta", "--ideal", "x0", "--N", "2"],
        ["beta", "--ideal", "x0", "--N", "2", "--output", "json"],
        ["seshadri", "--A", "H", "--D", "-E1"],
    ], ids=["empty", "unknown", "help", "bad-root-option", "unrecognized",
            "bad-value", "output-first", "output-last", "minus-class"])
    def test_fresh_process_matches_full_parser(self, argv):
        narrowed = fresh(MAIN, argv)
        assert narrowed == fresh(FULL_PARSER, argv)
        assert narrowed[0] in (0, 1, 2)
