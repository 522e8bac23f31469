"""End-to-end command line checks through main(argv)."""

import contextlib
import gc
import importlib
import io
import json
import os
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophkit import beta as beta_mod
from diophkit import cli
from diophkit.cli import fmt_rat, main
from diophkit.experiments import (InequalityConfig, four_lines_config,
                                  scan_inequality)
from diophkit.filtration import F_value, build_profile
from diophkit.graded import Subscheme
from diophkit.heights import PlaceSet

from fresh_env import SRC, fresh_env


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
        profile = build_profile([Subscheme.from_strings("Y1", ["x0"], nvars=2)],
                                [1], 2)
        assert json.loads(out) == dict(profile.to_json(),
                                       F=str(F_value(profile)))
        assert profile.degree == 2 and profile.nvars == 2
        assert F_value(profile) == 1

    def test_scan_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "scan", "--four-lines", "--bound", "2",
                           "--output", "json")
        assert code == 0
        report = scan_inequality(four_lines_config(), bound=2)
        assert json.loads(out) == report.to_json()
        assert report.total == 49


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

    # text prints no row, so only csv and json ask the scan to keep them,
    # and only csv asks for its rows as csv lines
    @pytest.mark.parametrize("fmt,keep", [("text", False), ("csv", True),
                                          ("json", True)])
    def test_scan_keeps_rows_only_to_print_them(self, capsys, monkeypatch,
                                                fmt, keep):
        from diophkit import experiments

        asked = []
        scan = experiments.scan_inequality

        def spy(config, bound, keep_rows, csv_rows):
            asked.append((keep_rows, csv_rows))
            return scan(config, bound=bound, keep_rows=keep_rows,
                        csv_rows=csv_rows)

        monkeypatch.setattr(experiments, "scan_inequality", spy)
        argv = ["scan", "--four-lines", "--bound", "3", "--output", fmt]
        kept = run(capsys, *argv, "--keep-rows")
        plain = run(capsys, *argv)
        assert asked == [(keep, fmt == "csv"), (False, fmt == "csv")]
        assert kept[0] == plain[0] == 0
        if fmt == "text":
            assert kept == plain

    def test_seshadri_certificates(self, capsys):
        code, out, _ = run(capsys, "seshadri", "--A", "4H - E1 - E2 - E3",
                           "--D", "H - E1")
        assert code == 0
        assert out.splitlines()[0] == "seshadri = 1 (1)"
        assert "E1" in out
        assert "not nef at 101/100" in out

    def test_seshadri_unbounded(self, capsys):
        argv = ["seshadri", "--A", "H", "--D", "0", "--k", "1", "--output"]
        assert run(capsys, *argv, "text") == \
            (0, "seshadri = inf\nnef at gamma: True\n", "")
        code, out, _ = run(capsys, *argv, "csv")
        assert code == 0 and out.splitlines()[1] == "inf,,1,,"
        code, out, _ = run(capsys, *argv, "json")
        data = json.loads(out)
        assert code == 0
        assert (data["gamma"], data["tight"], data["fail_gamma"]) == ("inf", [], None)

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


def overweight_scan(tmp_path):
    """A scan whose hyperplane weight 5 breaks the inequality: exit 3."""
    config = InequalityConfig(
        subschemes=(Subscheme.from_strings("H", ["x0"], nvars=2),),
        betas=("5",),
        places=PlaceSet.from_string("inf,2,3,5"),
        epsilon="1/2",
    )
    path = tmp_path / "overweight.json"
    path.write_text(json.dumps(config.to_json()))
    return ["scan", "--config", str(path), "--bound", "12"]


class TestExitCodes:
    def test_runtime_error_is_one(self, capsys):
        code, out, err = run(capsys, "beta", "--ideal", "x0")
        assert code == 1
        assert err.startswith("error:")

    # three coordinate lines of P^2 meet nowhere, and so do two points of
    # P^1 (the space inferred from x0, x1), three coordinate conics and
    # two conics with a line pair through none of their points: the ideal
    # sheaf is O_X, no term vanishes, and beta is not finite
    @pytest.mark.parametrize("argv", [
        ["beta", "--space", "P2", "--ideal", "x0,x1,x2", "--N", "3"],
        ["beta", "--ideal", "x0,x1", "--N", "3"],
        ["concavity-test", "--space", "P2", "--ideals", "x0,x1,x2;x0",
         "--betas", "1/3,1", "--weights", "3/2,1/2", "--N", "3"],
        ["beta", "--space", "P2", "--ideal", "x0^2,x1^2,x2^2", "--N", "4"],
        ["beta", "--space", "P2", "--ideal", "x0^2+x1^2,x1^2+x2^2,x0*x2",
         "--N", "4"],
        ["concavity-test", "--space", "P2", "--ideals", "x0^2,x1^2,x2^2;x0",
         "--betas", "1/3,1", "--weights", "3/2,1/2", "--N", "4"],
    ], ids=["P2", "inferred-P1", "concavity-test", "conics", "conics-tilted",
            "concavity-test-conics"])
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

    # beta and weil take one subscheme, and a list of subschemes with none
    # in it names no generator
    @pytest.mark.parametrize("argv,message", [
        (["beta", "--space", "P2", "--ideal", "x0;x1", "--N", "2"],
         "beta takes a single subscheme"),
        (["weil", "--ideal", "x0;x1", "--point", "2:3", "--place", "inf"],
         "weil takes a single subscheme"),
        (["check-position", "--space", "P2", "--ideals", ";"],
         "no generators given"),
    ], ids=["beta", "weil", "no-generators"])
    def test_subscheme_count_is_one(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message)

    # a level below 1 gets the level error, not one about the reference
    # class counted at that level
    @pytest.mark.parametrize("level", [["--N", "0"], ["--N=-2"]],
                             ids=["zero", "negative"])
    def test_nonpositive_surface_level_is_one(self, capsys, level):
        code, out, err = run(capsys, "beta-surface", "--A", "2H-E1", "--D",
                             "H-E1", *level)
        assert (code, out, err) == \
            (1, "", "error: N must be a positive integer\n")

    # a zero denominator is an error line naming where it is
    @pytest.mark.parametrize("argv,message", [
        (["height", "--point", "1/0:2"],
         "coordinate 0 of point '1/0:2' has a zero denominator: '1/0'"),
        (["beta", "--space", "P2", "--ideal", "1/0*x0", "--N", "2"],
         "zero denominator at position 0: '1/0'"),
        (["beta-surface", "--A", "H - 1/0E1", "--D", "E1", "--N", "2"],
         "term '1/0E1' of class 'H - 1/0E1' has a zero denominator"),
        (["seshadri", "--A", "4H", "--D", "1/0E1 + E2"],
         "term '1/0E1' of class '1/0E1 + E2' has a zero denominator"),
    ], ids=["point", "generator", "beta-surface", "seshadri"])
    def test_zero_denominator_is_one(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message)

    # so is a coordinate that is not a rational number
    @pytest.mark.parametrize("argv,message", [
        (["height", "--point", "1:x"],
         "coordinate 1 of point '1:x' is not a rational number: 'x'"),
        (["weil", "--ideal", "x0", "--point", "2:y:1", "--place", "inf"],
         "coordinate 1 of point '2:y:1' is not a rational number: 'y'"),
    ], ids=["height", "weil"])
    def test_bad_coordinate_is_one(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message)

    # a malformed configuration file is one error line, not a traceback
    @pytest.mark.parametrize("mangle,message", [
        (lambda data: {k: v for k, v in data.items() if k != "betas"},
         "configuration has no 'betas' key"),
        (lambda data: dict(data, subschemes=5),
         "bad 'subschemes' in configuration: 'int' object is not iterable"),
        (lambda data: [data], "a configuration is a JSON object, not list"),
        (lambda data: dict(data, epsilon="1/0"),
         "bad 'epsilon' in configuration: '1/0' has a zero denominator"),
    ], ids=["missing-key", "number-for-list", "top-level-list",
            "zero-denominator"])
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

    # a flag that another one would override is an error, not ignored, and
    # so is a choice of flags given neither way; the runner checks both, so
    # the argparse path (a glued --output=text) gives the same line
    @pytest.mark.parametrize("argv,message", [
        (lambda tmp_path: overweight_scan(tmp_path) + ["--four-lines"],
         "need --config FILE or --four-lines, not both"),
        (lambda tmp_path: ["beta", "--ideal", "x0,x1", "--n-max", "3",
                           "--N", "2"],
         "--n-max takes neither --N nor --crosscheck"),
        (lambda tmp_path: ["beta", "--ideal", "x0,x1", "--n-max", "3",
                           "--crosscheck"],
         "--n-max takes neither --N nor --crosscheck"),
        (lambda tmp_path: ["weil", "--ideal", "x0", "--point", "2:3",
                           "--places", "inf,2", "--place", "3"],
         "need --place or --places, not both"),
        (lambda tmp_path: ["scan", "--bound", "2"],
         "need --config FILE or --four-lines"),
        (lambda tmp_path: ["weil", "--ideal", "x0", "--point", "2:3"],
         "need --place or --places"),
    ], ids=["scan", "beta-N", "beta-crosscheck", "weil", "scan-neither",
            "weil-neither"])
    @pytest.mark.parametrize("tail", [[], ["--output=text"]],
                             ids=["plain", "argparse"])
    def test_conflicting_flags_are_one(self, capsys, tmp_path, argv, message,
                                       tail):
        code, out, err = run(capsys, *argv(tmp_path), *tail)
        assert (code, out, err) == (1, "", "error: %s\n" % message)

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
        code, out, _ = run(capsys, *overweight_scan(tmp_path))
        assert code == 3
        assert "VIOLATION" in out

    def test_clean_scan_is_zero(self, capsys):
        code, _, _ = run(capsys, "scan", "--four-lines", "--bound", "3")
        assert code == 0


# main matches a plain argv without argparse and hands every other argv to
# build_parser(); that parser alone, with no matcher, is the reference
FULL_PARSER = """
import sys
from diophkit import cli
cli._plain_args = lambda argv: None
sys.exit(cli.main())
"""
MAIN = "import sys\nfrom diophkit import cli\nsys.exit(cli.main())\n"


def fresh(code, argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=fresh_env(COLUMNS="100"), capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestFullParser:
    """The argvs that main leaves to build_parser()."""

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_subcommand_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: diophkit %s " % command)

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
        result = fresh(MAIN, argv)
        assert result == fresh(FULL_PARSER, argv)
        assert result[0] in (0, 1, 2)


def argparse_result(argv):
    """vars() of the full parser's namespace for argv, or None where it
    exits (a usage error or help)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


# candidate values of a flag by its type: plain ones (a single leading minus
# sign is plain in a value that holds a space), and ones that are off the
# plain shape or that the type rejects
VALUES = {
    None: (["x0", "x0,x1", "x0 + x1;x1 - x2", "2:3", "inf,2", "4H - E1", "",
            "-x0 + x1,x2", "-2*x0 + x2 + x3,x0 + x1", "- x0", "-E1 + H",
            "x0=x1", "-x0 = x1 + x2"],
           ["-E1", "-x0", "--N", "-h", "-h x0", "-hx0 + x1", "-h=x0 + x1",
            "--x", "--x0 + x1", "--x=x0 + x1", "-x0=x1", "-3", "-"]),
    int: (["0", "2", "7", " 3", "-3 "], ["-1", "-3", "x", "1.5", "", "--",
                                         "-h 3", "--3 "]),
    cli._rat_list: (["1", "1,1/2", "1/3,1/2,1", "3/2,", "-1/2, 1"],
                    ["-1/2", "-1/2,1", "1/0", "a,1", "", "-h 1"]),
}


def mutate(argv, data):
    """argv (a command and its flag groups) with at most one change that
    takes it off the plain shape, or leaves it for argparse to reject."""
    command, groups = argv[0], argv[1:]
    kind = data.draw(st.sampled_from([
        "none", "abbreviate", "glue", "repeat", "unknown", "help", "dashdash",
        "drop", "root-output"]))
    at = data.draw(st.integers(0, len(groups)))
    if kind == "root-output":
        return ["--output", data.draw(st.sampled_from(["csv", "xml"])),
                command] + [w for g in groups for w in g]
    if kind == "help":
        groups.insert(at, ["-h"])
    elif kind == "dashdash":
        groups.insert(at, ["--"])
    elif kind == "unknown":
        groups.insert(at, data.draw(st.sampled_from([["--bogus"],
                                                     ["--bogus", "1"]])))
    elif groups and kind != "none":
        i = at % len(groups)
        flag = groups[i][0]
        if kind == "abbreviate":
            groups[i] = [flag[:data.draw(st.integers(2, len(flag) - 1))]] \
                + groups[i][1:]
        elif kind == "glue" and len(groups[i]) == 2:
            groups[i] = [flag + "=" + groups[i][1]]
        elif kind == "repeat":
            groups.insert(at, list(groups[i]))
        elif kind == "drop":
            del groups[i]
    return [command] + [w for g in groups for w in g]


@st.composite
def command_lines(draw):
    """A subcommand and flags drawn from its _COMMANDS entry and --output
    (every required one, others at random, in any order; one value in four
    not plain or rejected), then mutated."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = sorted(cli._COMMANDS[command][2] + [("--output", cli._OUTPUT)])
    groups = [[flag] for flag, keywords in flags
              if "action" in keywords and draw(st.booleans())]
    for flag, keywords in flags:
        if "action" in keywords:
            continue
        choices = keywords.get("choices")
        if keywords.get("required") or draw(st.booleans()):
            good, bad = (list(choices), ["P9"]) if choices \
                else VALUES[keywords.get("type")]
            pool = bad if draw(st.integers(0, 3)) == 3 else good
            groups.append([flag, draw(st.sampled_from(pool))])
    groups = draw(st.permutations(groups))
    return mutate([command] + groups, draw(st.data()))


class TestPlainMatcher:
    """The matcher answers None or exactly what the full argparse parser
    returns; it never accepts an argv that argparse rejects."""

    @settings(max_examples=400)
    @given(command_lines())
    def test_matches_argparse(self, argv):
        got = cli._plain_args(argv)
        if got is not None:
            assert vars(got) == argparse_result(argv)

    # one plain argv per subcommand, every flag type among them
    @pytest.mark.parametrize("argv", [
        ["beta", "--space", "P2", "--ideal", "x0,x1", "--N", "3",
         "--crosscheck", "--output", "json"],
        ["beta", "--n-max", "3", "--ideal", "x0", "--degree", "2"],
        ["beta-surface", "--A", "4H - E1", "--D", "H - E1", "--N", "2"],
        ["seshadri", "--A", "2H", "--D", "H - E1", "--k", "2"],
        ["filtration", "--ideals", "x0;x1", "--weights", "1,1/2", "--N", "3"],
        ["adapted-basis", "--ideals", "x0;x1", "--weights", "1,1",
         "--weights2", "2,1", "--N", "2", "--space", "P1"],
        ["weil", "--ideal", "x0", "--point", "2:3", "--places", "inf,2"],
        ["height", "--point", "2:3", "--output", "csv"],
        ["scan", "--keep-rows", "--four-lines", "--bound", "3"],
        ["scan", "--config", "plane.json", "--bound", "3"],
        ["example5", "--l-max", "2"],
        ["check-position", "--ideals", "x0;x1"],
        ["concavity-test", "--ideals", "x0", "--betas", "1/3", "--weights",
         "3", "--N", "5"],
        ["beta", "--space", "P3", "--ideal", "-2*x0 + x2 + x3,x0 + x1",
         "--n-max", "3"],
        ["filtration", "--ideals", "-x0 + x1;x1 - x2", "--weights", "-1/2, 1",
         "--N", "-2 "],
    ])
    def test_plain_argv_is_matched(self, argv):
        got = cli._plain_args(argv)
        assert got is not None
        assert vars(got) == argparse_result(argv)

    # argparse reads each of these, and the matcher leaves them to it
    @pytest.mark.parametrize("argv", [
        ["--output", "csv", "height", "--point", "2:3"],
        ["height", "--poin", "2:3"],
        ["height", "--point=2:3"],
        ["height", "--point", "1:2", "--point", "2:3"],
        ["seshadri", "--A", "2H", "--D", "-E1"],
        ["beta", "--ideal", "x0", "--N", "-1"],
        ["beta", "--ideal", "--x0 + x1", "--N", "2"],
    ], ids=["root-output", "abbreviated", "glued", "repeated", "minus-class",
            "minus-number", "double-minus"])
    def test_other_shapes_go_to_argparse(self, argv):
        assert cli._plain_args(argv) is None
        assert argparse_result(argv) is not None


def in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) in this process, usage
    errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# more than the 8 KiB stdout buffer, so output is written during main and
# the rest flushed by cli.run before it ends the process
LONG_OUTPUT = ["scan", "--four-lines", "--bound", "10", "--keep-rows", "--output",
               "csv"]


class TestProcessEntry:
    """``python -m diophkit`` and the installed script run cli.run, which
    flushes stdout and stderr and ends the process with main's code,
    without the interpreter's teardown; main itself returns, and leaves
    the collector of its caller's process alone."""

    @pytest.mark.parametrize("expected,argv", [
        (0, lambda tmp_path: ["scan", "--four-lines", "--bound", "3"]),
        (1, lambda tmp_path: ["beta", "--space", "P2", "--ideal",
                              "x0^2,x1^2,x2^2", "--N", "4"]),
        (2, lambda tmp_path: ["beta", "--ideal", "x0", "--N", "x"]),
        (3, overweight_scan),
    ], ids=["clean", "runtime-error", "usage-error", "violations"])
    @pytest.mark.parametrize("module", ["diophkit", "diophkit.cli"])
    def test_module_matches_main(self, capsys, monkeypatch, tmp_path,
                                 module, expected, argv):
        argv = argv(tmp_path)
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              env=fresh_env(COLUMNS="100"),
                              capture_output=True, text=True)
        monkeypatch.setenv("COLUMNS", "100")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            in_process(capsys, argv)
        assert proc.returncode == expected

    def test_output_beyond_the_buffer_matches_main(self, capsys):
        proc = subprocess.run([sys.executable, "-m", "diophkit", *LONG_OUTPUT],
                              env=fresh_env(), capture_output=True)
        assert len(proc.stdout) > 8192
        code, out, err = in_process(capsys, LONG_OUTPUT)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, out.encode(), err.encode())

    # a closed pipe fails the flush in cli.run, or (long output) a write in
    # main first
    @pytest.mark.parametrize("argv", [["height", "--point", "2:3"], LONG_OUTPUT],
                             ids=["short", "long"])
    def test_closed_pipe_exits_one_silently(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "diophkit", *argv],
                                  env=fresh_env(), stdout=write,
                                  stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert main(["beta", "--space", "P2", "--ideal", "x0", "--N", "3"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()

    def test_script_is_the_module_entry(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["diophkit"]
        module, name = target.split(":")
        assert getattr(importlib.import_module(module), name) is cli.run
        calls = []
        monkeypatch.setattr(cli, "run", lambda: calls.append(True))
        runpy.run_module("diophkit", run_name="__main__")
        assert calls == [True]
