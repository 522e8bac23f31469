"""Command line front end.

One subcommand per operation family; numeric flags accept exact rationals
like 3/2.  Output is text by default, or machine-readable with
--output csv / --output json; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 runtime error, 2 usage error, 3 scan
found violations above the height floor.

Each subcommand's flags are declared once, as (flag, add_argument
keywords) entries of the _COMMANDS table, which two readers share.  A
plain command line (a subcommand, then exact long flags of it, each once,
with values argparse would read the same way) is matched against those
entries by _plain_args, so it runs without argparse; every other one
(help, a usage error, any other shape) goes to build_parser(), the one
argparse parser, which passes each entry to add_argument.  Output modules
(csv, json) are imported only by the branch of _emit that writes them.
A process started at run() ends with os._exit once its output is
flushed, so it skips the interpreter's teardown.
"""

import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

# each subcommand imports the modules it runs, so a process loads only those
from .graded import _parse_family, check_general_position

_SPACES = {"P1": 2, "P2": 3, "P3": 4}
_OUTPUTS = ("text", "csv", "json")


def _rat(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        import argparse

        raise argparse.ArgumentTypeError("expected a rational like 3 or 5/7, got %r"
                                         % text)


def _rat_list(text):
    return tuple(_rat(part) for part in text.split(",") if part.strip())


def fmt_rat(q, decimals=True):
    if isinstance(q, float):
        return "inf" if math.isinf(q) else "%.12g" % q
    q = Fraction(q)
    return "%s (%.12g)" % (q, float(q)) if decimals else str(q)


def _parse_subschemes(text, nvars=None):
    blocks = [b for b in text.split(";") if b.strip()]
    if not blocks:
        raise ValueError("no generators given")
    return _parse_family([("Y%d" % (i + 1), [g for g in b.split(",") if g.strip()])
                          for i, b in enumerate(blocks)], nvars)


def _nvars_from(args):
    return _SPACES[args.space] if args.space else None


def _cell(v):
    if isinstance(v, float):
        return "%.12g" % v
    if v is None:
        return ""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, (list, tuple)):
        return ";".join("%.12g" % x if isinstance(x, float) else str(x) for x in v)
    return v


def _emit(fmt, data, table=None, text=None):
    """Write one result to stdout.  json writes `data` (Fractions as strings);
    csv writes `table`, else `data`: a dict or a nonempty list of dicts
    whose keys are the header; text prints the `text` lines, or the csv
    when there are none."""
    if fmt == "json":
        import json
        print(json.dumps(data, indent=2, default=str))
    elif fmt == "csv" or text is None:
        import csv
        rows = data if table is None else table
        if isinstance(rows, dict):
            rows = [rows]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(rows[0]))
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
    else:
        for line in text:
            print(line)


def _run_beta(args):
    from . import beta

    Ys = _parse_subschemes(args.ideal, _nvars_from(args))
    if len(Ys) != 1:
        raise ValueError("beta takes a single subscheme")
    Y = Ys[0]
    if args.n_max is not None:
        if args.N is not None or args.crosscheck:
            raise ValueError("--n-max takes neither --N nor --crosscheck")
        rows = [vars(r) for r in beta.beta_convergence(Y, args.degree, args.n_max)]
        _emit(args.output, rows,
              text=["N=%-3d value = %-22s min_so_far = %s"
                    % (r["N"], fmt_rat(r["value"]), fmt_rat(r["min_so_far"]))
                    for r in rows])
        return 0
    if args.N is None:
        raise ValueError("need --N (or --n-max for a convergence table)")
    if args.crosscheck:
        rep = beta.beta_blowup_crosscheck(Y, args.degree, args.N)
        _emit(args.output, dict(vars(rep), match=rep.match),
              table=[{"m": m, "graded": a, "blowup": b} for m, (a, b)
                     in enumerate(zip(rep.terms, rep.blowup_terms), 1)],
              text=["terms        = " + ",".join(map(str, rep.terms)),
                    "blowup terms = " + ",".join(map(str, rep.blowup_terms)),
                    "match        = %s" % rep.match,
                    "beta         = " + fmt_rat(rep.value)])
        if not rep.match:
            raise ValueError("graded and blow-up section counts disagree")
        return 0
    rep = beta.beta_truncated(Y, args.degree, args.N)
    _emit(args.output, vars(rep),
          text=["beta = " + fmt_rat(rep.value),
                "numerator/denominator = %d/%d, terms = %s"
                % (rep.numerator, rep.denominator, ",".join(map(str, rep.terms)))])
    return 0


def _model_for(args, *classes):
    from .surface import SurfaceModel

    k = args.k if args.k is not None else max((C.k for C in classes), default=0)
    model = SurfaceModel(k)
    return model, [C.pad(k) for C in classes]


def _run_beta_surface(args):
    from . import surface

    A = surface.parse_class(args.A)
    D = surface.parse_class(args.D)
    model, (A, D) = _model_for(args, A, D)
    value, terms = surface._beta_surface_terms(model, A, D, args.N)
    _emit(args.output, {"N": args.N, "value": value, "terms": terms},
          text=["beta_trunc = " + fmt_rat(value),
                "terms = " + ",".join(map(str, terms))])
    return 0


def _run_seshadri(args):
    from . import surface

    A = surface.parse_class(args.A)
    D = surface.parse_class(args.D)
    model, (A, D) = _model_for(args, A, D)
    rep = model.seshadri_report(A, D)
    tight = [surface.format_class(C) for C in rep.tight]
    witness = None if rep.fail_witness is None \
        else surface.format_class(rep.fail_witness)
    text = ["seshadri = " + fmt_rat(rep.gamma)]
    if tight:
        text.append("tight curves: " + ", ".join(tight))
    text.append("nef at gamma: %s" % rep.nef_at_gamma)
    if rep.fail_gamma is not None:
        text.append("not nef at %s, witness %s"
                    % (fmt_rat(rep.fail_gamma, decimals=False), witness))
    _emit(args.output, {"gamma": fmt_rat(rep.gamma, decimals=False),
                        "tight": tight, "nef_at_gamma": rep.nef_at_gamma,
                        "fail_gamma": rep.fail_gamma, "fail_witness": witness},
          text=text)
    return 0


def _run_filtration(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    profile = filtration.build_profile(Ys, args.weights, args.N)
    F = filtration.F_value(profile)
    _emit(args.output, dict(profile.to_json(), F=F),
          table=[{"nvars": profile.nvars, "degree": profile.degree,
                  "ambient_dim": profile.ambient_dim, "x_num": x.numerator,
                  "x_den": x.denominator, "dim": d} for x, d in profile.jumps],
          text=["dim %-4d up to x = %s" % (d, fmt_rat(x, decimals=False))
                for x, d in profile.jumps] + ["F = " + fmt_rat(F)])
    return 0


def _run_adapted_basis(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    profile = filtration.build_profile(Ys, args.weights, args.N, with_bases=True)
    if args.weights2 is not None:
        other = filtration.build_profile(Ys, args.weights2, args.N,
                                         with_bases=True)
        va, vb = filtration.common_adapted_basis(profile, other)
        rows = [{"element": s.to_string(), "mu": m1, "mu2": m2}
                for s, m1, m2 in zip(va.elements, va.mu_values, vb.mu_values)]
        _emit(args.output, rows,
              text=["mu = %-10s mu' = %-10s %s"
                    % (fmt_rat(r["mu"], decimals=False),
                       fmt_rat(r["mu2"], decimals=False), r["element"])
                    for r in rows])
        return 0
    basis = filtration.adapted_basis(profile)
    rows = [{"element": s.to_string(), "mu": m}
            for s, m in zip(basis.elements, basis.mu_values)]
    _emit(args.output, rows,
          text=["mu = %-10s %s" % (fmt_rat(r["mu"], decimals=False), r["element"])
                for r in rows])
    return 0


def _run_weil(args):
    from . import heights

    P = heights.ProjectivePoint.from_string(args.point)
    nvars = _nvars_from(args) or len(P.coords)
    Ys = _parse_subschemes(args.ideal, nvars)
    if len(Ys) != 1:
        raise ValueError("weil takes a single subscheme")
    Y = Ys[0]
    if args.places and args.place:
        raise ValueError("need --place or --places, not both")
    if args.places:
        places = list(heights.PlaceSet.from_string(args.places))
    elif args.place:
        places = [heights.parse_place(args.place)]
    else:
        raise ValueError("need --place or --places")
    values = []
    for place in places:
        q = heights.weil_norm(Y, P, place)
        values.append({"place": str(place), "norm": q, "log": math.log(q)})
    total = sum(v["log"] for v in values)
    text = ["place %-4s norm = %-14s log = %.12g"
            % (v["place"], fmt_rat(v["norm"], decimals=False), v["log"])
            for v in values]
    if len(values) > 1:
        text.append("sum = %.12g" % total)
    _emit(args.output, {"point": str(P), "values": values, "sum_log": total},
          table=values, text=text)
    return 0


def _run_height(args):
    from . import heights

    P = heights.ProjectivePoint.from_string(args.point)
    norm = heights.height_norm(P)
    h = heights.height(P)
    _emit(args.output, {"point": str(P), "height_norm": norm, "height": h},
          text=["point = %s" % P, "height_norm = %d" % norm,
                "height = %.12g" % h])
    return 0


def _scan_lines(report):
    text = ["points    = %d" % report.total,
            "skipped   = %d (on a subscheme support)" % report.skipped,
            "excluded  = %d (on the exclusion locus)" % report.excluded,
            "evaluated = %d" % report.evaluated,
            "zero-height rows = %d" % report.zero_height,
            "violations above floor = %d" % len(report.violations),
            "violations below floor = %d" % report.low_height_hits]
    r = report.max_ratio_row
    if r is not None:
        text.append("max lhs/rhs = %.12g at %s (height_norm %d)"
                    % (r.ratio, r.point, r.height_norm))
    return text + ["VIOLATION at %s: lhs = %.12g rhs = %.12g"
                   % (r.point, r.lhs_log, r.rhs_log) for r in report.violations]


def _run_scan(args):
    from . import experiments

    if args.config and args.four_lines:
        raise ValueError("need --config FILE or --four-lines, not both")
    if args.config:
        import json
        with open(args.config) as fh:
            config = experiments.InequalityConfig.from_json(json.load(fh))
    elif args.four_lines:
        config = experiments.four_lines_config()
    else:
        raise ValueError("need --config FILE or --four-lines")
    # each format builds only what it prints: csv the kernel's line per
    # kept row (else per violation), json the whole report, text the
    # summary, so text keeps no rows
    report = experiments.scan_inequality(
        config, bound=args.bound,
        keep_rows=args.keep_rows and args.output != "text",
        csv_rows=args.output == "csv")
    if args.output == "json":
        _emit("json", report.to_json())
    elif args.output == "csv":
        rows = report.violations if report.rows is None else report.rows
        sys.stdout.write(",".join(experiments._SCAN_COLUMNS) + "\n"
                         + "".join(rows))
    else:
        _emit("text", None, text=_scan_lines(report))
    return 3 if report.violations else 0


def _run_example5(args):
    from . import experiments

    _emit(args.output, [vars(r) for r in experiments.four_lines_table(args.l_max)])
    return 0


def _run_check_position(args):
    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    rep = check_general_position(Ys)
    if rep.ok:
        text = ["general position: ok"]
    else:
        text = ["general position: violated by {%s}"
                % ",".join(Ys[i].label for i in rep.witness)]
    _emit(args.output, vars(rep), text=text)
    return 0


def _run_concavity_test(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    rep = filtration.concavity_bound(Ys, args.betas, args.weights, args.N)
    data = dict(vars(rep), holds=rep.holds)
    _emit(args.output, data,
          table={k: data[k] for k in ("lhs", "rhs", "hypotheses_met", "holds",
                                      "per_subscheme")},
          text=["lhs F(t) = " + fmt_rat(rep.lhs),
                "rhs bound = " + fmt_rat(rep.rhs),
                "hypotheses met: %s" % rep.hypotheses_met,
                "bound holds: %s" % rep.holds])
    if args.output == "text" and rep.hypotheses_met and not rep.holds:
        raise ValueError("lower bound failed under its hypotheses")
    return 0


# flags that several subcommands declare alike
_SPACE = ("--space", dict(
    choices=sorted(_SPACES),
    help="ambient projective space (else inferred from variables)"))
_N = ("--N", dict(type=int, required=True))
_REQUIRED = dict(required=True)
_RATS = dict(type=_rat_list, required=True)

# name: (help, runner, [(flag, add_argument keywords), ...]), in the order
# the usage line lists them: the grammar that build_parser() and
# _plain_args both read
_COMMANDS = {
    "beta": ("truncated expansion coefficient on P^n", _run_beta, [
        _SPACE,
        ("--ideal", dict(required=True,
                         help="comma-separated generators, e.g. 'x0,x1'")),
        ("--degree", dict(type=int, default=1,
                          help="polarization degree d (default 1)")),
        ("--N", dict(type=int, help="truncation level")),
        ("--n-max", dict(type=int, help="emit a convergence table instead")),
        ("--crosscheck", dict(
            action="store_true",
            help="compare against blow-up section counts (plane point)"))]),
    "beta-surface": ("truncated expansion value from surface classes",
                     _run_beta_surface, [
        ("--A", dict(required=True,
                     help="reference class, e.g. '4H - E1 - E2 - E3'")),
        ("--D", dict(required=True, help="divisor class, e.g. 'H - E1'")),
        ("--k", dict(type=int,
                     help="number of blown-up points (else inferred)")),
        _N]),
    "seshadri": ("nef threshold with certificates", _run_seshadri, [
        ("--A", _REQUIRED), ("--D", _REQUIRED), ("--k", dict(type=int))]),
    "filtration": ("jump profile of the weighted filtration",
                   _run_filtration, [
        _SPACE,
        ("--ideals", dict(
            required=True,
            help="subschemes split by ';', generators by ',': 'x0;x1,x2'")),
        ("--weights", dict(_RATS, help="comma-separated rational weights")),
        _N]),
    "adapted-basis": ("basis adapted to one or two weighted filtrations",
                      _run_adapted_basis, [
        _SPACE, ("--ideals", _REQUIRED), ("--weights", _RATS),
        ("--weights2", dict(
            type=_rat_list,
            help="second weight vector for a common adapted basis")),
        _N]),
    "weil": ("local values of a subscheme at a point", _run_weil, [
        _SPACE, ("--ideal", _REQUIRED),
        ("--point", dict(required=True, help="colon-separated, e.g. 2:3:1")),
        ("--place", dict(help="single place: a prime or 'inf'")),
        ("--places", dict(help="comma list like 'inf,2,3'"))]),
    "height": ("logarithmic height of a rational point", _run_height,
               [("--point", _REQUIRED)]),
    "scan": ("test the weighted inequality on sample points", _run_scan, [
        ("--config", dict(help="JSON configuration file")),
        ("--four-lines", dict(
            action="store_true",
            help="use the built-in four-line configuration")),
        ("--bound", dict(type=int, required=True,
                         help="coordinate bound for the sample")),
        ("--keep-rows", dict(action="store_true"))]),
    "example5": ("closed-form vs Seshadri table for weighted lines",
                 _run_example5, [("--l-max", dict(type=int, required=True))]),
    "check-position": ("codimension test for intersections",
                       _run_check_position, [_SPACE, ("--ideals", _REQUIRED)]),
    "concavity-test": ("both sides of the filtration lower bound",
                       _run_concavity_test, [
        _SPACE, ("--ideals", _REQUIRED), ("--betas", _RATS),
        ("--weights", _RATS), _N]),
}

# --output, which the root parser and every subcommand take
_OUTPUT = dict(choices=_OUTPUTS, default="text",
               help="output format (default text)")


def build_parser():
    """The argparse parser of every subcommand, built from _COMMANDS; a
    plain command line never imports argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse takes a value that starts with a minus sign, and is not
        a number, for an option; so a surface class such as -E1 is glued
        to its option (--D -E1 becomes --D=-E1) before parsing."""

        def parse_known_args(self, args=None, namespace=None):
            glued = []
            for arg in sys.argv[1:] if args is None else args:
                if glued and glued[-1] in ("--A", "--D") \
                        and arg.startswith("-") and not arg.startswith("--"):
                    glued[-1] += "=" + arg
                else:
                    glued.append(arg)
            return super().parse_known_args(glued, namespace)

    parser = Parser(
        prog="diophkit",
        description="Exact invariants of polarized subschemes: expansion "
                    "coefficients, filtrations, surface intersection theory, "
                    "heights, and inequality scans.")
    parser.add_argument("--output", **_OUTPUT)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, run, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=run)
        # mirrored on each subparser so the flag parses in either
        # position; SUPPRESS keeps the root default from being clobbered
        p.add_argument("--output", choices=_OUTPUTS,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


def _plain_args(argv):
    """What build_parser().parse_args(argv) returns, for a plain argv: a
    subcommand followed by exact long flags of it, each given once, no
    value starting with a minus sign unless it is a single one and the
    value holds a space (as in -x0 + x1,x2), each value accepted by its
    flag's type and choices, and every required flag present.  None for
    any other argv, which argparse parses (or rejects) instead.  Each flag
    is read off its _COMMANDS entry: an action is store_true, and its dest
    is the flag without its dashes, - read as _."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, run, arguments = _COMMANDS[argv[0]]
    flags = {flag: (flag.lstrip("-").replace("-", "_"), keywords)
             for flag, keywords in arguments + [("--output", _OUTPUT)]}
    values = {dest: keywords.get("default", False if "action" in keywords
                                 else None)
              for dest, keywords in flags.values()}
    values.update(command=argv[0], func=run)
    given = set()
    rest = iter(argv[1:])
    for flag in rest:
        if flag in given or flag not in flags:
            return None
        given.add(flag)
        dest, keywords = flags[flag]
        if "action" in keywords:
            values[dest] = True
            continue
        value = next(rest, "-")
        # argparse takes an argument that starts with a minus sign for an
        # option, unless it starts with just one, holds a space and no
        # option prefixes it (-h is the one single-dash option)
        if value.startswith("-") and (
                " " not in value or value.startswith(("--", "-h"))):
            return None
        convert = keywords.get("type")
        if convert is not None:
            # whatever the type raises, argparse reports it its own way
            try:
                value = convert(value)
            except Exception:
                return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if any(keywords.get("required") and flag not in given
           for flag, (_, keywords) in flags.items()):
        return None
    return SimpleNamespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def run():
    """Process entry of ``python -m diophkit``, ``python -m diophkit.cli``
    and the ``diophkit`` script.  Once main returns, stdout and stderr are
    flushed and the process ends with ``os._exit`` and main's code,
    skipping the interpreter's teardown: nothing diophkit holds needs
    finalizing (it registers no atexit handler, starts no thread and
    leaves no file open but the std streams).  A flush that fails on a
    closed pipe exits 1 without a word, as main does for a broken pipe.
    Help and usage errors leave through argparse's SystemExit and the
    normal teardown.  main itself returns: tests and library callers run
    it inside their own processes."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
