"""Command line front end.

One subcommand per operation family; numeric flags accept exact rationals
like 3/2.  Output is text by default, or machine-readable with
--output csv / --output json; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 runtime error, 2 usage error, 3 scan
found violations above the height floor.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

# each subcommand imports the modules it runs, so a process loads only those
from .graded import _parse_family, check_general_position

_SPACES = {"P1": 2, "P2": 3, "P3": 4}


def _rat(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational like 3 or 5/7, got %r"
                                         % text)


def _rat_list(text):
    return tuple(_rat(part) for part in text.split(",") if part.strip())


def fmt_rat(q, decimals=True):
    if isinstance(q, float):
        return "inf" if math.isinf(q) else "%.12g" % q
    q = Fraction(q)
    body = str(q.numerator) if q.denominator == 1 \
        else "%d/%d" % (q.numerator, q.denominator)
    if not decimals:
        return body
    return "%s (%.12g)" % (body, float(q))


def _parse_subschemes(text, nvars=None):
    blocks = [b for b in text.split(";") if b.strip()]
    if not blocks:
        raise ValueError("no generators given")
    return _parse_family([("Y%d" % (i + 1), [g for g in b.split(",") if g.strip()])
                          for i, b in enumerate(blocks)], nvars)


def _space_arg(parser):
    parser.add_argument("--space", choices=sorted(_SPACES),
                        help="ambient projective space (else inferred from variables)")


def _common_args(parser):
    # mirrored on each subparser so the flag parses in either position;
    # SUPPRESS keeps the root default from being clobbered
    parser.add_argument("--output", choices=["text", "csv", "json"],
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)


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
    """Write one result to stdout.  json dumps `data` (Fractions as strings);
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


_SCAN_COLUMNS = ("point", "height_norm", "proximities", "lhs_log", "rhs_log",
                 "ratio", "violated")


class _Formatted(dict):
    """float -> "%.12g" % float, each distinct value formatted once.  No
    scan value is -0.0 (the logs are of positive rationals, and their
    sums start at +0.0), so floats that compare equal print the same."""

    def __missing__(self, x):
        text = self[x] = "%.12g" % x
        return text


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

    if args.config:
        import json
        with open(args.config) as fh:
            config = experiments.InequalityConfig.from_json(json.load(fh))
    elif args.four_lines:
        config = experiments.four_lines_config()
    else:
        raise ValueError("need --config FILE or --four-lines")
    report = experiments.scan_inequality(config, bound=args.bound,
                                         keep_rows=args.keep_rows)
    # each format builds only what it prints: csv one line per kept row
    # (else per violation), json the whole report, text the summary
    if args.output == "json":
        _emit("json", report.to_json())
    elif args.output == "csv":
        rows = report.violations if report.rows is None else report.rows
        # a point is ints joined by colons and every other cell a number,
        # so no cell holds a comma, quote or newline and csv.writer would
        # quote nothing: these are its bytes, one write per row
        cell = _Formatted()
        write = sys.stdout.write
        write(",".join(_SCAN_COLUMNS) + "\n")
        for r in rows:
            write("%s,%d,%s,%s,%s,%s,%d\n"
                  % (r.point, r.height_norm, ";".join(map(cell.__getitem__,
                                                          r.proximities)),
                     cell[r.lhs_log], cell[r.rhs_log],
                     "" if r.ratio is None else cell[r.ratio], r.violated))
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


class _Parser(argparse.ArgumentParser):
    """argparse takes a value that starts with a minus sign, and is not a
    number, for an option; so a surface class such as -E1 is glued to its
    option (--D -E1 becomes --D=-E1) before parsing."""

    def parse_known_args(self, args=None, namespace=None):
        glued = []
        for arg in sys.argv[1:] if args is None else args:
            if glued and glued[-1] in ("--A", "--D") and arg.startswith("-") \
                    and not arg.startswith("--"):
                glued[-1] += "=" + arg
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)

    # a root parser narrowed to one subcommand reports its errors through
    # the full parser, whose usage line names every subcommand
    narrowed = False

    def error(self, message):
        if self.narrowed:
            build_parser().error(message)
        super().error(message)


def _beta_args(p):
    _space_arg(p)
    p.add_argument("--ideal", required=True,
                   help="comma-separated generators, e.g. 'x0,x1'")
    p.add_argument("--degree", type=int, default=1,
                   help="polarization degree d (default 1)")
    p.add_argument("--N", type=int, help="truncation level")
    p.add_argument("--n-max", type=int, help="emit a convergence table instead")
    p.add_argument("--crosscheck", action="store_true",
                   help="compare against blow-up section counts (plane point)")


def _beta_surface_args(p):
    p.add_argument("--A", required=True, help="reference class, e.g. '4H - E1 - E2 - E3'")
    p.add_argument("--D", required=True, help="divisor class, e.g. 'H - E1'")
    p.add_argument("--k", type=int, help="number of blown-up points (else inferred)")
    p.add_argument("--N", type=int, required=True)


def _seshadri_args(p):
    p.add_argument("--A", required=True)
    p.add_argument("--D", required=True)
    p.add_argument("--k", type=int)


def _filtration_args(p):
    _space_arg(p)
    p.add_argument("--ideals", required=True,
                   help="subschemes split by ';', generators by ',': 'x0;x1,x2'")
    p.add_argument("--weights", type=_rat_list, required=True,
                   help="comma-separated rational weights")
    p.add_argument("--N", type=int, required=True)


def _adapted_basis_args(p):
    _space_arg(p)
    p.add_argument("--ideals", required=True)
    p.add_argument("--weights", type=_rat_list, required=True)
    p.add_argument("--weights2", type=_rat_list,
                   help="second weight vector for a common adapted basis")
    p.add_argument("--N", type=int, required=True)


def _weil_args(p):
    _space_arg(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--point", required=True, help="colon-separated, e.g. 2:3:1")
    p.add_argument("--place", help="single place: a prime or 'inf'")
    p.add_argument("--places", help="comma list like 'inf,2,3'")


def _height_args(p):
    p.add_argument("--point", required=True)


def _scan_args(p):
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--four-lines", action="store_true",
                   help="use the built-in four-line configuration")
    p.add_argument("--bound", type=int, required=True,
                   help="coordinate bound for the sample")
    p.add_argument("--keep-rows", action="store_true")


def _example5_args(p):
    p.add_argument("--l-max", type=int, required=True)


def _check_position_args(p):
    _space_arg(p)
    p.add_argument("--ideals", required=True)


def _concavity_test_args(p):
    _space_arg(p)
    p.add_argument("--ideals", required=True)
    p.add_argument("--betas", type=_rat_list, required=True)
    p.add_argument("--weights", type=_rat_list, required=True)
    p.add_argument("--N", type=int, required=True)


# name: (help, arguments, runner), in the order the usage line lists them
_COMMANDS = {
    "beta": ("truncated expansion coefficient on P^n", _beta_args, _run_beta),
    "beta-surface": ("truncated expansion value from surface classes",
                     _beta_surface_args, _run_beta_surface),
    "seshadri": ("nef threshold with certificates", _seshadri_args,
                 _run_seshadri),
    "filtration": ("jump profile of the weighted filtration",
                   _filtration_args, _run_filtration),
    "adapted-basis": ("basis adapted to one or two weighted filtrations",
                      _adapted_basis_args, _run_adapted_basis),
    "weil": ("local values of a subscheme at a point", _weil_args, _run_weil),
    "height": ("logarithmic height of a rational point", _height_args,
               _run_height),
    "scan": ("test the weighted inequality on sample points", _scan_args,
             _run_scan),
    "example5": ("closed-form vs Seshadri table for weighted lines",
                 _example5_args, _run_example5),
    "check-position": ("codimension test for intersections",
                       _check_position_args, _run_check_position),
    "concavity-test": ("both sides of the filtration lower bound",
                       _concavity_test_args, _run_concavity_test),
}


def build_parser(command=None):
    """The full parser, or given a subcommand name one that knows only
    that subcommand: it parses an argv starting with that name the same
    way, and reports its own errors through the full parser."""
    parser = _Parser(
        prog="diophkit",
        description="Exact invariants of polarized subschemes: expansion "
                    "coefficients, filtrations, surface intersection theory, "
                    "heights, and inequality scans.")
    parser.add_argument("--output", choices=["text", "csv", "json"],
                        default="text", help="output format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_args, run) in _COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=text)
            add_args(p)
            p.set_defaults(func=run)
            _common_args(p)
    parser.narrowed = command is not None
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # an argv that starts with a subcommand needs only that subcommand's
    # parser; any other shape (a root option first, -h, no or an unknown
    # command) gets the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
