"""Command line front end.

One subcommand per operation family; numeric flags accept exact rationals
like 3/2.  Output is text by default, or machine-readable with
--output csv / --output json; identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 runtime error, 2 usage error, 3 scan
found violations above the height floor.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

# each subcommand imports the modules it runs, so a process loads only those
from .graded import Subscheme, check_general_position

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
    drafts = [Subscheme.from_strings("Y%d" % (i + 1),
                                     [g for g in b.split(",") if g.strip()],
                                     nvars=nvars)
              for i, b in enumerate(blocks)]
    if nvars is None:
        width = max(Y.nvars for Y in drafts)
        drafts = [Y if Y.nvars == width
                  else Subscheme.from_strings(Y.label,
                                              [g.to_string() for g in Y.generators],
                                              nvars=width)
                  for Y in drafts]
    return drafts


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


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _emit_json(data):
    print(json.dumps(data, indent=2))


def _run_beta(args):
    from . import beta

    Ys = _parse_subschemes(args.ideal, _nvars_from(args))
    if len(Ys) != 1:
        raise ValueError("beta takes a single subscheme")
    Y = Ys[0]
    if args.n_max is not None:
        rows = beta.beta_convergence(Y, args.degree, args.n_max)
        if args.output == "json":
            _emit_json([{"N": r.N, "numerator": r.numerator,
                         "denominator": r.denominator, "value": str(r.value),
                         "min_so_far": str(r.min_so_far)} for r in rows])
        elif args.output == "csv":
            sys.stdout.write(beta.convergence_csv(rows))
        else:
            for r in rows:
                print("N=%-3d value = %-22s min_so_far = %s"
                      % (r.N, fmt_rat(r.value), fmt_rat(r.min_so_far)))
        return 0
    if args.N is None:
        raise ValueError("need --N (or --n-max for a convergence table)")
    if args.crosscheck:
        rep = beta.beta_blowup_crosscheck(Y, args.degree, args.N)
        if args.output == "json":
            _emit_json({"terms": list(rep.terms),
                        "blowup_terms": list(rep.blowup_terms),
                        "value": str(rep.value), "match": rep.match})
        elif args.output == "csv":
            _emit_csv(["m", "graded", "blowup"],
                      [(m + 1, a, b) for m, (a, b)
                       in enumerate(zip(rep.terms, rep.blowup_terms))])
        else:
            print("terms        =", ",".join(map(str, rep.terms)))
            print("blowup terms =", ",".join(map(str, rep.blowup_terms)))
            print("match        =", rep.match)
            print("beta         =", fmt_rat(rep.value))
        if not rep.match:
            raise ValueError("graded and blow-up section counts disagree")
        return 0
    rep = beta.beta_truncated(Y, args.degree, args.N)
    if args.output == "json":
        _emit_json({"N": rep.N, "numerator": rep.numerator,
                    "denominator": rep.denominator, "value": str(rep.value),
                    "terms": list(rep.terms)})
    elif args.output == "csv":
        _emit_csv(["N", "numerator", "denominator", "value", "terms"],
                  [(rep.N, rep.numerator, rep.denominator, str(rep.value),
                    ";".join(map(str, rep.terms)))])
    else:
        print("beta =", fmt_rat(rep.value))
        print("numerator/denominator = %d/%d, terms = %s"
              % (rep.numerator, rep.denominator, ",".join(map(str, rep.terms))))
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
    value = surface.beta_surface_truncated(model, A, D, args.N)
    terms = surface.h0_terms(model, A, D, args.N)
    if args.output == "json":
        _emit_json({"N": args.N, "value": str(value), "terms": terms})
    elif args.output == "csv":
        _emit_csv(["N", "value", "terms"],
                  [(args.N, str(value), ";".join(map(str, terms)))])
    else:
        print("beta_trunc =", fmt_rat(value))
        print("terms =", ",".join(map(str, terms)))
    return 0


def _run_seshadri(args):
    from . import surface

    A = surface.parse_class(args.A)
    D = surface.parse_class(args.D)
    model, (A, D) = _model_for(args, A, D)
    rep = model.seshadri_report(A, D)
    gamma = rep.gamma
    if args.output == "json":
        _emit_json({
            "gamma": "inf" if isinstance(gamma, float) else str(gamma),
            "tight": [surface.format_class(C) for C in rep.tight],
            "nef_at_gamma": rep.nef_at_gamma,
            "fail_gamma": None if rep.fail_gamma is None else str(rep.fail_gamma),
            "fail_witness": None if rep.fail_witness is None
            else surface.format_class(rep.fail_witness),
        })
    elif args.output == "csv":
        _emit_csv(["gamma", "tight", "nef_at_gamma", "fail_gamma", "fail_witness"],
                  [("inf" if isinstance(gamma, float) else str(gamma),
                    ";".join(surface.format_class(C) for C in rep.tight),
                    int(rep.nef_at_gamma),
                    "" if rep.fail_gamma is None else str(rep.fail_gamma),
                    "" if rep.fail_witness is None
                    else surface.format_class(rep.fail_witness))])
    else:
        print("seshadri =", fmt_rat(gamma))
        if rep.tight:
            print("tight curves:", ", ".join(surface.format_class(C)
                                             for C in rep.tight))
        print("nef at gamma:", rep.nef_at_gamma)
        if rep.fail_gamma is not None:
            print("not nef at %s, witness %s"
                  % (fmt_rat(rep.fail_gamma, decimals=False),
                     surface.format_class(rep.fail_witness)))
    return 0


def _run_filtration(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    profile = filtration.build_profile(Ys, args.weights, args.N)
    F = filtration.F_value(profile)
    if args.output == "json":
        data = profile.to_json()
        data["F"] = str(F)
        _emit_json(data)
    elif args.output == "csv":
        _emit_csv(["nvars", "degree", "ambient_dim", "x_num", "x_den", "dim"],
                  [(profile.nvars, profile.degree, profile.ambient_dim,
                    x.numerator, x.denominator, d) for x, d in profile.jumps])
    else:
        for x, d in profile.jumps:
            print("dim %-4d up to x = %s" % (d, fmt_rat(x, decimals=False)))
        print("F =", fmt_rat(F))
    return 0


def _run_adapted_basis(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    profile = filtration.build_profile(Ys, args.weights, args.N, with_bases=True)
    if args.weights2 is not None:
        other = filtration.build_profile(Ys, args.weights2, args.N,
                                         with_bases=True)
        va, vb = filtration.common_adapted_basis(profile, other)
        triples = list(zip(va.elements, va.mu_values, vb.mu_values))
        if args.output == "json":
            _emit_json([{"element": s.to_string(), "mu": str(m1), "mu2": str(m2)}
                        for s, m1, m2 in triples])
        elif args.output == "csv":
            _emit_csv(["element", "mu", "mu2"],
                      [(s.to_string(), str(m1), str(m2))
                       for s, m1, m2 in triples])
        else:
            for s, m1, m2 in triples:
                print("mu = %-10s mu' = %-10s %s"
                      % (fmt_rat(m1, decimals=False),
                         fmt_rat(m2, decimals=False), s.to_string()))
        return 0
    basis = filtration.adapted_basis(profile)
    pairs = list(zip(basis.elements, basis.mu_values))
    if args.output == "json":
        _emit_json([{"element": s.to_string(), "mu": str(m)} for s, m in pairs])
    elif args.output == "csv":
        _emit_csv(["element", "mu"], [(s.to_string(), str(m)) for s, m in pairs])
    else:
        for s, m in pairs:
            print("mu = %-10s %s" % (fmt_rat(m, decimals=False), s.to_string()))
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
    values = [(place, heights.weil_norm(Y, P, place)) for place in places]
    total = sum(math.log(q) for _, q in values)
    if args.output == "json":
        _emit_json({"point": str(P),
                    "values": [{"place": str(pl), "norm": str(q),
                                "log": math.log(q)} for pl, q in values],
                    "sum_log": total})
    elif args.output == "csv":
        _emit_csv(["place", "norm", "log"],
                  [(str(pl), str(q), "%.12g" % math.log(q))
                   for pl, q in values])
    else:
        for pl, q in values:
            print("place %-4s norm = %-14s log = %.12g"
                  % (pl, fmt_rat(q, decimals=False), math.log(q)))
        if len(values) > 1:
            print("sum = %.12g" % total)
    return 0


def _run_height(args):
    from . import heights

    P = heights.ProjectivePoint.from_string(args.point)
    norm = heights.height_norm(P)
    h = heights.height(P)
    if args.output == "json":
        _emit_json({"point": str(P), "height_norm": norm, "height": h})
    elif args.output == "csv":
        _emit_csv(["point", "height_norm", "height"],
                  [(str(P), norm, "%.12g" % h)])
    else:
        print("point =", P)
        print("height_norm =", norm)
        print("height = %.12g" % h)
    return 0


def _run_scan(args):
    from . import experiments

    if args.config:
        with open(args.config) as fh:
            config = experiments.InequalityConfig.from_json(json.load(fh))
    elif args.four_lines:
        config = experiments.four_lines_config()
    else:
        raise ValueError("need --config FILE or --four-lines")
    report = experiments.scan_inequality(config, bound=args.bound,
                                         keep_rows=args.keep_rows)
    if args.output == "json":
        _emit_json(report.to_json())
    elif args.output == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print("points    =", report.total)
        print("skipped   =", report.skipped, "(on a subscheme support)")
        print("excluded  =", report.excluded, "(on the exclusion locus)")
        print("evaluated =", report.evaluated)
        print("zero-height rows =", report.zero_height)
        print("violations above floor =", len(report.violations))
        print("violations below floor =", report.low_height_hits)
        if report.max_ratio_row is not None:
            r = report.max_ratio_row
            print("max lhs/rhs = %.12g at %s (height_norm %d)"
                  % (r.ratio, r.point, r.height_norm))
        for r in report.violations:
            print("VIOLATION at %s: lhs = %.12g rhs = %.12g"
                  % (r.point, r.lhs_log, r.rhs_log))
    return 3 if report.violations else 0


def _run_example5(args):
    from . import experiments

    rows = experiments.four_lines_table(args.l_max)
    if args.output == "json":
        _emit_json([{"l": r.l, "A_self": str(r.A_self),
                     "A_dot_D": str(r.A_dot_D), "xi": str(r.xi),
                     "beta": str(r.beta), "epsilon": str(r.epsilon),
                     "seshadri_side": str(r.seshadri_side),
                     "beta_lower": str(r.beta_lower)} for r in rows])
    else:
        sys.stdout.write(experiments.four_lines_table_csv(rows))
    return 0


def _run_check_position(args):
    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    rep = check_general_position(Ys)
    if args.output == "json":
        _emit_json({"ok": rep.ok,
                    "witness": None if rep.witness is None else list(rep.witness)})
    elif args.output == "csv":
        _emit_csv(["ok", "witness"],
                  [(int(rep.ok), "" if rep.witness is None
                    else ";".join(map(str, rep.witness)))])
    else:
        if rep.ok:
            print("general position: ok")
        else:
            labels = ",".join(Ys[i].label for i in rep.witness)
            print("general position: violated by {%s}" % labels)
    return 0


def _run_concavity_test(args):
    from . import filtration

    Ys = _parse_subschemes(args.ideals, _nvars_from(args))
    rep = filtration.concavity_bound(Ys, args.betas, args.weights, args.N)
    if args.output == "json":
        _emit_json({"lhs": str(rep.lhs), "rhs": str(rep.rhs),
                    "per_subscheme": [str(v) for v in rep.per_subscheme],
                    "hypotheses_met": rep.hypotheses_met, "holds": rep.holds})
    elif args.output == "csv":
        _emit_csv(["lhs", "rhs", "hypotheses_met", "holds", "per_subscheme"],
                  [(str(rep.lhs), str(rep.rhs), int(rep.hypotheses_met),
                    int(rep.holds),
                    ";".join(str(v) for v in rep.per_subscheme))])
    else:
        print("lhs F(t) =", fmt_rat(rep.lhs))
        print("rhs bound =", fmt_rat(rep.rhs))
        print("hypotheses met:", rep.hypotheses_met)
        print("bound holds:", rep.holds)
        if rep.hypotheses_met and not rep.holds:
            raise ValueError("lower bound failed under its hypotheses")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diophkit",
        description="Exact invariants of polarized subschemes: expansion "
                    "coefficients, filtrations, surface intersection theory, "
                    "heights, and inequality scans.")
    parser.add_argument("--output", choices=["text", "csv", "json"],
                        default="text", help="output format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="truncated expansion coefficient on P^n")
    _space_arg(p)
    p.add_argument("--ideal", required=True,
                   help="comma-separated generators, e.g. 'x0,x1'")
    p.add_argument("--degree", type=int, default=1,
                   help="polarization degree d (default 1)")
    p.add_argument("--N", type=int, help="truncation level")
    p.add_argument("--n-max", type=int, help="emit a convergence table instead")
    p.add_argument("--crosscheck", action="store_true",
                   help="compare against blow-up section counts (plane point)")
    p.set_defaults(func=_run_beta)

    p = sub.add_parser("beta-surface",
                       help="truncated expansion value from surface classes")
    p.add_argument("--A", required=True, help="reference class, e.g. '4H - E1 - E2 - E3'")
    p.add_argument("--D", required=True, help="divisor class, e.g. 'H - E1'")
    p.add_argument("--k", type=int, help="number of blown-up points (else inferred)")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_run_beta_surface)

    p = sub.add_parser("seshadri", help="nef threshold with certificates")
    p.add_argument("--A", required=True)
    p.add_argument("--D", required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_run_seshadri)

    p = sub.add_parser("filtration", help="jump profile of the weighted filtration")
    _space_arg(p)
    p.add_argument("--ideals", required=True,
                   help="subschemes split by ';', generators by ',': 'x0;x1,x2'")
    p.add_argument("--weights", type=_rat_list, required=True,
                   help="comma-separated rational weights")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_run_filtration)

    p = sub.add_parser("adapted-basis",
                       help="basis adapted to one or two weighted filtrations")
    _space_arg(p)
    p.add_argument("--ideals", required=True)
    p.add_argument("--weights", type=_rat_list, required=True)
    p.add_argument("--weights2", type=_rat_list,
                   help="second weight vector for a common adapted basis")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_run_adapted_basis)

    p = sub.add_parser("weil", help="local values of a subscheme at a point")
    _space_arg(p)
    p.add_argument("--ideal", required=True)
    p.add_argument("--point", required=True, help="colon-separated, e.g. 2:3:1")
    p.add_argument("--place", help="single place: a prime or 'inf'")
    p.add_argument("--places", help="comma list like 'inf,2,3'")
    p.set_defaults(func=_run_weil)

    p = sub.add_parser("height", help="logarithmic height of a rational point")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_run_height)

    p = sub.add_parser("scan", help="test the weighted inequality on sample points")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--four-lines", action="store_true",
                   help="use the built-in four-line configuration")
    p.add_argument("--bound", type=int, required=True,
                   help="coordinate bound for the sample")
    p.add_argument("--keep-rows", action="store_true")
    p.set_defaults(func=_run_scan)

    p = sub.add_parser("example5",
                       help="closed-form vs Seshadri table for weighted lines")
    p.add_argument("--l-max", type=int, required=True)
    p.set_defaults(func=_run_example5)

    p = sub.add_parser("check-position", help="codimension test for intersections")
    _space_arg(p)
    p.add_argument("--ideals", required=True)
    p.set_defaults(func=_run_check_position)

    p = sub.add_parser("concavity-test",
                       help="both sides of the filtration lower bound")
    _space_arg(p)
    p.add_argument("--ideals", required=True)
    p.add_argument("--betas", type=_rat_list, required=True)
    p.add_argument("--weights", type=_rat_list, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_run_concavity_test)

    for child in sub.choices.values():
        _common_args(child)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
