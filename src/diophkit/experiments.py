"""Numerical exploration of the weighted proximity inequality.

A configuration fixes subschemes Y_i with weights beta_i, a finite place
set S and a slack epsilon.  The scanner walks every rational point of
bounded height and tests

    sum_i beta_i m_{Y_i, S}(p)  <=  (1 + epsilon) h(p)

with the proximity m and the height h handled multiplicatively, so the
decision is an exact integer-exponent comparison and never a float one.
Points on some Y_i have no proximity value and are skipped; points on a
configured exclusion locus are tallied separately, mirroring the role of
the exceptional closed subset in the inequality.

The decision is made in ints.  The generators g of each Y_i are compiled
once over their least common denominator c, as g = G / c with every G
integral.  These G, then those of every exclusion, form one flat list.
The sample is walked a line at a time: fixing every coordinate but the
last, t, makes each G a polynomial in t.  Each scan writes the text of
one function for its configuration (_scan_source) and compiles it with
exec (_scan_function): every loop over the forms and the Y_i below is
unrolled, so a line computes each coefficient of each G in t as a
straight-line integer expression of its fixed coordinates, and a point
evaluates each G(x) by Horner's rule into a local and tests the supports
and exclusions on those locals.  Only integers and indices are written
into the text; the float weights are passed in as values.  Over the g
with G(x) != 0, the product over S of the local norms of Y_i is

    Q_i = min_g c H^deg g / |G(x)|  *  prod_{p in S} p^(min_g ord_p G(x) - ord_p c).

Let ' remove every prime of S from an integer.  The finite product is
(gamma / gamma') / (c / c') with gamma = gcd_g G(x), so if g* attains the
archimedean minimum,

    Q_i = num_i / den_i,  num_i = c' H^deg g*,  den_i = (|G*(x)| / gamma) gamma',

in ints, since gamma divides G*(x).  For one generator gamma = |G(x)|, and
this is the product formula: prod_{v in S} |r|_v = |r|' for a rational
r != 0, so Q_i = c' H^deg / |G(x)|'.  Each ' is one gcd: with rad the
product of the finite places of S, v' = |v| // gcd(v, rad^k) once
2^k > |v|, as k then exceeds ord_p v for every p | rad.  A support value
at height H has |G(x)| <= norm1 H^top (norm1 the largest sum of absolute
coefficients of a support G, top its largest degree), so each height
holds R = rad^k, k the bit length of norm1 H^top.  c' takes the same gcd
once, when the text is written.

With d the common denominator of the beta_i and 1 + epsilon, the point
violates the inequality exactly when

    prod_i num_i^(d beta_i)  >  H^(d (1 + epsilon)) prod_i den_i^(d beta_i).

Whole heights are decided at once where they can be.  Let D_i be the
largest degree of a generator of Y_i.  Since num_i <= c' H^D_i and
den_i >= 1, Q_i <= c'_i H^D_i, so

    prod_i num_i^(d beta_i)  <=  c_prod H^deg_exp  prod_i den_i^(d beta_i)

with c_prod = prod_i c'_i^(d beta_i) and deg_exp = sum_i d beta_i D_i.  A
height H with c_prod H^deg_exp <= H^(d (1 + epsilon)) holds no violated
point; this one integer comparison is made when H is first met, and a
certified height skips only the exact comparison above, the one place
that raises the factors of an unmemoized Y_i.  With delta = sum_i beta_i D_i
- 1 - epsilon, the certified heights are those from
H0 = c_prod^(1 / (d |delta|)) on when delta < 0, all or none when
delta = 0 (as c_prod = 1 or not), and at most H = 1 when delta > 0.
H^(d (1 + epsilon)), (1 + epsilon) log H and c' H^deg g for every
generator g of every Y_i are computed once per height too; the last are
the numerators num_i.

num_i and den_i depend only on H and the values G(x) of the generators
of Y_i, so a height can keep one memo per Y_i, keyed by those values,
that holds the raised factors num_i^(d beta_i), den_i^(d beta_i) and log
Q_i.  Since |G(x)| <= ||G||_1 H^(deg G), a height has
O(H^(sum of the degrees)) keys of Y_i against about H^n points of P^n, so
the memo pays where that sum is below n, and Y_i is memoized exactly
then, or when it is one linear form.  One generator is keyed by G(x) and
filled for -G(x) at the same time (its norms depend on |G(x)|), several
by the tuple of their values.  A memo gains at most one entry per
evaluated point of its height (two with the negation), so it needs no
cap.

Floats appear only in the reported logs; log(num / den) is the same
double for every representation of the same rational, since int division
rounds correctly.

The rows of ``scan --output csv`` are rendered in the kernel: in its csv
form (scan_inequality's csv_rows) each kept row or violation is its csv
line, one % of a row format, and no ScanRow is built.  A height's level
holds that format, with H and the "%.12g" text of rhs_log written in and
an empty ratio cell at H = 1; a memo entry also holds the text of its
log, and the log of an unmemoized Y_i is formatted by the row.  The csv
form tracks no best row, since csv never prints it.
"""

import itertools
import math
from fractions import Fraction

from .graded import Subscheme, _family
from .heights import PlaceSet, ProjectivePoint
from .polynomials import _is_count

__all__ = [
    "ConfigError",
    "InequalityConfig",
    "ScanRow",
    "ScanReport",
    "sample_points",
    "scan_inequality",
    "four_lines",
    "four_lines_config",
    "four_lines_exclusions",
    "four_lines_table",
    "FourLinesRow",
]


class ConfigError(ValueError):
    pass


def _number(v):
    """A weight or epsilon as a Fraction; True is an int, not a number."""
    if isinstance(v, bool):
        raise ConfigError("weights and epsilon must be numbers, not booleans")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ConfigError("%r has a zero denominator" % (v,)) from None


class InequalityConfig:
    # violations below this multiplicative height are still counted, but
    # separately; log 10 is the default floor the report binds to
    min_height_norm = 10

    def __init__(self, subschemes, betas, places, epsilon, exclusions=(),
                 min_height_norm=min_height_norm):
        try:
            subs, places = tuple(_family(subschemes)), PlaceSet(places)
        except ValueError as exc:  # the family check, or a place set without inf
            raise ConfigError(str(exc)) from None
        betas = tuple(map(_number, betas))
        if len(betas) != len(subs) or any(b <= 0 for b in betas):
            raise ConfigError("need one positive weight per subscheme")
        eps = _number(epsilon)
        if eps <= 0:
            raise ConfigError("epsilon must be positive")
        excl = tuple(exclusions)
        if any(Z.nvars != subs[0].nvars for Z in excl):
            raise ConfigError("exclusions must live in the same space")
        if not _is_count(min_height_norm, 1):
            raise ConfigError("min_height_norm must be a positive integer")
        self.subschemes, self.betas, self.places = subs, betas, places
        self.epsilon, self.exclusions = eps, excl
        self.min_height_norm = min_height_norm

    @property
    def nvars(self):
        return self.subschemes[0].nvars

    def to_json(self):
        return {
            "subschemes": [Y.to_json() for Y in self.subschemes],
            "betas": [str(b) for b in self.betas],
            "places": [str(p) for p in self.places],
            "epsilon": str(self.epsilon),
            "exclusions": [Z.to_json() for Z in self.exclusions],
            "min_height_norm": self.min_height_norm,
        }

    @classmethod
    def from_json(cls, data):
        """The configuration that to_json wrote.  A missing key, or a value
        of the wrong shape, raises ConfigError naming the key."""
        if not isinstance(data, dict):
            raise ConfigError("a configuration is a JSON object, not %s"
                              % type(data).__name__)

        def read(key, parse):
            if key not in data:
                raise ConfigError("configuration has no %r key" % key)
            try:
                return parse(data[key])
            except (TypeError, AttributeError, KeyError, ValueError,
                    ArithmeticError) as exc:
                raise ConfigError("bad %r in configuration: %s" % (key, exc)) from None

        def subschemes(items):
            return tuple(Subscheme.from_json(d) for d in items)

        return cls(
            subschemes=read("subschemes", subschemes),
            betas=read("betas", lambda bs: tuple(map(_number, bs))),
            places=read("places", lambda ps: PlaceSet.from_string(",".join(ps))),
            epsilon=read("epsilon", _number),
            exclusions=read("exclusions", subschemes) if "exclusions" in data else (),
            min_height_norm=data.get("min_height_norm", cls.min_height_norm),
        )


# the csv header of a scan: a ScanRow's fields, and the cells of each line
# that the csv form of the scan kernel writes
_SCAN_COLUMNS = ("point", "height_norm", "proximities", "lhs_log", "rhs_log",
                 "ratio", "violated")


class ScanRow:
    def __init__(self, point, height_norm, proximities, lhs_log, rhs_log,
                 ratio, violated):
        self.point, self.height_norm = point, height_norm
        self.proximities, self.lhs_log, self.rhs_log = proximities, lhs_log, rhs_log
        self.ratio, self.violated = ratio, violated

    def to_json(self):
        return {"point": self.point, "height_norm": self.height_norm,
                "proximities": list(self.proximities),
                "lhs_log": self.lhs_log, "rhs_log": self.rhs_log,
                "ratio": self.ratio, "violated": self.violated}


class ScanReport:
    def __init__(self, total, skipped, excluded, evaluated, zero_height,
                 low_height_hits, violations, max_ratio_row=None, rows=None,
                 csv_rows=False):
        if skipped + excluded + evaluated != total:
            raise ValueError("scan counters do not add up")
        self.total, self.skipped, self.excluded = total, skipped, excluded
        self.evaluated, self.zero_height = evaluated, zero_height
        self.low_height_hits, self.violations = low_height_hits, violations
        self.max_ratio_row, self.rows = max_ratio_row, rows
        self.csv_rows = csv_rows

    @property
    def clean(self):
        return not self.violations

    def to_json(self):
        if self.csv_rows:
            raise ValueError("this report holds csv lines and has no JSON form")
        data = {
            "total": self.total,
            "skipped": self.skipped,
            "excluded": self.excluded,
            "evaluated": self.evaluated,
            "zero_height": self.zero_height,
            "low_height_hits": self.low_height_hits,
            "violations": [r.to_json() for r in self.violations],
            "max_ratio_row": None if self.max_ratio_row is None
            else self.max_ratio_row.to_json(),
        }
        if self.rows is not None:
            data["rows"] = [r.to_json() for r in self.rows]
        return data


def _check_sample(n, bound):
    if not _is_count(n, 1):
        raise ValueError("projective dimension must be a positive integer")
    if not _is_count(bound, 1):
        raise ValueError("coordinate bound must be a positive integer")


def _lines(n, bound):
    """The sample a line at a time, in lexicographic order.

    Yields (prefix, ts): the sample points are prefix + (t,) for t in ts.
    A canonical tuple is some zeros, a positive lead, then anything; the
    prefix is the zeros, the lead and the middle coordinates.  Walking the
    number of leading zeros downwards and the lead upwards is the
    lexicographic order and never builds a tuple that is rejected for its
    sign.  The point 0:...:0:1, whose lead is the last coordinate, is a
    line of length one.
    """
    full = range(-bound, bound + 1)
    gcd = math.gcd
    yield (0,) * n, (1,)
    for zeros in range(n - 1, -1, -1):
        for lead in range(1, bound + 1):
            head = (0,) * zeros + (lead,)
            for middle in itertools.product(full, repeat=n - 1 - zeros):
                g = gcd(lead, *middle)
                yield head + middle, (full if g == 1 else
                                      [t for t in full if gcd(g, t) == 1])


def sample_points(n, bound):
    """Every point of P^n over the rationals whose canonical integer
    coordinates lie in [-bound, bound], in lexicographic order.

    Exactly the tuples with coprime entries and positive leading nonzero
    entry, so each point appears once.
    """
    _check_sample(n, bound)
    return [prefix + (t,) for prefix, ts in _lines(n, bound) for t in ts]


def _integral(forms):
    """Forms g_j as ([terms of G_j], c) with g_j = G_j / c, each G_j
    integral and c > 0 their least common denominator.

    Each term of G_j is (coefficient, indices, k) and stands for the
    coefficient times the coordinates at indices (one index per unit of
    exponent) times t^k, t the last coordinate; on a line, where every
    other coordinate is fixed, it adds a run of integer products to the
    coefficient of t^k.
    """
    c = math.lcm(*(v.denominator for g in forms for v in g.terms.values()))
    return [tuple((v.numerator * (c // v.denominator),
                   tuple(i for i, e in enumerate(exps[:-1]) for _ in range(e)),
                   exps[-1])
                  for exps, v in sorted(g.terms.items()))
            for g in forms], c


def _scan_source(config, exps, rhs_exp, csv_rows=False):
    """The text of the function that scans config (see the module
    docstring); exps are the integer exponents d beta_i.  With csv_rows
    the function writes each kept row or violation as its csv line and
    tracks no best row.

    Every generator of every Y_i, then of every exclusion, is an integral
    form, so form j is the j-th value at a point; supports and exclusions
    are index spans into that list.  Each Y_i gets a plan (start, stop,
    degrees, c', memo, d beta_i), memo telling whether a scan memoizes Y_i
    per height (see the module docstring for the rule).

    The function is one loop over the lines and one over the t of a line,
    with every loop over forms and plans unrolled: a form's coefficients
    in t are computed per line, its value per point by Horner's rule, and
    one block per Y_i leaves its factors and log.  Only integers and
    indices are written into it; the float weights are arguments.
    """
    rad = math.prod(v.p for v in config.places if not v.is_infinite)
    n = config.nvars - 1
    forms, spans = [], []
    for Y in config.subschemes + config.exclusions:
        terms, c = _integral(Y.generators)
        spans.append((len(forms), len(forms) + len(terms), c))
        forms += zip(terms, [g.degree for g in Y.generators])
    plans = []
    for (start, stop, c), Y, e in zip(spans, config.subschemes, exps):
        degs = tuple(g.degree for g in Y.generators)
        c_free = c // math.gcd(c, rad ** c.bit_length())
        plans.append((start, stop, degs, c_free,
                      degs == (1,) or sum(degs) < n, e))
    supports = [plan[:2] for plan in plans]
    exclusions = [span[:2] for span in spans[len(plans):]]
    first_excluded = plans[-1][1]
    # a support value at height H is at most norm1 H^top, which sets each
    # height's R (see the module docstring)
    norm1 = max(sum(abs(a) for a, _, _ in terms)
                for terms, _ in forms[:first_excluded])
    top = max(deg for _, deg in forms[:first_excluded])
    xs = ["x%d" % i for i in range(n)]
    # the largest absolute value of the prefix; P^0 has an empty one
    size = ["abs(%s)" % x for x in xs] or ["0"]
    ks = range(len(plans))
    # the statements of the values that depend on t, of the supports'
    # forms and of the exclusions' forms
    per_line, on_t, vals = [], ([], []), []
    for j, (terms, deg) in enumerate(forms):
        lines, expr = _form_on_line(j, terms, deg)
        per_line += lines
        if expr.isidentifier():
            vals.append(expr)
            continue
        vals.append("v%d" % j)
        # no coordinate or coefficient name holds a t
        stmts = on_t[j >= first_excluded] if "t" in expr else per_line
        stmts.append("v%d = %s" % (j, expr))
    powers = ["p%d" % j for j in range(first_excluded)]
    memos = ["m%d" % i for i in ks if plans[i][4]]
    # Q_i <= c'_i H^(max deg Y_i), so prod_i Q_i^(d beta_i) <= c_prod
    # H^deg_exp; where that is at most H^(d (1+eps)) nothing is violated
    c_prod = math.prod(c ** e for _, _, _, c, _, e in plans)
    deg_exp = sum(e * max(degs) for _, _, degs, _, _, e in plans)
    # in the csv form a height's level holds its row format, with H and
    # the "%.12g" text of rhs_log written in; a memoized q_i comes as the
    # text its memo entry holds, any other log is formatted by the row.
    # At H = 1 the ratio cell is "%.0s", which prints nothing, and
    # rhs_div = 1 keeps the division defined
    level_format = "%%s%%d,%d," + ";".join(
        "%%s" if memo else "%%.12g" for _, _, _, _, memo, _ in plans) + \
        ",%%.12g,%s,%s,%%d\n"
    csv_level = ["row_format", "rhs_div"] if csv_rows else []
    level = ["%d * H ** %d <= rhs_pow" % (c_prod, deg_exp), "rhs_pow", "rhs_log",
             "%d ** (%d * H ** %d).bit_length()" % (rad, norm1, top)] + [
             "%r %% (H, '%%.12g' %% rhs_log, '%%.12g' if H > 1 else '%%.0s')"
             % level_format, "rhs_log if H > 1 else 1"] * csv_rows + [
             "{}"] * len(memos) + ["%d * H ** %d" % (c, deg)
                                  for _, _, degs, c, _, _ in plans
                                  for deg in degs]
    # one block per Y_i leaves n_i, d_i, q_i (and s_i, the text of a
    # memoized q_i, in the csv form): a memo holds the raised factors, and
    # an unmemoized Y_i is raised only in the comparison
    block, lhs, rhs, cells = [], [], [], []
    for i, (start, stop, _, _, memo, e) in enumerate(plans):
        norm = _norm(vals[start:stop], powers[start:stop])
        unpack = "n{0}, d{0}, q{0}".format(i)
        power = "" if memo else " ** %d" % e
        lhs.append("n%d%s" % (i, power))
        rhs.append("d%d%s" % (i, power))
        cells.append(("s%d" if memo else "q%d") % i)
        if not memo:
            block += norm + [unpack + " = num, den, log(num / den)"]
            continue
        # one generator fills its memo for the negated value too
        key = vals[start] if stop - start == 1 else \
            "(%s,)" % ", ".join(vals[start:stop])
        store = "m%d[%s] = " % (i, key)
        if stop - start == 1:
            store += "m%d[-%s] = " % (i, key)
        block += ["f = m%d.get(%s)" % (i, key), "if f is None:"] + _indent(
            norm + ["q = log(num / den)",
                    "f = %s(num ** %d, den ** %d, q%s)"
                    % (store, e, e, ', "%.12g" % q' * csv_rows)]) + [
            unpack + ", s%d" % i * csv_rows + " = f"]
    block += [
        "lhs_log = 0.0 + " + " + ".join("l%d * q%d" % (i, i) for i in ks),
        "violated = not certified and %s > rhs_pow * %s"
        % (" * ".join(lhs), " * ".join(rhs))]
    if csv_rows:
        # the cells of _SCAN_COLUMNS, violated as 0 or 1.  A point is ints
        # joined by colons and every other cell a number, so no cell holds
        # a comma, quote or newline: these are the bytes csv.writer would
        # write
        block += [
            "if violated or keep_rows:",
            "    row = row_format %% (head, t, %s, lhs_log, "
            "lhs_log / rhs_div, violated)" % ", ".join(cells)]
    else:
        block += [
            "ratio = lhs_log / rhs_log if H > 1 else None",
            "better = ratio is not None and (best_ratio is None or "
            "ratio > best_ratio)",
            "if violated or keep_rows or better:",
            "    row = ScanRow(head + str(t), H, (%s,), lhs_log, rhs_log, "
            "ratio, violated)" % ", ".join("q%d" % i for i in ks),
            "    if better:",
            "        best = row",
            "        best_ratio = ratio"]
    block += [
        "    if violated:",
        "        if H >= floor:",
        "            violations.append(row)",
        "        else:",
        "            low_hits += 1",
        "    if keep_rows:",
        "        rows.append(row)"]
    point = on_t[0] + ["if %s:" % _zero_test(supports, vals),
                       "    skipped += 1", "    continue"]
    if exclusions:
        point += on_t[1] + ["if %s:" % _zero_test(exclusions, vals),
                            "    excluded += 1", "    continue"]
    point += [
        "evaluated += 1",
        "H = M if -M <= t <= M else abs(t)",
        "if H == 1:",
        "    zero_height += 1",
        "if H != Hl:",
        "    Hl = H",
        "    lev = levels.get(H)",
        "    if lev is None:",
        "        rhs_pow = H ** %d" % rhs_exp,
        "        rhs_log = rhs_scale * log(H)",
        "        lev = levels[H] = (%s,)" % ", ".join(level),
        "    certified, rhs_pow, rhs_log, R, %s = lev"
        % ", ".join(csv_level + memos + powers),
    ] + block
    return "\n".join([
        "def scan(lines, keep_rows, floor, lbs, rhs_scale, ScanRow, log, "
        "gcd):",
        "    %s, = lbs" % ", ".join("l%d" % i for i in ks),
        "    levels = {}",
    ] + [
        "    total = skipped = excluded = evaluated = zero_height = 0",
        "    low_hits = Hl = 0",
        "    violations = []",
        "    rows = [] if keep_rows else None",
        "    best = best_ratio = None",
        "    for prefix, ts in lines:",
        "        total += len(ts)",
        "        (%s) = prefix" % "".join(x + ", " for x in xs),
        "        M = %s" % (size[0] if n < 2 else "max(%s)" % ", ".join(size)),
        "        head = %r %% prefix" % ("%s:" * n),
    ] + _indent(per_line, 2) + [
        "        for t in ts:",
    ] + _indent(point, 3) + [
        "    return (total, skipped, excluded, evaluated, zero_height, "
        "low_hits, violations, best, rows)",
        "",
    ])


def _indent(lines, depth=1):
    return ["    " * depth + line for line in lines]


def _form_on_line(j, terms, deg):
    """(statements, expression) for form j on a line: the statements bind
    its coefficients in t, integer expressions of the prefix coordinates
    x0, x1, ..., once per line; the expression is its value at t by
    Horner's rule.  A coefficient that is one coordinate, or a constant,
    is written in place."""
    parts, top = [[] for _ in range(deg)], 0
    for coeff, factors, k in terms:
        if not factors:  # t^deg, the one term free of the prefix
            top = coeff
            continue
        names = "*".join("x%d" % i for i in factors)
        parts[k].append(names if coeff == 1 else "-" + names if coeff == -1
                        else "%d*%s" % (coeff, names))
    lines, coeffs = [], []
    for k, part in enumerate(parts):
        expr = " + ".join(part).replace("+ -", "- ")
        if part and not expr.isidentifier():
            lines.append("a%d_%d = %s" % (j, k, expr))
            expr = "a%d_%d" % (j, k)
        coeffs.append(expr or 0)
    return lines, _horner(coeffs + [top])


def _horner(coeffs):
    """Horner's rule in t over coefficients given from t^0 up, each an int
    or a name; zero coefficients are left out, and only the top one may be
    a negative int."""
    expr = None
    for c in reversed(coeffs):
        if expr is not None:
            expr = "t" if expr == "1" else "-t" if expr == "-1" else \
                "(%s)*t" % expr if " " in expr else expr + "*t"
        if c != 0:
            expr = "%s" % c if expr is None else "%s + %s" % (expr, c)
    return expr or "0"


def _zero_test(spans, vals):
    """The condition that every value of some span is zero."""
    return " or ".join("not " + vals[a] if b - a == 1 else
                       "not (%s)" % " or ".join(vals[a:b]) for a, b in spans)


def _norm(vals, powers):
    """Statements that leave the product over all places of the local
    norms of one Y_i as the unreduced positive num / den; powers[j] is the
    level's c' H^(deg G_j), and gcd with the level's R takes out S.  The
    archimedean minimum is taken by cross-multiplication."""
    if len(vals) == 1:
        return ["num, den = %s, abs(%s) // gcd(%s, R)"
                % (powers[0], vals[0], vals[0])]
    lines = ["num = den = 0"]
    for v, p in zip(vals, powers):
        lines += ["if %s:" % v, "    b = abs(%s)" % v,
                  "    if not den or %s * den < num * b:" % p,
                  "        num, den = %s, b" % p]
    return lines + ["g = gcd(%s)" % ", ".join(vals),
                    "den = den // g * (g // gcd(g, R))"]


def _scan_function(config, exps, rhs_exp, csv_rows):
    """The scan function of config, compiled once per scan."""
    namespace = {}
    exec(compile(_scan_source(config, exps, rhs_exp, csv_rows),
                 "<scan kernel>", "exec"), namespace)
    return namespace["scan"]


def _explicit_lines(points, nvars):
    """Each explicit point, canonicalized, as a line of length one."""
    for pt in points:
        P = pt if isinstance(pt, ProjectivePoint) else ProjectivePoint(pt)
        if P.nvars != nvars:
            raise ValueError("point %s does not live in P^%d" % (P, nvars - 1))
        yield P.coords[:-1], P.coords[-1:]


def scan_inequality(config, bound=None, points=None, keep_rows=False,
                    csv_rows=False):
    """Test the weighted inequality at every sample point; exact decisions.

    Either a coordinate bound or an explicit point list must be given,
    not both.  Explicit points may be ProjectivePoints or coordinate
    tuples, which are canonicalized; an all-zero tuple is rejected.

    The violations and kept rows are ScanRows, or with csv_rows the lines
    that ``scan --output csv`` prints for them (no max_ratio_row and no
    JSON form then).
    """
    if points is None:
        if bound is None:
            raise ValueError("need a coordinate bound or explicit points")
        _check_sample(config.nvars - 1, bound)
        lines = _lines(config.nvars - 1, bound)
    elif bound is not None:
        raise ValueError("need a coordinate bound or explicit points, not both")
    else:
        lines = _explicit_lines(points, config.nvars)

    # clear the denominators once: compare prod_i Q_i^(d beta_i) with
    # H^(d (1+eps)) in integers
    one_plus_eps = 1 + config.epsilon
    d = math.lcm(one_plus_eps.denominator,
                 *(b.denominator for b in config.betas))
    exps = [int(d * b) for b in config.betas]
    scan = _scan_function(config, exps, int(d * one_plus_eps), csv_rows)
    (total, skipped, excluded, evaluated, zero_height, low_hits, violations,
     best, rows) = scan(lines, keep_rows, config.min_height_norm,
                        [float(b) for b in config.betas],
                        float(one_plus_eps), ScanRow, math.log, math.gcd)
    return ScanReport(total, skipped, excluded, evaluated, zero_height,
                      low_hits, tuple(violations), best,
                      None if rows is None else tuple(rows), csv_rows)


def four_lines():
    """Four lines of the plane in general position: the coordinate
    triangle and the unit line."""
    return (
        Subscheme.from_strings("L1", ["x0"], nvars=3),
        Subscheme.from_strings("L2", ["x1"], nvars=3),
        Subscheme.from_strings("L3", ["x2"], nvars=3),
        Subscheme.from_strings("L4", ["x0 + x1 + x2"], nvars=3),
    )


def four_lines_exclusions():
    """The three diagonal lines through opposite intersection points; the
    locus the inequality is allowed to ignore."""
    return (
        Subscheme.from_strings("D12", ["x0 + x1"], nvars=3),
        Subscheme.from_strings("D13", ["x0 + x2"], nvars=3),
        Subscheme.from_strings("D23", ["x1 + x2"], nvars=3),
    )


def four_lines_config(epsilon=Fraction(1, 2), places="inf,2,3,5",
                      min_height_norm=InequalityConfig.min_height_norm):
    """Weighted inequality data for the four-line configuration; each line
    carries its exact expansion weight 1/3."""
    return InequalityConfig(
        subschemes=four_lines(),
        betas=(Fraction(1, 3),) * 4,
        places=PlaceSet.from_string(places) if isinstance(places, str) else places,
        epsilon=Fraction(epsilon),
        exclusions=four_lines_exclusions(),
        min_height_norm=min_height_norm,
    )


class FourLinesRow:
    def __init__(self, l, A_self, A_dot_D, xi, beta, epsilon, seshadri_side,
                 beta_lower):
        self.l, self.A_self, self.A_dot_D, self.xi = l, A_self, A_dot_D, xi
        self.beta, self.epsilon = beta, epsilon
        self.seshadri_side, self.beta_lower = seshadri_side, beta_lower


def four_lines_table(l_max):
    """Weighted-line classes on the three-point blow-up: closed-form
    expansion value against the Seshadri side, one row per weight l.  The
    lines are divisors (r = 1) on a surface (n = 2), so the Seshadri side
    is epsilon / 3."""
    from .surface import (compare_beta_seshadri, strict_transform_line,
                          three_point_blowup, weighted_lines_class)

    if not _is_count(l_max, 1):
        raise ValueError("l_max must be a positive integer")
    model = three_point_blowup()
    D = strict_transform_line(1)
    rows = []
    for l in range(1, l_max + 1):
        A = weighted_lines_class(l)
        A_self, A_dot_D = model.intersect(A, A), model.intersect(A, D)
        cmp = compare_beta_seshadri(model, A, D, 1, 2)
        # xi = A^2 / (2 A.D), the closed form's maximizer
        rows.append(FourLinesRow(l, A_self, A_dot_D, A_self / (2 * A_dot_D),
                                 cmp.beta, cmp.epsilon, cmp.seshadri_side,
                                 Fraction(3 * l, 4)))
    return rows
