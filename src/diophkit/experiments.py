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
last, t, makes each G a polynomial in t whose integer coefficients are
computed once per line, and Horner's rule over the line's t gives every
G(x) there.  The support and exclusion tests read index spans of the
values at x.  Over the g with G(x) != 0, the product over S of the local
norms of Y_i is

    Q_i = min_g c H^deg g / |G(x)|  *  prod_{p in S} p^(min_g ord_p G(x) - ord_p c).

Let ' remove every prime of S from an integer.  The finite product is
(gamma / gamma') / (c / c') with gamma = gcd_g G(x), so if g* attains the
archimedean minimum,

    Q_i = num_i / den_i,  num_i = c' H^deg g*,  den_i = (|G*(x)| / gamma) gamma',

in ints, since gamma divides G*(x).  For one generator gamma = |G(x)|, and
this is the product formula: prod_{v in S} |r|_v = |r|' for a rational
r != 0, so Q_i = c' H^deg / |G(x)|'.  c' is computed once.

With d the common denominator of the beta_i and 1 + epsilon, the point
violates the inequality exactly when

    prod_i num_i^(d beta_i)  >  H^(d (1 + epsilon)) prod_i den_i^(d beta_i).

Whole heights are decided at once where they can be.  Let D_i be the
largest degree of a generator of Y_i.  Since num_i <= c' H^D_i and
den_i >= 1, Q_i <= c'_i H^D_i, so

    prod_i num_i^(d beta_i)  <=  c_prod H^deg_exp  prod_i den_i^(d beta_i)

with c_prod = prod_i c'_i^(d beta_i) and deg_exp = sum_i d beta_i D_i.  A
height H with c_prod H^deg_exp <= H^(d (1 + epsilon)) holds no violated
point; this one integer comparison is made when H is first met, and on
such a certified height the scan computes only the logs.  Any other
height takes the exact comparison above.  With delta = sum_i beta_i D_i
- 1 - epsilon, the certified heights are those from
H0 = c_prod^(1 / (d |delta|)) on when delta < 0, all or none when
delta = 0 (as c_prod = 1 or not), and at most H = 1 when delta > 0.
H^(d (1 + epsilon)) and (1 + epsilon) log H are computed once per height
too.

A hyperplane's num_i and den_i depend only on H and |G(x)|, so each
height keeps one memo per hyperplane, keyed by G(x) and filled for
-G(x) at the same time: log Q_i on a certified height, and
num_i^(d beta_i), den_i^(d beta_i) and log Q_i on any other.  Since
|G(x)| <= ||G||_1 H, a height's memo has O(||G||_1 H) entries, while the
sample grows like bound^n.  Higher degrees are not memoized, as their
values spread over ||G||_1 bound^deg; a memo keyed by the tuple of values
for every subscheme measured slower on the benchmark's configurations.

Floats appear only in the reported logs; log(num / den) is the same
double for every representation of the same rational, since int division
rounds correctly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .graded import Subscheme, _family, common_support_dim
from .heights import PlaceSet, ProjectivePoint
from .polynomials import _is_count

__all__ = [
    "ConfigError",
    "InequalityConfig",
    "ScanRow",
    "ScanReport",
    "sample_points",
    "scan_inequality",
    "sigma_select",
    "four_lines",
    "four_lines_config",
    "four_lines_exclusions",
    "four_lines_table",
]


class ConfigError(ValueError):
    pass


def _number(v):
    """A weight or epsilon as a Fraction; True is an int, not a number."""
    if isinstance(v, bool):
        raise ConfigError("weights and epsilon must be numbers, not booleans")
    return Fraction(v)


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
            except (TypeError, AttributeError, KeyError) as exc:
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

    @classmethod
    def from_json(cls, data):
        return cls(data["point"], data["height_norm"],
                   tuple(data["proximities"]), data["lhs_log"],
                   data["rhs_log"], data["ratio"], data["violated"])


class ScanReport:
    def __init__(self, total, skipped, excluded, evaluated, zero_height,
                 low_height_hits, violations, max_ratio_row=None, rows=None):
        if skipped + excluded + evaluated != total:
            raise ValueError("scan counters do not add up")
        self.total, self.skipped, self.excluded = total, skipped, excluded
        self.evaluated, self.zero_height = evaluated, zero_height
        self.low_height_hits, self.violations = low_height_hits, violations
        self.max_ratio_row, self.rows = max_ratio_row, rows

    @property
    def clean(self):
        return not self.violations

    def to_json(self):
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

    @classmethod
    def from_json(cls, data):
        rows = data.get("rows")
        best = data.get("max_ratio_row")
        return cls(data["total"], data["skipped"], data["excluded"],
                   data["evaluated"], data["zero_height"],
                   data["low_height_hits"],
                   tuple(ScanRow.from_json(r) for r in data["violations"]),
                   None if best is None else ScanRow.from_json(best),
                   None if rows is None else tuple(ScanRow.from_json(r)
                                                   for r in rows))


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


def _s_free(v, rad):
    """|v| with every prime dividing rad removed; v is nonzero and rad is
    the product of the finite places of S."""
    v = abs(v)
    g = math.gcd(v, rad)
    while g > 1:
        v //= g
        g = math.gcd(v, g)
    return v


def _vanishes(vals, spans):
    """Whether every value of some span is zero: x lies on that locus."""
    return any(not any(vals[a:b]) for a, b in spans)


class _Kernel:
    """A configuration compiled once for integer scanning (see the module
    docstring).

    forms lists the integral terms and degree of every generator of every
    Y_i, then of every exclusion, so one line call gives every G(x) on a
    line; supports and exclusions are index spans into that list.  Each
    Y_i also gets a plan (start, stop, degrees, c', hyperplane, d beta_i,
    float beta_i), where hyperplane says whether Y_i is cut out by one
    linear form, so that a scan memoizes it per height.
    """

    def __init__(self, config, exps):
        self.rad = math.prod(v.p for v in config.places if not v.is_infinite)
        self.forms, self.plans = [], []
        for Y, e, b in zip(config.subschemes, exps, config.betas):
            start, stop, c = self._compile(Y.generators)
            degs = tuple(g.degree for g in Y.generators)
            self.plans.append((start, stop, degs, _s_free(c, self.rad),
                               degs == (1,), e, float(b)))
        self.supports = [plan[:2] for plan in self.plans]
        self.exclusions = [self._compile(Z.generators)[:2]
                           for Z in config.exclusions]

    def _compile(self, generators):
        """Append the integral forms of generators; their span and c."""
        start = len(self.forms)
        terms, c = _integral(generators)
        self.forms.extend((t, g.degree) for t, g in zip(terms, generators))
        return start, len(self.forms), c

    def line(self, prefix, ts):
        """Every G at prefix + (t,), one tuple of values per t in ts.

        On the line each G is a polynomial in t: its coefficients are
        computed once, then Horner's rule runs over all of ts at once."""
        cols = []
        for terms, deg in self.forms:
            coeffs = [0] * (deg + 1)
            for coeff, factors, k in terms:
                for i in factors:
                    coeff *= prefix[i]
                coeffs[k] += coeff
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
            a = coeffs.pop()
            if coeffs:
                b = coeffs.pop()
                col = [a * t + b for t in ts]
                while coeffs:
                    b = coeffs.pop()
                    col = [v * t + b for v, t in zip(col, ts)]
            else:
                col = [a] * len(ts)
            cols.append(col)
        return zip(*cols)

    def norm(self, start, stop, degs, c, vals, H):
        """The product over all places of the local norms of one Y_i, as
        an unreduced positive (numerator, denominator) pair; c is c'."""
        vs = vals[start:stop]
        num = den = 0
        for deg, v in zip(degs, vs):
            if v:
                a, b = H ** deg, abs(v)
                if not den or a * den < num * b:
                    num, den = a, b
        g = math.gcd(*vs)
        return c * num, den // g * _s_free(g, self.rad)


def _explicit_lines(points, nvars):
    """Each explicit point, canonicalized, as a line of length one."""
    for pt in points:
        P = pt if isinstance(pt, ProjectivePoint) else ProjectivePoint(pt)
        if P.nvars != nvars:
            raise ValueError("point %s does not live in P^%d" % (P, nvars - 1))
        yield P.coords[:-1], P.coords[-1:]


def scan_inequality(config, bound=None, points=None, keep_rows=False):
    """Test the weighted inequality at every sample point; exact decisions.

    Either a coordinate bound or an explicit point list must be given.
    Explicit points may be ProjectivePoints or coordinate tuples, which
    are canonicalized; an all-zero tuple is rejected.
    """
    if points is None:
        if bound is None:
            raise ValueError("need a coordinate bound or explicit points")
        _check_sample(config.nvars - 1, bound)
        lines = _lines(config.nvars - 1, bound)
    else:
        lines = _explicit_lines(points, config.nvars)

    # clear the denominators once: compare prod_i Q_i^(d beta_i) with
    # H^(d (1+eps)) in integers
    one_plus_eps = 1 + config.epsilon
    d = math.lcm(one_plus_eps.denominator,
                 *(b.denominator for b in config.betas))
    exps = [int(d * b) for b in config.betas]
    rhs_exp = int(d * one_plus_eps)
    rhs_scale = float(one_plus_eps)
    kernel = _Kernel(config, exps)
    norm, log = kernel.norm, math.log
    # Q_i <= c'_i H^(max deg Y_i), so prod_i Q_i^(d beta_i) <= c_prod H^deg_exp;
    # at a height where that is at most H^(d (1+eps)) no point is violated
    c_prod = math.prod(c ** e for _, _, _, c, _, e, _ in kernel.plans)
    deg_exp = sum(e * max(degs) for _, _, degs, _, _, e, _ in kernel.plans)

    def level(H):
        """What a height decides once: whether it is certified, H^(d (1+eps)),
        (1+eps) log H, and the plans with a fresh memo per hyperplane."""
        rhs_pow = H ** rhs_exp
        return (c_prod * H ** deg_exp <= rhs_pow, rhs_pow, rhs_scale * log(H),
                [plan[:4] + ({} if plan[4] else None,) + plan[5:]
                 for plan in kernel.plans])

    levels = {}
    total = skipped = excluded = evaluated = zero_height = 0
    violations = []
    low_hits = 0
    rows = [] if keep_rows else None
    best = None
    best_ratio = None
    for prefix, ts in lines:
        total += len(ts)
        # the height of every point of the line is max(M, |t|)
        M = max(map(abs, prefix), default=0)
        head = "".join(str(c) + ":" for c in prefix)
        for t, vals in zip(ts, kernel.line(prefix, ts)):
            if 0 in vals:
                if _vanishes(vals, kernel.supports):
                    skipped += 1
                    continue
                if _vanishes(vals, kernel.exclusions):
                    excluded += 1
                    continue
            evaluated += 1
            H = M if -M <= t <= M else abs(t)
            if H == 1:
                zero_height += 1
            lev = levels.get(H)
            if lev is None:
                lev = levels[H] = level(H)
            certified, rhs_pow, rhs_log, plans = lev
            lhs_log = 0.0
            proxim = []
            if certified:
                # only the logs are needed; a hyperplane's depends on G(x)
                # alone, and on -G(x) as on G(x)
                for start, stop, degs, c, memo, e, lb in plans:
                    if memo is None:
                        num, den = norm(start, stop, degs, c, vals, H)
                        # int / int is correctly rounded: this is log of float(Q)
                        m = log(num / den)
                    else:
                        v = vals[start]
                        m = memo.get(v)
                        if m is None:
                            num, den = norm(start, stop, degs, c, vals, H)
                            m = memo[v] = memo[-v] = log(num / den)
                    proxim.append(m)
                    lhs_log += lb * m
                violated = False
            else:
                lhs_num = lhs_den = 1
                for start, stop, degs, c, memo, e, lb in plans:
                    if memo is None:
                        num, den = norm(start, stop, degs, c, vals, H)
                        factors = num ** e, den ** e, log(num / den)
                    else:
                        v = vals[start]
                        factors = memo.get(v)
                        if factors is None:
                            num, den = norm(start, stop, degs, c, vals, H)
                            factors = memo[v] = memo[-v] = (
                                num ** e, den ** e, log(num / den))
                    fn, fd, m = factors
                    lhs_num *= fn
                    lhs_den *= fd
                    proxim.append(m)
                    lhs_log += lb * m
                violated = lhs_num > rhs_pow * lhs_den
            ratio = lhs_log / rhs_log if H > 1 else None
            better = ratio is not None and (best_ratio is None or ratio > best_ratio)
            if violated or keep_rows or better:
                row = ScanRow(head + str(t), H, tuple(proxim),
                              lhs_log, rhs_log, ratio, violated)
                if violated:
                    if H >= config.min_height_norm:
                        violations.append(row)
                    else:
                        low_hits += 1
                if better:
                    best = row
                    best_ratio = ratio
                if keep_rows:
                    rows.append(row)
    return ScanReport(total, skipped, excluded, evaluated, zero_height,
                      low_hits, tuple(violations), best,
                      None if rows is None else tuple(rows))


def sigma_select(Ys, values):
    """Indices of the longest prefix, after sorting by value descending,
    whose supports still share a common point.

    Ties break by original index.  This mirrors picking, at a given point,
    the subschemes it is closest to, as many as can meet simultaneously.
    """
    Ys = list(Ys)
    if len(values) != len(Ys):
        raise ValueError("need one value per subscheme")
    order = sorted(range(len(Ys)), key=lambda i: (-Fraction(values[i]), i))
    selected = []
    for i in order:
        trial = selected + [i]
        if common_support_dim([Ys[j] for j in trial]) is None:
            break
        selected = trial
    return tuple(selected)


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
