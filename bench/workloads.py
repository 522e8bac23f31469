"""Seeded job lists for the diophkit benchmark, with their output checks.

A workload is a list of ``python -m diophkit`` command lines.  The seed
picks, for each job separately, an invertible integer matrix A with entries
in [-2, 2] (see draw_change) and replaces every generator g of the job's
subschemes by g(A x).  Graded dimensions do not change under an invertible
linear change of coordinates, so every dimension-valued answer is known in
closed form or from the untransformed problem; the generic (non-monomial)
code path still runs because draws that leave a generator a monomial are
rejected.
The paper's four-line scan and the coordinate controls are never
transformed.

Every check here uses plain Python integers and Fractions and none of the
code under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1


# --- plain integer polynomials: {exponent tuple: int coefficient} ---------

def linear(*coeffs):
    n = len(coeffs)
    return {tuple(int(i == j) for i in range(n)): c
            for j, c in enumerate(coeffs) if c}


def poly_from_terms(nvars, terms):
    """terms: {((var, exp), ...): coeff}."""
    out = {}
    for factors, c in terms.items():
        exps = [0] * nvars
        for v, e in factors:
            exps[v] += e
        out[tuple(exps)] = out.get(tuple(exps), 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(f, A):
    """f(A x): variable x_j becomes sum_k A[j][k] x_k."""
    images = [linear(*row) for row in A]
    nvars = len(A)
    out = {}
    for exps, c in f.items():
        term = {(0,) * nvars: c}
        for j, e in enumerate(exps):
            for _ in range(e):
                term = poly_mul(term, images[j])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {e: c for e, c in out.items() if c}


def poly_str(f):
    """Render in the CLI's polynomial syntax, terms in descending order."""
    parts = []
    for exps in sorted(f, reverse=True):
        c = f[exps]
        mono = "*".join("x%d" % j if e == 1 else "x%d^%d" % (j, e)
                        for j, e in enumerate(exps) if e)
        body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def evaluate(f, point):
    total = 0
    for exps, c in f.items():
        term = c
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def det(A):
    """Exact determinant by Fraction elimination."""
    m = [[Fraction(v) for v in row] for row in A]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return result


def draw_change(seed, job, subschemes):
    """Apply a seeded invertible change of coordinates to every generator of
    ``subschemes`` (a list of generator lists).

    The matrix is M S.  M is drawn once per job name: entries in [-2, 2],
    det != 0, and no generator left a monomial.  S is a diagonal matrix of
    signs drawn from the seed.  Flipping the sign of a variable multiplies
    columns of every elimination matrix by -1 and maps the scan's sample
    onto itself, so each seed gets its own input with exactly the same
    arithmetic cost.  Fully random matrices per seed changed single job
    costs by up to 2x, and even a seeded permutation of the variables
    changed the P^3 point job by 15%.
    """
    nvars = len(next(iter(subschemes[0][0])))
    rng = random.Random("matrix:%s" % job)
    while True:
        M = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(nvars)]
        if det(M) != 0 and all(len(substitute(g, M)) > 1
                               for gens in subschemes for g in gens):
            break
    rng = random.Random("%d:%s" % (seed, job))
    signs = [rng.choice((-1, 1)) for _ in range(nvars)]
    A = [[M[i][k] * signs[k] for k in range(nvars)] for i in range(nvars)]
    return [[substitute(g, A) for g in gens] for gens in subschemes]


# --- jobs -----------------------------------------------------------------

@dataclass
class Job:
    name: str
    argv: list
    check: object            # callable(stdout text) -> None, raises on mismatch
    seed_free: bool          # stdout bytes do not depend on the seed
    files: dict = field(default_factory=dict)   # name -> text, written to the run dir


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def ideals_arg(subschemes):
    return ";".join(",".join(poly_str(g) for g in gens) for gens in subschemes)


def rat_list(values):
    return ",".join(str(Fraction(v)) for v in values)


# scan -------------------------------------------------------------------------

def sample_points(nvars, bound):
    for tup in itertools.product(range(-bound, bound + 1), repeat=nvars):
        lead = next((c for c in tup if c != 0), 0)
        if lead > 0 and math.gcd(*tup) == 1:
            yield tup


def scan_counts(subschemes, exclusions, nvars, bound):
    """Reference counters of the scan, and the evaluated points in order."""
    total = skipped = excluded = zero = 0
    evaluated = []
    for p in sample_points(nvars, bound):
        total += 1
        if any(all(evaluate(g, p) == 0 for g in gens) for gens in subschemes):
            skipped += 1
        elif any(all(evaluate(g, p) == 0 for g in gens) for gens in exclusions):
            excluded += 1
        else:
            evaluated.append(p)
            zero += max(abs(c) for c in p) == 1
    return {"total": total, "skipped": skipped, "excluded": excluded,
            "evaluated": len(evaluated), "zero_height": zero}, evaluated


def check_scan_json(expected):
    def check(out):
        data = json.loads(out)
        for key, value in expected.items():
            expect(data[key] == value, "scan %s = %r, expected %r"
                   % (key, data[key], value))
        expect(data["violations"] == [], "scan reported violations")
    return check


def check_scan_rows(points):
    want = [":".join(map(str, p)) for p in points]

    def check(out):
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows[0][0] == "point", "scan csv header")
        body = rows[1:]
        expect([r[0] for r in body] == want, "scan rows differ from the sample")
        expect(all(int(r[1]) == max(abs(int(c)) for c in r[0].split(":"))
                   for r in body), "scan row height_norm")
        expect(all(r[6] == "0" for r in body), "scan row marked violated")
    return check


def scan_config(subschemes, betas, places, epsilon):
    """Config JSON with every key set, min_height_norm included."""
    nvars = len(next(iter(subschemes[0][0])))
    return json.dumps({
        "subschemes": [{"label": "Y%d" % (i + 1), "nvars": nvars,
                        "generators": [poly_str(g) for g in gens]}
                       for i, gens in enumerate(subschemes)],
        "betas": [str(Fraction(b)) for b in betas],
        "places": list(places),
        "epsilon": str(Fraction(epsilon)),
        "exclusions": [],
        "min_height_norm": 10,
    }, indent=2)


def scan_jobs(seed):
    # every weight vector keeps sum_i beta_i deg(Y_i) <= 1 + epsilon, and a
    # Weil function of an integral generator is at most deg * h, so no
    # point can violate the inequality and every job exits 0
    L = [linear(1, 0, 0), linear(0, 1, 0), linear(0, 0, 1), linear(1, 1, 1)]
    D = [linear(1, 1, 0), linear(1, 0, 1), linear(0, 1, 1)]
    four_bound = 10
    counts, _ = scan_counts([[g] for g in L], [[g] for g in D], 3, four_bound)
    jobs = [Job("four_lines",
                ["scan", "--four-lines", "--bound", str(four_bound),
                 "--output", "json"],
                check_scan_json(counts), seed_free=True)]

    conic = poly_from_terms(3, {((0, 2),): 1, ((1, 2),): 1, ((2, 2),): -1})
    plane_cfg = [[conic], [linear(1, 2, -1)], [linear(1, 0, -1), linear(0, 1, -1)]]
    plane_cfg = draw_change(seed, "plane_config", plane_cfg)
    plane_bound = 9
    counts, _ = scan_counts(plane_cfg, [], 3, plane_bound)
    jobs.append(Job("plane_config",
                    ["scan", "--config", "plane.json", "--bound", str(plane_bound),
                     "--output", "json"],
                    check_scan_json(counts), seed_free=False,
                    files={"plane.json": scan_config(
                        plane_cfg, ["1/4", "1/3", "1/3"], ["inf", "2", "3", "5", "7"],
                        "1/2")}))

    quadric = poly_from_terms(4, {((0, 1), (3, 1)): 1, ((1, 1), (2, 1)): -1})
    space_cfg = [[linear(1, 1, 1, 1)], [linear(1, -1, 2, 0)], [quadric],
                 [linear(1, 0, 0, -1), linear(0, 1, 1, 0)]]
    space_cfg = draw_change(seed, "space_config", space_cfg)
    space_bound = 4
    _, points = scan_counts(space_cfg, [], 4, space_bound)
    jobs.append(Job("space_rows",
                    ["scan", "--config", "space.json", "--bound", str(space_bound),
                     "--keep-rows", "--output", "csv"],
                    check_scan_rows(points), seed_free=False,
                    files={"space.json": scan_config(
                        space_cfg, ["1/4", "1/4", "1/8", "1/4"], ["inf", "2", "3"],
                        "1/2")}))
    return jobs


# beta -------------------------------------------------------------------------

def point_terms(n, D):
    """h^0(O(D) . I_p^m) for a reduced point of P^n, m = 1.. first zero."""
    return [math.comb(D + n, n) - math.comb(m - 1 + n, n) for m in range(1, D + 1)]


def line_terms(D):
    """Same for a line in P^3: monomials of degree >= m in two variables."""
    return [sum((k + 1) * (D - k + 1) for k in range(m, D + 1))
            for m in range(1, D + 1)]


def conic_terms(N):
    """Same for a plane conic in degree 2N."""
    return [math.comb(2 * N - 2 * m + 2, 2) for m in range(1, N + 1)]


def check_beta_json(terms, N, ambient):
    def check(out):
        data = json.loads(out)
        expect(data["terms"] == terms, "beta terms %r" % data["terms"])
        value = Fraction(sum(terms), N * ambient)
        expect(Fraction(data["value"]) == value, "beta value %s" % data["value"])
    return check


def check_crosscheck(terms, N, ambient):
    def check(out):
        data = json.loads(out)
        expect(data["terms"] == terms and data["blowup_terms"] == terms,
               "crosscheck terms")
        expect(data["match"] is True, "crosscheck match")
        expect(Fraction(data["value"]) == Fraction(sum(terms), N * ambient),
               "crosscheck value")
    return check


def check_line_table(n_max):
    def check(out):
        rows = list(csv.DictReader(io.StringIO(out)))
        expect([int(r["N"]) for r in rows] == list(range(1, n_max + 1)),
               "convergence rows")
        low = None
        for r in rows:
            N = int(r["N"])
            num, den = sum(line_terms(N)), N * math.comb(N + 3, 3)
            value = Fraction(num, den)
            low = value if low is None else min(low, value)
            expect((int(r["numerator"]), int(r["denominator"])) == (num, den),
                   "convergence N=%d" % N)
            expect(Fraction(r["value"]) == value
                   and Fraction(r["min_so_far"]) == low, "convergence N=%d" % N)
    return check


def beta_jobs(seed):
    jobs = []
    [space_point] = draw_change(
        seed, "space_point", [[linear(1, 0, 0, 1), linear(0, 1, 0, 1),
                               linear(0, 0, 1, 1)]])
    N = 7
    jobs.append(Job("space_point",
                    ["beta", "--space", "P3", "--ideal", ",".join(map(poly_str, space_point)),
                     "--N", str(N), "--output", "json"],
                    check_beta_json(point_terms(3, N), N, math.comb(N + 3, 3)),
                    seed_free=True))

    [line] = draw_change(seed, "space_line", [[linear(1, -1, 0, 0), linear(0, 0, 1, 1)]])
    n_max = 7
    jobs.append(Job("space_line",
                    ["beta", "--space", "P3", "--ideal", ",".join(map(poly_str, line)),
                     "--n-max", str(n_max), "--output", "csv"],
                    check_line_table(n_max), seed_free=True))

    [plane_point] = draw_change(seed, "plane_point", [[linear(1, 1, 0), linear(0, 1, -1)]])
    N = 12
    jobs.append(Job("plane_point",
                    ["beta", "--space", "P2", "--ideal", ",".join(map(poly_str, plane_point)),
                     "--N", str(N), "--crosscheck", "--output", "json"],
                    check_crosscheck(point_terms(2, N), N, math.comb(N + 2, 2)),
                    seed_free=True))

    conic = poly_from_terms(3, {((0, 2),): 1, ((1, 2),): 1, ((2, 2),): -1})
    [[conic]] = draw_change(seed, "conic", [[conic]])
    N = 8
    jobs.append(Job("conic",
                    ["beta", "--space", "P2", "--ideal", poly_str(conic),
                     "--degree", "2", "--N", str(N), "--output", "json"],
                    check_beta_json(conic_terms(N), N, math.comb(2 * N + 2, 2)),
                    seed_free=True))

    N = 40
    jobs.append(Job("coordinate_point",
                    ["beta", "--space", "P2", "--ideal", "x0,x1", "--N", str(N),
                     "--output", "json"],
                    check_beta_json(point_terms(2, N), N, math.comb(N + 2, 2)),
                    seed_free=True))
    return jobs


# filtration -------------------------------------------------------------------

def triangle_profile(t, N):
    """Jump profile of the coordinate triangle: dim at x counts the degree-N
    monomials x^e with t.e >= x."""
    levels = [sum(w * v for w, v in zip(t, e))
              for e in itertools.product(range(N + 1), repeat=3) if sum(e) == N]
    return [(v, sum(1 for lv in levels if lv >= v)) for v in sorted(set(levels))]


def F_of(jumps, ambient):
    total, prev = Fraction(0), Fraction(0)
    for x, d in jumps:
        total += d * (x - prev)
        prev = x
    return total / ambient


def check_profile(t, N):
    jumps = triangle_profile(t, N)
    ambient = math.comb(N + 2, 2)

    def check(out):
        data = json.loads(out)
        got = [(Fraction(num, den), d) for num, den, d in data["jumps"]]
        expect(got == jumps, "profile jumps differ from the monomial count")
        expect(data["ambient_dim"] == ambient, "profile ambient dim")
        expect(Fraction(data["F"]) == F_of(jumps, ambient), "profile F")
    return check


def check_dependent_profile(N):
    ambient = math.comb(N + 2, 2)

    def check(out):
        data = json.loads(out)
        jumps = [(Fraction(num, den), d) for num, den, d in data["jumps"]]
        expect(jumps[0][1] == ambient, "profile starts at the ambient dim")
        expect(all(a[0] < b[0] and a[1] > b[1] for a, b in zip(jumps, jumps[1:])),
               "profile is not a decreasing step function")
        expect(Fraction(data["F"]) == F_of(jumps, ambient), "profile F")
    return check


def check_concavity(t, betas, N):
    ambient = math.comb(N + 2, 2)
    line_sum = sum(math.comb(N - m + 2, 2) for m in range(1, N + 1))
    rhs = min(Fraction(line_sum, ambient) / b for b in betas)
    lhs = F_of(triangle_profile(t, N), ambient)

    def check(out):
        data = json.loads(out)
        expect(Fraction(data["rhs"]) == rhs, "concavity rhs %s" % data["rhs"])
        expect(Fraction(data["lhs"]) == lhs, "concavity lhs %s" % data["lhs"])
    return check


def check_common_basis(t, t2, N):
    monos = [e for e in itertools.product(range(N + 1), repeat=3) if sum(e) == N]
    pairs = sorted((sum(w * v for w, v in zip(t, e)),
                    sum(w * v for w, v in zip(t2, e))) for e in monos)

    def check(out):
        data = json.loads(out)
        got = sorted((Fraction(r["mu"]), Fraction(r["mu2"])) for r in data)
        expect(got == pairs, "adapted basis mu pairs differ from the monomial count")
    return check


def filtration_jobs(seed):
    # three lines in general position are a linear change of coordinates of
    # the coordinate triangle, line i going to x_i = 0
    general = [[linear(1, 1, 0)], [linear(0, 1, 1)], [linear(1, 0, 1)]]
    t = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    jobs = []
    N = 5
    lines = draw_change(seed, "general_lines", general)
    jobs.append(Job("general_lines",
                    ["filtration", "--space", "P2", "--ideals", ideals_arg(lines),
                     "--weights", rat_list(t), "--N", str(N), "--output", "json"],
                    check_profile(t, N), seed_free=True))

    four = [[linear(1, 0, 0)], [linear(0, 1, 0)], [linear(0, 0, 1)], [linear(1, 1, 1)]]
    t4 = t + [Fraction(1, 5)]
    N = 3
    lines = draw_change(seed, "four_lines", four)
    jobs.append(Job("four_lines",
                    ["filtration", "--space", "P2", "--ideals", ideals_arg(lines),
                     "--weights", rat_list(t4), "--N", str(N), "--output", "json"],
                    check_dependent_profile(N), seed_free=True))

    N = 16
    jobs.append(Job("coordinate_triangle",
                    ["filtration", "--space", "P2", "--ideals", "x0;x1;x2",
                     "--weights", rat_list(t), "--N", str(N), "--output", "json"],
                    check_profile(t, N), seed_free=True))

    t_eq = [Fraction(1)] * 3
    betas = [Fraction(1, 3)] * 3
    N = 7
    lines = draw_change(seed, "concavity", general)
    jobs.append(Job("concavity",
                    ["concavity-test", "--space", "P2", "--ideals", ideals_arg(lines),
                     "--betas", rat_list(betas), "--weights", rat_list(t_eq),
                     "--N", str(N), "--output", "json"],
                    check_concavity(t_eq, betas, N), seed_free=True))

    t2 = list(reversed(t))
    N = 3
    lines = draw_change(seed, "adapted_basis", general)
    jobs.append(Job("adapted_basis",
                    ["adapted-basis", "--space", "P2", "--ideals", ideals_arg(lines),
                     "--weights", rat_list(t), "--weights2", rat_list(t2),
                     "--N", str(N), "--output", "json"],
                    check_common_basis(t, t2, N), seed_free=False))
    return jobs


WORKLOADS = {"scan": scan_jobs, "beta": beta_jobs, "filtration": filtration_jobs}


def sha256(data):
    return hashlib.sha256(data).hexdigest()
