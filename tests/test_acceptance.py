"""Acceptance gate: one check per shipped guarantee.

Each test prints a single verdict line (run pytest with -s to see them)
and enforces its own wall-clock budget.  Every numeric claim is checked
against an oracle computed by a different route than the code under
test: literal monomial counts, condition-matrix ranks, staircase counts,
or hand-expanded constants.
"""

import contextlib
import itertools
import math
import random
import time
from fractions import Fraction

from adapted_oracle import meet
from diophkit import linalg
from diophkit.beta import beta_blowup_crosscheck, beta_truncated
from diophkit.experiments import (
    four_lines_config,
    four_lines_table,
    scan_inequality,
)
from diophkit.filtration import (
    F_value,
    adapted_basis,
    build_profile,
    concavity_bound,
    is_adapted,
    scale_check,
)
from diophkit.graded import (
    Subscheme,
    coordinate_groups,
    dim_full,
    filtration_ideal_gens,
    order_vector,
)
from diophkit.heights import (
    PLACE_INF,
    Place,
    ProjectivePoint,
    SupportError,
    global_weil_norm,
    height_norm,
    ord_p,
    weil_norm,
)
from diophkit.polynomials import HomogeneousForm, monomial_exponents
from diophkit.surface import (
    strict_transform_line,
    three_point_blowup,
    weighted_lines_class,
)


@contextlib.contextmanager
def criterion(number, name, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, name))
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget:
        print("criterion %d (%s): FAIL [%.2fs over the %.0fs budget]"
              % (number, name, elapsed, budget))
        raise AssertionError("criterion %d exceeded its time budget" % number)
    print("criterion %d (%s): PASS [%.2fs]" % (number, name, elapsed))


def test_criterion_1_weighted_lines_table():
    with criterion(1, "weighted-lines closed-form table", 1.0):
        model = three_point_blowup()
        rows = four_lines_table(10)
        assert [r.l for r in rows] == list(range(1, 11))
        for r in rows:
            l = r.l
            assert r.A_self == 6 * l * l + 6 * l + 1
            assert r.A_dot_D == 2 * l + 1
            A = weighted_lines_class(l)
            for i in (1, 2, 3):
                assert model.intersect(A, strict_transform_line(i)) == 2 * l + 1
            assert r.xi == Fraction(6 * l * l + 6 * l + 1, 2 * (2 * l + 1))
            assert r.beta == Fraction(6 * l * l + 6 * l + 1, 8 * l + 4)
            assert r.epsilon == l
            assert r.beta >= Fraction(3 * l, 4)
            assert Fraction(l, 3) < r.beta


def hyperplane_count_value(n, N):
    """Literal count of degree-N monomials divisible by x0^m, summed."""
    total = 0
    m = 1
    while True:
        hits = sum(1 for e in monomial_exponents(N, n + 1) if e[0] >= m)
        if hits == 0:
            break
        total += hits
        m += 1
    return Fraction(total, N * dim_full(N, n))


def point_rank_terms(point, N):
    """h^0 of vanishing orders at the point via condition-matrix ranks.

    One row per derivative of order < m; the rank counts the independent
    conditions, so h is ambient minus rank."""
    cols = monomial_exponents(N, 3)

    def cell(e, alpha):
        coeff = Fraction(1)
        for ei, ai in zip(e, alpha):
            if ei < ai:
                return Fraction(0)
            for step in range(ai):
                coeff *= ei - step
        return coeff * math.prod(
            Fraction(p) ** (ei - ai) for p, ei, ai in zip(point, e, alpha))

    terms = []
    m = 1
    while True:
        conditions = [a for a in itertools.product(range(m), repeat=3)
                      if sum(a) < m]
        rows = [[cell(e, alpha) for e in cols] for alpha in conditions]
        h = len(cols) - linalg.rank(rows)
        if h == 0:
            break
        terms.append(h)
        m += 1
    return tuple(terms)


def test_criterion_2_closed_beta_values():
    with criterion(2, "closed expansion values with oracles", 30.0):
        for n in (1, 2, 3):
            Y = Subscheme.from_strings("H", ["x0"], nvars=n + 1)
            for N in range(1, 16):
                rep = beta_truncated(Y, 1, N)
                assert rep.value == Fraction(1, n + 1)
                assert rep.value == hyperplane_count_value(n, N)
        point = (1, 2, 3)
        Y = Subscheme.from_strings("pt", ["2*x0 - x1", "3*x0 - x2"], nvars=3)
        for N in range(1, 9):
            rep = beta_truncated(Y, 1, N)
            assert rep.value == Fraction(2, 3)
            assert rep.terms == point_rank_terms(point, N)


def test_criterion_3_blowup_section_counts():
    with criterion(3, "graded vs blow-up section counts", 30.0):
        for gens in (["x0", "x1"], ["2*x0 - x1", "3*x0 - x2"]):
            Y = Subscheme.from_strings("pt", gens, nvars=3)
            for N in range(1, 9):
                rep = beta_blowup_crosscheck(Y, 1, N)
                assert len(rep.terms) == N  # every order 1 <= m <= N hit
                assert rep.terms == rep.blowup_terms


def coordinate_instance(rng):
    """Disjoint coordinate-variable subschemes leaving at least one free
    variable, so the common support is nonempty and every generator list
    is a regular sequence."""
    nvars = rng.choice((3, 4))
    used = rng.sample(range(nvars), rng.randint(1, nvars - 1))
    count = rng.randint(1, len(used))
    blocks = [[] for _ in range(count)]
    for v in used:
        blocks[rng.randrange(count)].append(v)
    blocks = [sorted(b) for b in blocks if b]
    Ys = [Subscheme.from_strings("Y%d" % (i + 1), ["x%d" % v for v in b],
                                 nvars=nvars)
          for i, b in enumerate(blocks)]
    t = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in Ys)
    u = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in Ys)
    N = rng.randint(1, 6)
    return Ys, t, u, N


def random_threshold(rng, t):
    x = sum(w * rng.randint(0, 2) for w in t)
    return x if x > 0 else t[0]


def check_filtration_instance(rng, Ys, t, u, N):
    nvars = Ys[0].nvars
    groups = coordinate_groups(Ys)
    assert groups is not None
    columns = {e: i for i, e in enumerate(monomial_exponents(N, nvars))}
    width = len(columns)

    def piece_rows(w, x):
        return linalg.rref([f.coeff_vector(columns)
                            for f in filtration_ideal_gens(Ys, w, x, N)
                            if not f.is_zero])

    x = random_threshold(rng, t)
    y = random_threshold(rng, u)
    A = piece_rows(t, x)
    B = piece_rows(u, y)

    # graded-dimension identity: the linear-algebra intersection matches
    # the count of monomials whose order vector o lies in both threshold
    # sets, t.o >= x and u.o >= y
    sum_dim = len(linalg.rref(list(A) + list(B)))
    inter_dim = len(A) + len(B) - sum_dim
    staircase_count = 0
    for e in monomial_exponents(N, nvars):
        o = order_vector(e, groups)
        if (sum(w * v for w, v in zip(t, o)) >= x
                and sum(w * v for w, v in zip(u, o)) >= y):
            staircase_count += 1
    assert inter_dim == staircase_count

    # weight expansion: splitting every block into single variables with
    # repeated weights leaves the graded dimensions unchanged
    from diophkit.graded import graded_dim_filtration_ideal

    split_Ys, split_t = [], []
    for Y, w, grp in zip(Ys, t, groups):
        for j, _ in grp:
            split_Ys.append(Subscheme.from_strings("S%d" % j, ["x%d" % j],
                                                   nvars=nvars))
            split_t.append(w)
    for threshold in (x, y, x + y):
        assert graded_dim_filtration_ideal(Ys, t, threshold, N) == \
            graded_dim_filtration_ideal(split_Ys, split_t, threshold, N)

    # convex containment: intersections land inside the mixed piece
    lams = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    inter = meet(A, B, width)
    for lam in lams:
        mixed = piece_rows(tuple(lam * a + (1 - lam) * b
                                 for a, b in zip(t, u)),
                           lam * x + (1 - lam) * y)
        space = linalg.RowSpace(width)
        for row in mixed:
            space.add(row)
        for vec in inter:
            assert vec in space

    # scaling F(u t) = u F(t)
    factor = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    left, right = scale_check(Ys, t, factor, N)
    assert left == right

    # adapted basis averages back to F
    profile = build_profile(Ys, t, N, with_bases=True)
    basis = adapted_basis(profile)
    assert is_adapted(basis, profile)
    assert F_value(profile) == \
        Fraction(sum(basis.mu_values), profile.ambient_dim)

    # concavity of F in the weights
    Ft = F_value(profile)
    Fu = F_value(build_profile(Ys, u, N))
    for lam in lams:
        mixed_t = tuple(lam * a + (1 - lam) * b for a, b in zip(t, u))
        assert F_value(build_profile(Ys, mixed_t, N)) >= \
            lam * Ft + (1 - lam) * Fu

    # lower bound at normalized weights
    betas = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 4))
                  for _ in Ys)
    total = sum(b * w for b, w in zip(betas, t))
    scaled = tuple(w / total for w in t)
    report = concavity_bound(Ys, betas, scaled, N)
    assert report.hypotheses_met
    assert report.holds


def test_criterion_4_filtration_property_suite():
    with criterion(4, "randomized filtration property suite", 300.0):
        rng = random.Random(2024)
        for _ in range(110):
            Ys, t, u, N = coordinate_instance(rng)
            check_filtration_instance(rng, Ys, t, u, N)


PLACES = (PLACE_INF, Place(2), Place(3), Place(5))


def random_form(rng, nvars, degree):
    while True:
        f = HomogeneousForm.zero(nvars, degree)
        for e in monomial_exponents(degree, nvars):
            f = f + HomogeneousForm.monomial(e, rng.randint(-5, 5))
        if not f.is_zero:
            return f


def random_point(rng, nvars, box=25):
    coords = [rng.randint(-box, box) for _ in range(nvars)]
    if all(c == 0 for c in coords):
        coords[0] = 1
    return ProjectivePoint(coords)


def off_support_points(rng, schemes, nvars, count):
    pts = []
    while len(pts) < count:
        P = random_point(rng, nvars)
        try:
            for Y in schemes:
                for v in PLACES:
                    weil_norm(Y, P, v)
        except SupportError:
            continue
        pts.append(P)
    return pts


def multiplier_constants(multipliers):
    c_inf = max(
        sum(sum(abs(c) for c in h.terms.values())
            for h in row if h is not None)
        for row in multipliers)
    coeffs = [c for row in multipliers for h in row if h is not None
              for c in h.terms.values()]
    out = {PLACE_INF: Fraction(c_inf)}
    for v in PLACES[1:]:
        drop = min(ord_p(c, v.p) for c in coeffs)
        out[v] = Fraction(v.p) ** (-min(0, drop))
    return out


def test_criterion_5_height_identities():
    with criterion(5, "height decomposition and local-value laws", 60.0):
        rng = random.Random(101)

        # hypersurfaces: all-places sum equals degree times height, exactly
        done = 0
        while done < 200:
            nvars = rng.choice((2, 3))
            degree = rng.randint(1, 3)
            Y = Subscheme("D", (random_form(rng, nvars, degree),))
            P = random_point(rng, nvars, box=20)
            try:
                total = global_weil_norm(Y, P)
            except SupportError:
                continue
            assert total == height_norm(P) ** degree
            done += 1

        # intersection = min and sum = product, with constant exactly zero
        X = Subscheme.from_strings("A", ["x0", "x1"], nvars=3)
        Y = Subscheme.from_strings("B", ["x1 + x2", "x0 - x2"], nvars=3)
        meet = Subscheme("A|B", X.generators + Y.generators)
        prod = Subscheme("A*B", tuple(g * h for g in X.generators
                                      for h in Y.generators))
        square = Subscheme("A^2", tuple(g * h for g, h in
                                        itertools.combinations_with_replacement(
                                            X.generators, 2)))
        for P in off_support_points(rng, (X, Y), 3, 40):
            for v in PLACES:
                qx, qy = weil_norm(X, P, v), weil_norm(Y, P, v)
                assert weil_norm(meet, P, v) == min(qx, qy)
                assert weil_norm(prod, P, v) == qx * qy
                assert weil_norm(square, P, v) == qx ** 2

        # containment: explicit multiplier constants, stable and bounded
        cases = [
            (["x0*x2 + x1^2", "x0^2 - x1^2"], [["x2", "x1"], ["x0", "-x1"]]),
            (["x0^2 + 3*x0*x1"], [["x0 + 3*x1", None]]),
            (["1/2*x0^2 + x1^2", "x0*x1"], [["1/2*x0", "x1"], ["x1", None]]),
        ]
        reported = []
        for ygens, mult in cases:
            bigger = Subscheme.from_strings("Y", ygens, nvars=3)
            tables = [[None if g is None else
                       Subscheme.from_strings("t", [g], nvars=3).generators[0]
                       for g in row] for row in mult]
            for psi, row in zip(bigger.generators, tables):
                acc = HomogeneousForm.zero(3, psi.degree)
                for h, phi in zip(row, X.generators):
                    if h is not None:
                        acc = acc + h * phi
                assert acc.terms == psi.terms
            consts = multiplier_constants(tables)
            assert consts == multiplier_constants(tables)  # point free
            assert all(c <= 4 for c in consts.values())
            for batch_seed in (7, 8):
                batch_rng = random.Random(batch_seed)
                for P in off_support_points(batch_rng, (X, bigger), 3, 25):
                    for v in PLACES:
                        assert weil_norm(X, P, v) <= \
                            weil_norm(bigger, P, v) * consts[v]
            reported.append(",".join("%s=%s" % (v, c)
                                     for v, c in sorted(consts.items())))
        print("  containment constants per case: " + " | ".join(reported))


def test_criterion_6_four_lines_scan():
    with criterion(6, "four-line proximity scan to bound 50", 300.0):
        report = scan_inequality(four_lines_config(), bound=50)
        assert report.total > 400000
        assert report.skipped + report.excluded + report.evaluated == \
            report.total
        assert report.violations == ()
        assert report.max_ratio_row is not None
        assert report.max_ratio_row.ratio < 1
        print("  %d points, %d evaluated, 0 violations above floor, "
              "%d below, max lhs/rhs %.6f"
              % (report.total, report.evaluated, report.low_height_hits,
                 report.max_ratio_row.ratio))


def test_criterion_7_seshadri_certificates():
    with criterion(7, "positivity threshold certificates", 30.0):
        model = three_point_blowup()
        D = strict_transform_line(1)
        for l in range(1, 11):
            A = weighted_lines_class(l)
            rep = model.seshadri_report(A, D)
            assert rep.gamma == l
            assert model.E(1) in rep.tight
            assert rep.nef_at_gamma
            # re-verify both certificates directly against the curve list
            at_gamma = A - l * D
            for C in model.test_curves:
                assert model.intersect(at_gamma, C) >= 0
            assert rep.fail_gamma == Fraction(100 * l + 1, 100)
            witness = rep.fail_witness
            assert witness is not None
            assert model.intersect(A - rep.fail_gamma * D, witness) < 0
