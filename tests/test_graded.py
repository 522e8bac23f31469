"""Graded pieces of ideal powers and filtration ideals, plus the
general-position checker.

The intersection and expansion identities are checked here on small fixed
instances; the randomized sweep lives in the acceptance suite.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle
from adapted_oracle import meet
from diophkit import graded
from diophkit.filtration import build_profile
from diophkit.graded import (
    CatalogError,
    Subscheme,
    _parse_family,
    check_general_position,
    common_support_dim,
    complete_intersection_degrees,
    coordinate_groups,
    dim_full,
    filtration_ideal_gens,
    graded_dim_filtration_ideal,
    graded_dim_ideal_power,
    ideal_power_gens,
    normalize,
    order_vector,
    span_dim,
    span_piece,
)
from diophkit.linalg import in_span, rref
from diophkit.polynomials import FormError, HomogeneousForm, monomial_exponents, parse_form


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


class TestDimFull:
    def test_examples(self):
        assert dim_full(3, 2) == 10
        assert dim_full(0, 3) == 1
        assert dim_full(5, 1) == 6
        assert dim_full(-1, 2) == 0


class TestSpanRank:
    def test_duplicate_monomials(self):
        forms = [parse_form("x0^2", nvars=2), parse_form("x0^2", nvars=2),
                 parse_form("x1^2", nvars=2)]
        assert span_dim(forms) == 2

    def test_empty(self):
        assert span_dim([]) == 0

    def test_dependent_triple(self):
        forms = [parse_form("x0^2 + x1^2"), parse_form("x0^2 - x1^2"),
                 parse_form("x0^2", nvars=2)]
        assert span_dim(forms) == 2

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            span_dim([parse_form("x0", nvars=2), parse_form("x1^2", nvars=2)])

    def test_span_piece_basis_is_echelon(self):
        piece = span_piece([parse_form("x0^2 + x1^2"),
                            parse_form("x0^2 - x1^2")], 2, 2)
        assert len(piece) == 2
        texts = {f.to_string() for f in piece}
        assert texts == {"x0^2", "x1^2"}

    def test_span_piece_of_zeros_is_empty(self):
        assert span_piece([HomogeneousForm.zero(3, 2)] * 2, 3, 2) == ()


class TestIdealPowerDims:
    def test_point_in_plane(self):
        Y = sub("pt", ["x0", "x1"], 3)
        assert graded_dim_ideal_power(Y, 2, 3) == 7
        assert graded_dim_ideal_power(Y, 0, 3) == 10
        assert graded_dim_ideal_power(Y, 1, 1) == 2

    def test_hyperplane_powers(self):
        H = sub("H", ["x0"], 3)
        assert graded_dim_ideal_power(H, 2, 3) == 3
        assert graded_dim_ideal_power(H, 4, 3) == 0

    def test_rank_route_matches_counting_route(self):
        # tilted point: normalize sends it to the counting route, and the
        # rank of its generating family is the generic route
        Y_tilted = sub("pt", ["x0 + x1", "x2"], 3)
        Y_coord = sub("pt", ["x0", "x2"], 3)
        assert coordinate_groups([Y_tilted]) is None
        assert normalize([Y_tilted]) is not None
        for m in range(5):
            for D in range(5):
                counted = graded_dim_ideal_power(Y_tilted, m, D)
                assert counted == span_dim(ideal_power_gens(Y_tilted, m, D))
                assert counted == graded_dim_ideal_power(Y_coord, m, D)

    def test_gens_span_expected_dimension(self):
        Y = sub("pt", ["x0", "x1"], 3)
        gens = ideal_power_gens(Y, 2, 3)
        assert span_dim(gens) == 7

    @pytest.mark.parametrize("m", [Fraction(1, 2), 1.5])
    def test_fractional_power_is_rejected(self, m):
        # rounding would give dim I^1 = 9 at m = 1/2 and dim I^2 = 7 at 1.5
        Y = sub("pt", ["x0", "x1"], 3)
        for power in (ideal_power_gens, graded_dim_ideal_power):
            with pytest.raises(TypeError):
                power(Y, m, 3)

    def test_gens_below_degree_zero_are_empty(self):
        Y = sub("pt", ["x0", "x1"], 3)
        assert [ideal_power_gens(Y, m, -1) for m in range(3)] == [[], [], []]

    def test_conic_powers(self):
        C = sub("conic", ["x0*x2 - x1^2"], 3)
        assert graded_dim_ideal_power(C, 1, 2) == 1
        assert graded_dim_ideal_power(C, 1, 3) == 3
        assert graded_dim_ideal_power(C, 2, 3) == 0


class TestFiltrationIdealDims:
    def test_zero_threshold(self):
        Ys = [sub("a", ["x0"], 2), sub("b", ["x1"], 2)]
        assert graded_dim_filtration_ideal(Ys, (1, 1), 0, 3) == dim_full(3, 1)

    def test_negative_degree_is_zero_on_every_route(self):
        normalized = [sub("a", ["x0"], 2)]
        generic = [sub("C", ["x0*x2 - x1^2"], 3), sub("L", ["x0 + x1"], 3)]
        assert normalize(normalized) is not None and normalize(generic) is None
        for Ys in (normalized, generic):
            for x in (0, 1, Fraction(5, 2)):
                assert graded_dim_filtration_ideal(Ys, (1,) * len(Ys), x, -1) == 0
            with pytest.raises(ValueError):
                graded_dim_filtration_ideal(Ys, (1,) * len(Ys), -1, -1)

    def test_two_points_on_line(self):
        Ys = [sub("a", ["x0"], 2), sub("b", ["x1"], 2)]
        assert graded_dim_filtration_ideal(Ys, (1, 1), 2, 3) == 4
        assert graded_dim_filtration_ideal(Ys, (1, 1), 4, 3) == 0

    def test_fast_and_span_routes_agree(self):
        """The monomial count agrees with the rank of the generating family
        and with the profile, also for a zero weight, a generator x0^2, and
        thresholds on and between the jumps."""
        coord = [sub("a", ["x0"], 3), sub("b", ["x1"], 3)]
        tilted = [sub("a", ["x0 + x2"], 3), sub("b", ["x1 - x2"], 3)]
        squared = [sub("a", ["x0^2", "x1"], 3), sub("b", ["x2"], 3)]
        assert coordinate_groups(tilted) is None and normalize(tilted) is not None
        assert coordinate_groups(squared) == [((0, 2), (1, 1)), ((2, 1),)]
        half = (1, Fraction(1, 2))
        assert build_profile(tilted, half, 3) == build_profile(coord, half, 3)
        cases = [(coord, half), (tilted, half), (tilted, (0, 1)),
                 (squared, (Fraction(1, 3), 1)), (squared, (1, 0))]
        for Ys, t in cases:
            profile = build_profile(Ys, t, 3)
            for x in [Fraction(k, 6) for k in range(1, 25)]:
                got = graded_dim_filtration_ideal(Ys, t, x, 3)
                assert got == span_dim(filtration_ideal_gens(Ys, t, x, 3))
                assert got == profile.dim_at(x)


def dot(w, b):
    return sum(Fraction(a) * v for a, v in zip(w, b))


def monomial_dim(Ys, member, D):
    """Counting oracle: degree-D monomials whose order vector passes member."""
    groups = coordinate_groups(Ys)
    assert groups is not None
    return sum(1 for e in monomial_exponents(D, Ys[0].nvars)
               if member(order_vector(e, groups)))


class TestIntersectionIdentity:
    """dim of I(M) cap I(N) via the rank identity equals dim of I(M cap N)."""

    def check(self, Ys, t, x, u, y, D):
        gens_M = filtration_ideal_gens(Ys, t, x, D)
        gens_N = filtration_ideal_gens(Ys, u, y, D)
        dim_M = span_dim(gens_M)
        dim_N = span_dim(gens_N)
        dim_sum = span_dim(list(gens_M) + list(gens_N))
        lhs = dim_M + dim_N - dim_sum
        # o lies in both threshold sets
        assert lhs == monomial_dim(Ys, lambda o: dot(t, o) >= x and dot(u, o) >= y, D)

    def test_two_points_p1(self):
        Ys = [sub("a", ["x0"], 2), sub("b", ["x1"], 2)]
        self.check(Ys, (1, 1), 2, (2, 1), 2, 4)

    def test_point_and_line_p2(self):
        Ys = [sub("pt", ["x0", "x1"], 3), sub("L", ["x2"], 3)]
        self.check(Ys, (1, Fraction(1, 2)), Fraction(3, 2), (1, 1), 1, 3)


class TestExpansionIdentity:
    """Filtration dims agree when a multi-generator subscheme is split into
    its coordinate pieces with repeated weights."""

    def test_point_in_p2_split(self):
        Y = [sub("pt", ["x0", "x1"], 3)]
        split = [sub("a", ["x0"], 3), sub("b", ["x1"], 3)]
        for x in [Fraction(1, 2), 1, Fraction(3, 2), 2, 3]:
            merged = graded_dim_filtration_ideal(Y, (1,), x, 3)
            expanded = graded_dim_filtration_ideal(split, (1, 1), x, 3)
            assert merged == expanded

    def test_weighted_split_p3(self):
        Y = [sub("pq", ["x0", "x1"], 4), sub("r", ["x2"], 4)]
        split = [sub("a", ["x0"], 4), sub("b", ["x1"], 4),
                 sub("c", ["x2"], 4)]
        t = (Fraction(1, 2), 2)
        te = (Fraction(1, 2), Fraction(1, 2), 2)
        for x in [Fraction(1, 2), 1, 2, Fraction(5, 2)]:
            assert graded_dim_filtration_ideal(Y, t, x, 3) == \
                graded_dim_filtration_ideal(split, te, x, 3)


class TestConvexContainment:
    """Degree-D piece of I(t,x) cap I(u,y) sits inside the piece at the
    convex combination of the data."""

    def check(self, Ys, t, x, u, y, lam, D):
        nvars = Ys[0].nvars
        columns = {e: i for i, e in enumerate(monomial_exponents(D, nvars))}
        rows_M = [f.coeff_vector(columns)
                  for f in filtration_ideal_gens(Ys, t, x, D) if not f.is_zero]
        rows_N = [f.coeff_vector(columns)
                  for f in filtration_ideal_gens(Ys, u, y, D) if not f.is_zero]
        inter = meet(rows_M, rows_N, len(columns))
        mix_t = tuple(lam * a + (1 - lam) * b for a, b in zip(t, u))
        mix_x = lam * Fraction(x) + (1 - lam) * Fraction(y)
        rows_W = [f.coeff_vector(columns)
                  for f in filtration_ideal_gens(Ys, mix_t, mix_x, D)
                  if not f.is_zero]
        W = rref(rows_W)
        for v in inter:
            assert in_span(v, W)

    def test_lambda_half_two_points(self):
        Ys = [sub("a", ["x0"], 2), sub("b", ["x1"], 2)]
        self.check(Ys, (1, 1), 2, (2, 1), 3, Fraction(1, 2), 4)

    def test_lambda_quarter_plane(self):
        Ys = [sub("pt", ["x0", "x1"], 3), sub("L", ["x2"], 3)]
        self.check(Ys, (1, 1), 2, (1, Fraction(1, 2)), 1, Fraction(1, 4), 3)


class TestCoordinateGroups:
    def test_detects_disjoint_monomial_generators(self):
        Ys = [sub("a", ["x0^2"], 3), sub("b", ["x1", "x2"], 3)]
        groups = coordinate_groups(Ys)
        assert groups == [((0, 2),), ((1, 1), (2, 1))]
        assert order_vector((4, 1, 0), groups) == (2, 1)

    def test_rejects_shared_variable(self):
        Ys = [sub("a", ["x0"], 3), sub("b", ["x0", "x1"], 3)]
        assert coordinate_groups(Ys) is None

    def test_rejects_non_monomial(self):
        assert coordinate_groups([sub("a", ["x0 + x1"], 3)]) is None


class TestSupportDim:
    def test_linear_cases(self):
        assert common_support_dim([sub("L", ["x0"], 3)]) == 1
        assert common_support_dim([sub("pt", ["x0", "x1"], 3)]) == 0
        assert common_support_dim([sub("a", ["x0"], 3),
                                   sub("b", ["x1"], 3)]) == 0
        assert common_support_dim([sub("a", ["x0", "x1"], 3),
                                   sub("b", ["x2"], 3)]) is None

    def test_one_nonlinear_hypersurface(self):
        conic = sub("C", ["x0*x2 - x1^2"], 3)
        assert common_support_dim([conic]) == 1
        line = sub("L", ["x0"], 3)
        assert common_support_dim([conic, line]) == 0

    def test_nonlinear_vanishing_on_linear_locus(self):
        # x0*x1 restricted to the line x0 = 0 vanishes identically
        quad = sub("Q", ["x0*x1"], 3)
        line = sub("L", ["x0"], 3)
        assert common_support_dim([quad, line]) == 1

    def test_two_nonlinear_rejected(self):
        Ys = [sub("C", ["x0*x2 - x1^2"], 3), sub("D", ["x0*x1"], 3)]
        with pytest.raises(CatalogError):
            common_support_dim(Ys)


class TestGeneralPosition:
    def test_two_distinct_points(self):
        Ys = [sub("p", ["x0", "x1"], 3), sub("q", ["x0", "x2"], 3)]
        assert check_general_position(Ys).ok

    def test_three_concurrent_lines(self):
        Ys = [sub("a", ["x0"], 3), sub("b", ["x1"], 3),
              sub("c", ["x0 + x1"], 3)]
        rep = check_general_position(Ys)
        assert not rep.ok and rep.witness == (0, 1, 2)

    def test_two_generic_lines(self):
        Ys = [sub("a", ["x0"], 3), sub("b", ["x1"], 3)]
        assert check_general_position(Ys).ok

    def test_empty_subscheme_has_infinite_codimension(self):
        # x0, x1, x2 cut out nothing in P^2: its codimension, and that of
        # its meet with the line, is infinite, so no subset fails
        Ys = [sub("empty", ["x0", "x1", "x2"], 3), sub("a", ["x0"], 3)]
        assert check_general_position(Ys).ok

    def test_rejects_mixed_ambient_spaces(self):
        Ys = [sub("a", ["x0"], 2), sub("b", ["x0"], 3)]
        with pytest.raises(ValueError, match="share one ambient space"):
            check_general_position(Ys)
        with pytest.raises(ValueError, match="at least one subscheme"):
            check_general_position([])


@st.composite
def families(draw):
    """1-3 subschemes in P^1..P^3, each of 1-3 generators of degree 1-3
    with 1-3 terms and small rational coefficients."""
    nvars = draw(st.integers(2, 4))
    coefficient = st.fractions(-3, 3, max_denominator=3).filter(bool)

    def form():
        degree = draw(st.integers(1, 3))
        terms = draw(st.dictionaries(st.sampled_from(monomial_exponents(degree, nvars)),
                                     coefficient, min_size=1, max_size=3))
        return HomogeneousForm(nvars, degree, terms)

    return [Subscheme("Y%d" % i, [form() for _ in range(draw(st.integers(1, 3)))])
            for i in range(draw(st.integers(1, 3)))]


def outcome(call, *args):
    """The value of call(*args), or the message of its CatalogError."""
    try:
        return call(*args)
    except CatalogError as exc:
        return "CatalogError: %s" % exc


class TestSupportOracle:
    """``common_support_dim`` asks whether each nonlinear generator lies in
    the ideal of the linear ones; ``fraction_oracle.common_support_dim``
    restricts it to their solution space by substitution.  Both, and what
    is built on them, give the same answers and the same refusals."""

    @settings(max_examples=300)
    @given(families())
    def test_support_dims_equal_the_substitution_catalog(self, Ys):
        got = [outcome(common_support_dim, Ys), outcome(check_general_position, Ys),
               [outcome(complete_intersection_degrees, Y) for Y in Ys]]
        with mock.patch.object(graded, "common_support_dim",
                               fraction_oracle.common_support_dim):
            want = [outcome(fraction_oracle.common_support_dim, Ys),
                    outcome(check_general_position, Ys),
                    [outcome(complete_intersection_degrees, Y) for Y in Ys]]
        assert got == want

    @pytest.mark.parametrize("gens,dim", [
        (["x0*x1", "x0"], 1),
        (["x0^2 - x1*x2", "x0 - x1", "x1 - x2"], 0),
        (["x0^2 + x2^2", "x0", "x1"], None),
        (["x1^3 - x0*x2^2", "x0", "x1"], 0),
    ], ids=["vanishes_on_line", "tangent", "misses_point", "contains_point"])
    def test_cases(self, gens, dim):
        Y = sub("Y", gens, 3)
        assert common_support_dim([Y]) == fraction_oracle.common_support_dim([Y]) == dim

    def test_substitute_linear_change(self):
        f = parse_form("x0*x1")
        g = fraction_oracle.substitute(f, [parse_form("x0 + x1"), parse_form("x0 - x1")])
        assert g == parse_form("x0^2 - x1^2")


class TestSubschemeBasics:
    def test_json_round_trip_preserves_ambient(self):
        Y = sub("L", ["x0"], 4)
        back = Subscheme.from_json(Y.to_json())
        assert back.nvars == 4 and back == Y

    def test_width_is_the_widest_generator(self):
        """Parsed without a width, a subscheme, or a family of them, lives
        in the fewest variables that hold every generator."""
        assert Subscheme.from_strings("Y", ["x0", "x2^2"]) == sub("Y", ["x0", "x2^2"], 3)
        family = _parse_family([("A", ["x1 - 3/2*x0"]), ("B", ["x0", "x3"])])
        assert family == [sub("A", ["x1 - 3/2*x0"], 4), sub("B", ["x0", "x3"], 4)]

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            Subscheme("z", (HomogeneousForm.zero(2, 1),))

    def test_rejects_an_empty_generator_list(self):
        with pytest.raises(ValueError, match="at least one generator"):
            Subscheme.from_strings("e", [])

    def test_rejects_degree_zero_generator(self):
        with pytest.raises(ValueError):
            sub("u", ["3"], 2)

    def test_vanishes_at(self):
        Y = sub("pt", ["x0", "x1"], 3)
        assert Y.vanishes_at([0, 0, 5])
        assert not Y.vanishes_at([1, 0, 0])


@pytest.mark.parametrize("call,error,message", [
    (lambda: Subscheme("Y", ("x0",)), TypeError,
     "generators must be HomogeneousForm instances"),
    (lambda: Subscheme("Y", (parse_form("x0"), parse_form("x1"))), ValueError,
     "generators must share one ambient space"),
    (lambda: ideal_power_gens(sub("L", ["x0"], 3), -1, 2), ValueError,
     "power must be nonnegative"),
    (lambda: span_piece([parse_form("x0^2", nvars=3)], 3, 1), FormError,
     "family does not match the requested graded piece"),
], ids=["generator_not_a_form", "generators_in_two_spaces", "negative_power",
        "span_piece_wrong_degree"])
def test_rejections(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
