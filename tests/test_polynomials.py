"""Sparse homogeneous forms: parsing, arithmetic, evaluation."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diophkit.polynomials import (
    FormError,
    HomogeneousForm,
    ParseError,
    monomial_exponents,
    parse_form,
)


class TestMonomialExponents:
    def test_counts_match_binomials(self):
        import math
        for degree in range(7):
            for nvars in range(1, 5):
                exps = monomial_exponents(degree, nvars)
                assert len(exps) == math.comb(degree + nvars - 1, nvars - 1)
                assert all(sum(e) == degree for e in exps)
                assert sorted(set(exps)) == list(exps)

    def test_degree_zero(self):
        assert monomial_exponents(0, 3) == [(0, 0, 0)]


class TestParsing:
    def test_simple_monomial(self):
        f = parse_form("x0^2*x1")
        assert f.nvars == 2 and f.degree == 3
        assert f.terms == {(2, 1): Fraction(1)}

    def test_coefficients_and_signs(self):
        f = parse_form("3/2*x1^2*x2 - x2^3 + x0*x1*x2", nvars=3)
        assert f.degree == 3
        assert f.coefficient((0, 2, 1)) == Fraction(3, 2)
        assert f.coefficient((0, 0, 3)) == -1
        assert f.coefficient((1, 1, 1)) == 1

    def test_juxtaposition(self):
        assert parse_form("2x0x1") == parse_form("2*x0*x1")
        assert parse_form("x0x0") == parse_form("x0^2")

    def test_double_star_power(self):
        assert parse_form("x0**3") == parse_form("x0^3")

    def test_like_terms_merge(self):
        f = parse_form("x0*x1 + x1*x0")
        assert f.terms == {(1, 1): Fraction(2)}

    def test_cancellation_to_zero(self):
        f = parse_form("x0 - x0")
        assert f.is_zero and f.degree == 1

    def test_nvars_widening(self):
        f = parse_form("x0", nvars=4)
        assert f.nvars == 4 and f.terms == {(1, 0, 0, 0): Fraction(1)}

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ParseError):
            parse_form("x0 + x1^2")

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_form("x3", nvars=2)

    def test_rejects_garbage(self):
        for bad in ("", "x0 +", "* x0", "x0 x1 +", "y0", "x0^^2", "x0^(1/2)"):
            with pytest.raises(ParseError):
                parse_form(bad)

    def test_constant_term(self):
        f = parse_form("5")
        assert f.degree == 0 and f.evaluate([Fraction(7)]) == 5

    def test_round_trip_through_to_string(self):
        samples = ["x0^2*x1 - 3*x1^3", "x0*x2 - x1^2", "1/2*x0^4 + x3^4"]
        for text in samples:
            f = parse_form(text)
            assert parse_form(f.to_string(), nvars=f.nvars) == f


class TestArithmetic:
    def test_add_same_degree(self):
        f = parse_form("x0^2", nvars=2) + parse_form("x1^2", nvars=2)
        assert f == parse_form("x0^2 + x1^2")

    def test_add_degree_mismatch(self):
        with pytest.raises(FormError):
            parse_form("x0", nvars=2) + parse_form("x1^2", nvars=2)

    def test_mul_degrees_add(self):
        f = parse_form("x0 + x1") * parse_form("x0 - x1")
        assert f == parse_form("x0^2 - x1^2")

    def test_pow(self):
        assert parse_form("x0 + x1") ** 2 == parse_form("x0^2 + 2*x0*x1 + x1^2")
        assert (parse_form("x0") ** 0) == HomogeneousForm.one(1)

    def test_scale(self):
        f = parse_form("x0^2").scale(Fraction(2, 3))
        assert f.coefficient((2,)) == Fraction(2, 3)

    def test_evaluate(self):
        f = parse_form("x0*x2 - x1^2")
        assert f.evaluate([1, 2, 4]) == 0
        assert f.evaluate([1, 1, 3]) == 2

    def test_substitute_linear_change(self):
        f = parse_form("x0*x1")
        g = f.substitute([parse_form("x0 + x1"), parse_form("x0 - x1")])
        assert g == parse_form("x0^2 - x1^2")

    def test_coeff_vector(self):
        columns = {e: i for i, e in enumerate(monomial_exponents(2, 2))}
        f = parse_form("x0^2 - 2*x1^2")
        vec = f.coeff_vector(columns)
        assert vec[columns[(2, 0)]] == 1
        assert vec[columns[(0, 2)]] == -2
        assert vec[columns[(1, 1)]] == 0


@st.composite
def forms(draw, nvars=3, degree=2):
    exps = monomial_exponents(degree, nvars)
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        min_size=len(exps), max_size=len(exps)))
    return HomogeneousForm(nvars, degree, dict(zip(exps, coeffs)))


class TestAlgebraProperties:
    @given(f=forms(), g=forms(), h=forms())
    def test_addition_associative_commutative(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f

    @given(f=forms(), g=forms())
    def test_multiplication_commutes_and_evaluates(self, f, g):
        prod = f * g
        assert prod == g * f
        point = [Fraction(1), Fraction(-2), Fraction(3)]
        assert prod.evaluate(point) == f.evaluate(point) * g.evaluate(point)

    @given(f=forms())
    def test_homogeneity_under_scaling(self, f):
        lam = Fraction(3, 2)
        point = [Fraction(2), Fraction(1), Fraction(-1)]
        scaled = [lam * c for c in point]
        assert f.evaluate(scaled) == lam ** f.degree * f.evaluate(point)

    @given(f=forms())
    def test_string_round_trip(self, f):
        if f.is_zero:
            return
        assert parse_form(f.to_string(), nvars=f.nvars) == f


class TestValidation:
    def test_rejects_mixed_degree_terms(self):
        with pytest.raises(FormError):
            HomogeneousForm(2, 2, {(2, 0): 1, (1, 0): 1})

    def test_rejects_wrong_exponent_length(self):
        with pytest.raises(FormError):
            HomogeneousForm(2, 2, {(2, 0, 0): 1})

    def test_monomial_constructor(self):
        m = HomogeneousForm.monomial((1, 2), coeff=Fraction(5, 3))
        assert m.degree == 3 and m.is_monomial


def _count_calls():
    """One call per place that checks a count, taking the count as v."""
    from diophkit import beta, experiments, filtration, graded, heights, surface

    Y = graded.Subscheme.from_strings("L", ["x0"], nvars=3)
    model = surface.three_point_blowup()
    A, D = surface.parse_class("4H - E1", 3), surface.parse_class("H - E1", 3)
    return {
        "beta-degree": lambda v: beta.beta_truncated(Y, v, 2),
        "beta-level": lambda v: beta.beta_truncated(Y, 1, v),
        "beta-n-max": lambda v: beta.beta_convergence(Y, 1, v),
        "profile-degree": lambda v: filtration.build_profile([Y], (1,), v),
        "exponents-degree": lambda v: monomial_exponents(v, 2),
        "exponents-nvars": lambda v: monomial_exponents(2, v),
        "form-nvars": lambda v: HomogeneousForm(v, 1, {}),
        "form-degree": lambda v: HomogeneousForm(2, v, {}),
        "form-power": lambda v: parse_form("x0 + x1") ** v,
        "surface-k": lambda v: surface.SurfaceModel(v),
        "h0-level": lambda v: surface.h0_terms(model, A, D, v),
        "lines-weight": lambda v: surface.weighted_lines_class(v),
        "config-floor": lambda v: experiments.InequalityConfig(
            [Y], [1], heights.PlaceSet([None]), 1, min_height_norm=v),
        "sample-dimension": lambda v: experiments.sample_points(v, 2),
        "sample-bound": lambda v: experiments.sample_points(2, v),
        "table-weight": lambda v: experiments.four_lines_table(v),
    }


@pytest.mark.parametrize("name", sorted(_count_calls()))
def test_counts_reject_booleans(name):
    """bool is a subclass of int, but True is not a count: it is refused
    like any other non-integer, with the same error."""
    call = _count_calls()[name]
    with pytest.raises(ValueError) as wanted:
        call(1.5)
    with pytest.raises(wanted.type, match="^%s$" % re.escape(str(wanted.value))):
        call(True)
