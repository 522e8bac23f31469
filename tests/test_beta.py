"""Truncated expansion coefficients on P^n and the blow-up cross-check."""

import csv
import io
import math
from fractions import Fraction

import pytest

from diophkit.beta import (
    beta_blowup_crosscheck,
    beta_convergence,
    beta_truncated,
    ideal_power_terms,
)
from diophkit.cli import main
from diophkit.graded import (
    Subscheme,
    dim_full,
    ideal_power_gens,
    span_dim,
    terms_until_zero,
)


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


def divisor_oracle(e, n, N):
    """For a degree-e hypersurface in P^n: the m-th term is the count of
    monomials divisible by f^m, C(N - m*e + n, n)."""
    total = sum(math.comb(N - m * e + n, n) for m in range(1, N // e + 1))
    return Fraction(total, N * math.comb(N + n, n))


class TestHyperplane:
    def test_one_over_n_plus_one(self):
        for n in (1, 2, 3):
            Y = sub("H", ["x0"], n + 1)
            for N in range(1, 16):
                assert beta_truncated(Y, 1, N).value == Fraction(1, n + 1)

    def test_report_fields(self):
        Y = sub("H", ["x0"], 3)
        rep = beta_truncated(Y, 1, 3)
        assert rep.N == 3
        assert rep.terms == (6, 3, 1)
        assert rep.numerator == 10 and rep.denominator == 30
        assert rep.value == Fraction(rep.numerator, rep.denominator)


class TestPoint:
    def test_point_in_plane_two_thirds(self):
        Y = sub("pt", ["x0", "x1"], 3)
        for N in range(1, 9):
            assert beta_truncated(Y, 1, N).value == Fraction(2, 3)

    def test_point_in_line_half(self):
        Y = sub("pt", ["x0"], 2)
        assert beta_truncated(Y, 1, 1).value == Fraction(1, 2)

    def test_three_level_terms(self):
        Y = sub("pt", ["x0", "x1"], 3)
        assert beta_truncated(Y, 1, 3).terms == (9, 7, 4)


class TestDivisorOracle:
    def test_degrees_one_and_two(self):
        quadrics = {1: "x0^2 - x1^2", 2: "x0*x2 - x1^2",
                    3: "x0*x3 - x1*x2"}
        for n in (1, 2, 3):
            nvars = n + 1
            line = sub("D", ["x0 + x1"], nvars)
            quad = sub("Q", [quadrics[n]], nvars)
            for N in range(1, 13):
                assert beta_truncated(line, 1, N).value == \
                    divisor_oracle(1, n, N)
                assert beta_truncated(quad, 1, N).value == \
                    divisor_oracle(2, n, N)

    def test_twisted_polarization(self):
        # degree-d polarization rescales the ambient degree to d*N
        Y = sub("H", ["x2"], 3)
        rep = beta_truncated(Y, 2, 3)
        terms = tuple(math.comb(6 - m + 2, 2) for m in range(1, 7))
        assert rep.terms == terms
        assert rep.denominator == 3 * dim_full(6, 2)


class TestValidation:
    def test_zero_level_rejected(self):
        Y = sub("H", ["x0"], 2)
        with pytest.raises(ValueError):
            beta_truncated(Y, 1, 0)
        with pytest.raises(ValueError):
            beta_truncated(Y, 0, 3)

    def test_value_in_range(self):
        # degree 1 has no conic multiples, so the first value is zero
        Y = sub("conic", ["x0*x2 - x1^2"], 3)
        assert beta_truncated(Y, 1, 1).value == 0
        for N in range(2, 7):
            rep = beta_truncated(Y, 1, N)
            assert 0 < rep.value
            assert rep.numerator <= len(rep.terms) * dim_full(N, 2)


class TestIdealPowerTerms:
    def test_terms_are_nonincreasing(self):
        Y = sub("pt", ["x0", "x1"], 3)
        terms = ideal_power_terms(Y, 4)
        assert list(terms) == sorted(terms, reverse=True)
        assert terms[0] == dim_full(4, 2) - 1

    @pytest.mark.parametrize("gens,nvars,D", [
        (["x0", "x1"], 3, 9),                      # coordinate point
        (["x0 + x3", "x1 - 2*x3", "x2 + x3"], 4, 5),  # tilted point of P^3
        (["x0^2 + x1^2 - x2^2"], 3, 8),            # conic
        (["x0^2 + x1*x2", "x1 + x2"], 3, 5),       # mixed degrees
        (["x0*x1", "x1 - x2"], 3, 6),              # nonreduced, not normalizable
    ])
    def test_profile_terms_match_power_ranks(self, gens, nvars, D):
        """One profile with weight 1 gives every term; each must equal the
        rank of the power's own generating family."""
        Y = sub("Y", gens, nvars)
        assert ideal_power_terms(Y, D) == terms_until_zero(
            lambda m: span_dim(ideal_power_gens(Y, m, D)))

    @pytest.mark.parametrize("gens,nvars", [
        (["x0", "x1", "x2"], 3),                   # coordinate lines of P^2
        (["x0", "x1"], 2),                         # two points of P^1
        (["x0 + x1", "x1 + x2", "x0 + x2"], 3),    # independent tilted lines
        (["x0", "x1", "x2^2 + x0*x1"], 3),         # a point off a conic
    ])
    def test_empty_subscheme_has_no_finite_beta(self, gens, nvars):
        with pytest.raises(ValueError, match="'E' is empty"):
            ideal_power_terms(sub("E", gens, nvars), 3)
        with pytest.raises(ValueError, match="'E' is empty"):
            beta_convergence(sub("E", gens, nvars), 1, 2)

    def test_support_outside_the_catalog_keeps_its_terms(self):
        # two effective conics: common_support_dim cannot decide, so the
        # terms are counted as before
        Y = sub("Q", ["x0^2 + x1^2", "x1*x2 + x0^2"], 3)
        assert ideal_power_terms(Y, 4) == terms_until_zero(
            lambda m: span_dim(ideal_power_gens(Y, m, 4)))


class TestBlowupCrosscheck:
    def test_coordinate_point(self):
        rep = beta_blowup_crosscheck(sub("pt", ["x0", "x1"], 3), 1, 3)
        assert rep.terms == rep.blowup_terms == (9, 7, 4)
        assert rep.match and rep.value == Fraction(2, 3)

    def test_tilted_point(self):
        Y = sub("pt", ["x0 + x1", "x2"], 3)
        for N in (1, 2, 4):
            rep = beta_blowup_crosscheck(Y, 1, N)
            assert rep.match
            assert rep.value == Fraction(2, 3)

    def test_degree_two_polarization(self):
        rep = beta_blowup_crosscheck(sub("pt", ["x0", "x1"], 3), 2, 2)
        assert rep.match
        assert rep.terms[0] == dim_full(4, 2) - 1

    def test_termwise_equality_full_range(self):
        Y = sub("pt", ["x0", "x1"], 3)
        for N in range(1, 9):
            rep = beta_blowup_crosscheck(Y, 1, N)
            assert rep.terms == rep.blowup_terms

    def test_rejects_non_point(self):
        with pytest.raises(ValueError):
            beta_blowup_crosscheck(sub("L", ["x0"], 3), 1, 2)
        with pytest.raises(ValueError):
            beta_blowup_crosscheck(sub("pt", ["x0"], 2), 1, 2)


class TestConvergence:
    def test_constant_families(self):
        rows = beta_convergence(sub("H", ["x0"], 4), 1, 10)
        assert [r.N for r in rows] == list(range(1, 11))
        assert all(r.value == Fraction(1, 4) for r in rows)
        assert all(r.min_so_far == Fraction(1, 4) for r in rows)

    def test_min_so_far_monotone(self):
        rows = beta_convergence(sub("conic", ["x0*x2 - x1^2"], 3), 1, 8)
        mins = [r.min_so_far for r in rows]
        assert all(a >= b for a, b in zip(mins, mins[1:]))
        assert all(r.min_so_far <= r.value for r in rows)
        assert rows[0].value == 0
        assert rows[1].value == Fraction(1, 12)

    def test_csv_shape(self, capsys):
        rows = beta_convergence(sub("pt", ["x0", "x1"], 3), 1, 3)
        assert main(["beta", "--space", "P2", "--ideal", "x0,x1", "--n-max", "3",
                     "--output", "csv"]) == 0
        text = capsys.readouterr().out
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["N", "numerator", "denominator", "value",
                             "min_so_far"]
        assert parsed[1] == ["1", "2", "3", "2/3", "2/3"]
        rebuilt = [
            (int(r[0]), int(r[1]), int(r[2]), Fraction(r[3]), Fraction(r[4]))
            for r in parsed[1:]
        ]
        assert rebuilt == [(r.N, r.numerator, r.denominator, r.value,
                            r.min_so_far) for r in rows]
