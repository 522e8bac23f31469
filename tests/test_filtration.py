"""Jump profiles, mu values, adapted bases, and the concavity bound."""

import json
from fractions import Fraction

import pytest

from diophkit.filtration import (
    AdaptedBasis,
    FiltrationProfile,
    InconsistentProfilesError,
    ProfileError,
    F_value,
    adapted_basis,
    build_profile,
    common_adapted_basis,
    concavity_bound,
    is_adapted,
    mu_value,
    scale_check,
)
from diophkit.graded import Subscheme
from diophkit.polynomials import FormError, parse_form
from generic_oracle import generic_mu, generic_profile


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


POINT_P1 = sub("pt", ["x0"], 2)
BOTH_P1 = [sub("a", ["x0"], 2), sub("b", ["x1"], 2)]
LINE_P2 = sub("L", ["x1"], 3)


class TestBuildProfile:
    def test_single_point_p1(self):
        profile = build_profile([POINT_P1], (1,), 2)
        assert profile.jumps == ((Fraction(0), 3), (Fraction(1), 2),
                                 (Fraction(2), 1))
        assert F_value(profile) == 1

    def test_both_points_p1(self):
        profile = build_profile(BOTH_P1, (1, 1), 2)
        assert profile.jumps == ((Fraction(2), 3),)
        assert F_value(profile) == 2

    def test_fractional_weights(self):
        profile = build_profile([POINT_P1], (Fraction(1, 2),), 3)
        assert profile.jumps == ((Fraction(0), 4), (Fraction(1, 2), 3),
                                 (Fraction(1), 2), (Fraction(3, 2), 1))
        assert F_value(profile) == Fraction(3, 4)

    def test_general_route_matches_fast_route(self):
        tilted = [sub("pt", ["x0 + x1"], 2)]
        fast = build_profile([POINT_P1], (Fraction(1, 2),), 3)
        slow = generic_profile(tilted, (Fraction(1, 2),), 3)
        assert slow.jumps == fast.jumps
        assert build_profile(tilted, (Fraction(1, 2),), 3).jumps == fast.jumps

    def test_dim_at_step_convention(self):
        profile = build_profile([POINT_P1], (1,), 2)
        assert profile.dim_at(0) == 3
        assert profile.dim_at(Fraction(1, 2)) == 2
        assert profile.dim_at(1) == 2
        assert profile.dim_at(Fraction(3, 2)) == 1
        assert profile.dim_at(2) == 1
        assert profile.dim_at(3) == 0

    def test_json_round_trip(self):
        data = build_profile([POINT_P1], (Fraction(1, 2),), 3).to_json()
        assert json.loads(json.dumps(data)) == data

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            build_profile(BOTH_P1, (1,), 2)

    def test_basis_entries_are_kept_not_rewrapped(self):
        half = Fraction(1, 2)
        row = (Fraction(1), half)
        level = [row, [Fraction(0), 1]]
        profile = FiltrationProfile(2, 1, 2, ((Fraction(1), 2),), (level,))
        kept, converted = profile.bases[0]
        assert kept is row and kept[1] is half
        assert converted[0] is level[1][0]
        assert type(converted[1]) is Fraction and converted[1] == 1

    def test_profile_validation(self):
        with pytest.raises(ProfileError):
            FiltrationProfile(2, 2, 3, ((Fraction(0), 3), (Fraction(1), 3)))
        with pytest.raises(ProfileError):
            FiltrationProfile(2, 2, 3, ((Fraction(0), 2),))


class TestMuValue:
    def test_monomial(self):
        assert mu_value(parse_form("x0^2*x1"), [POINT_P1], (1,)) == 2

    def test_sum_takes_min(self):
        s = parse_form("x0^2*x1 + x0*x1^2")
        assert mu_value(s, [POINT_P1], (1,)) == 1

    def test_general_path_binary_search(self):
        s = parse_form("x0^2 + 2*x0*x1 + x1^2")  # (x0+x1)^2
        Y = sub("pt", ["x0 + x1"], 2)
        for form in (s, parse_form("x0^2", nvars=2)):
            assert mu_value(form, [Y], (1,)) == generic_mu(form, [Y], (1,))
        assert generic_mu(s, [Y], (1,)) == 2
        assert generic_mu(parse_form("x0^2", nvars=2), [Y], (1,)) == 0

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            mu_value(parse_form("x0 - x0"), [POINT_P1], (1,))

    def test_mu_against_dim_at(self):
        """mu(s) is the deepest jump whose subspace still holds s."""
        profile = build_profile([POINT_P1], (1,), 3, with_bases=True)
        for s_text, want in [("x1^3", 0), ("x0*x1^2", 1), ("x0^3", 3)]:
            s = parse_form(s_text, nvars=2)
            mu = mu_value(s, [POINT_P1], (1,))
            assert mu == want
            assert profile.dim_at(mu) > profile.dim_at(mu + Fraction(1, 2)) \
                or mu == profile.jumps[-1][0]


class TestFValue:
    def test_scaling_identity(self):
        left, right = scale_check([POINT_P1], (Fraction(1, 2),), 3, 4)
        assert left == right

    def test_scaling_several_weights(self):
        left, right = scale_check(BOTH_P1, (1, Fraction(1, 2)),
                                  Fraction(5, 2), 3)
        assert left == right

    def test_f_equals_average_mu_over_adapted_basis(self):
        profile = build_profile([POINT_P1], (1,), 4, with_bases=True)
        basis = adapted_basis(profile)
        avg = sum(basis.mu_values, Fraction(0)) / len(basis.mu_values)
        assert F_value(profile) == avg


class TestProfileChecks:
    @pytest.mark.parametrize("jumps,bases,message", [
        ((), None, "at least one jump"),
        (((-1, 2),), None, "nonnegative"),
        (((0, 2), (0, 1)), None, "strictly increase"),
        (((1, 2), (Fraction(1, 2), 1)), None, "strictly increase"),
        (((0, 2), (1, 1)), [[(1, 0), (0, 1)]], "one basis per jump"),
        (((0, 2), (1, 1)), [[(1, 0), (0, 1)], [(1, 0), (0, 1)]], "disagree"),
    ])
    def test_rejects(self, jumps, bases, message):
        with pytest.raises(ProfileError, match=message):
            FiltrationProfile(2, 1, 2, jumps, bases)


class TestAdaptedBasis:
    @pytest.mark.parametrize("mus", [(), (1,), (2, 1, 0)])
    def test_rejects_wrong_mu_count(self, mus):
        elements = (parse_form("x0", nvars=2), parse_form("x1", nvars=2))
        with pytest.raises(ProfileError, match="one mu value per element"):
            AdaptedBasis(elements, mus)

    def test_greedy_elements_and_mu(self):
        profile = build_profile([POINT_P1], (1,), 2, with_bases=True)
        basis = adapted_basis(profile)
        texts = [f.to_string() for f in basis.elements]
        assert texts == ["x0^2", "x0*x1", "x1^2"]
        assert basis.mu_values == (Fraction(2), Fraction(1), Fraction(0))
        assert is_adapted(basis, profile)

    def test_requires_bases(self):
        profile = build_profile([POINT_P1], (1,), 2)
        with pytest.raises(ProfileError):
            adapted_basis(profile)

    def test_is_adapted_rejects_bad_counts_and_dependence(self):
        profile = build_profile([POINT_P1], (1,), 2, with_bases=True)
        good = adapted_basis(profile)
        wrong_counts = AdaptedBasis(good.elements, (2, 2, 0))
        assert not is_adapted(wrong_counts, profile)
        dependent = AdaptedBasis(
            (good.elements[0], good.elements[0], good.elements[2]),
            good.mu_values)
        assert not is_adapted(dependent, profile)
        short = AdaptedBasis(good.elements[:2], good.mu_values[:2])
        assert not is_adapted(short, profile)

    def test_non_adapted_basis_average_below_f(self):
        """Any basis gives average mu <= F, strictly when the basis fails
        to meet the deepest subspace."""
        profile = build_profile([POINT_P1], (1,), 2, with_bases=True)
        mixed = [parse_form("x0^2 + x1^2"), parse_form("x0*x1"),
                 parse_form("x1^2", nvars=2)]
        mus = [mu_value(s, [POINT_P1], (1,)) for s in mixed]
        assert mus == [0, 1, 0]
        avg = sum(mus, Fraction(0)) / 3
        assert avg < F_value(profile)


class TestCommonAdaptedBasis:
    def test_two_filtrations_shared_basis(self):
        first = build_profile([POINT_P1], (1,), 2, with_bases=True)
        second = build_profile([sub("pt", ["x0 + x1"], 2)], (1,), 2,
                               with_bases=True)
        va, vb = common_adapted_basis(first, second)
        assert va.elements == vb.elements
        assert is_adapted(va, first)
        assert is_adapted(vb, second)
        assert sum(va.mu_values, Fraction(0)) / 3 == F_value(first)
        assert sum(vb.mu_values, Fraction(0)) / 3 == F_value(second)

    def test_mismatched_pieces_rejected(self):
        first = build_profile([POINT_P1], (1,), 2, with_bases=True)
        second = build_profile([POINT_P1], (1,), 3, with_bases=True)
        with pytest.raises(InconsistentProfilesError):
            common_adapted_basis(first, second)

    def test_requires_bases(self):
        first = build_profile([POINT_P1], (1,), 2, with_bases=True)
        second = build_profile([POINT_P1], (1,), 2)
        with pytest.raises(ProfileError):
            common_adapted_basis(first, second)


class TestConcavityBound:
    def test_line_in_plane(self):
        rep = concavity_bound([LINE_P2], (Fraction(1, 3),), (3,), 5)
        assert rep.lhs == 5 and rep.rhs == 5
        assert rep.hypotheses_met and rep.holds

    def test_two_meeting_lines(self):
        Ys = [sub("a", ["x1"], 3), sub("b", ["x2"], 3)]
        rep = concavity_bound(Ys, (Fraction(1, 3), Fraction(1, 3)),
                              (Fraction(3, 2), Fraction(3, 2)), 4)
        assert rep.lhs == 4 and rep.rhs == 4
        assert rep.hypotheses_met and rep.holds

    def test_empty_common_support_reports_unmet(self):
        rep = concavity_bound(BOTH_P1, (Fraction(1, 2), Fraction(1, 2)),
                              (1, 1), 3)
        assert not rep.hypotheses_met
        assert rep.lhs == 3 and rep.rhs == 3

    @pytest.mark.parametrize("betas,message", [
        ((), "one beta per subscheme"),
        ((Fraction(1, 6), Fraction(1, 6)), "one beta per subscheme"),
        ((0,), "positive"),
        ((Fraction(-1, 3),), "positive"),
    ])
    def test_rejects_betas(self, betas, message):
        with pytest.raises(ValueError, match=message):
            concavity_bound([LINE_P2], betas, (3,), 5)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            concavity_bound([LINE_P2], (Fraction(1, 3),), (1,), 5)

    def test_empty_subscheme_raises(self):
        # the coordinate lines of P^2 meet nowhere: the ideal sheaf is O_X,
        # so no term vanishes and the bound's sum is not finite
        empty = sub("E", ["x0", "x1", "x2"], 3)
        with pytest.raises(ValueError, match="'E' is empty"):
            concavity_bound([empty, LINE_P2], (Fraction(1, 3), 1),
                            (Fraction(3, 2), Fraction(1, 2)), 3)

    def test_degenerate_weight_gives_equality(self):
        # t = e_1 / beta_1 collapses the bound to the scaling identity
        beta = Fraction(2, 3)
        rep = concavity_bound([sub("pt", ["x0", "x1"], 3)], (beta,),
                              (1 / beta,), 4)
        assert rep.hypotheses_met
        assert rep.lhs == rep.rhs


LINE = sub("L", ["x0"], 3)


@pytest.mark.parametrize("call,error,message", [
    (lambda: build_profile([LINE], (1,), 2).dim_at(-1), ValueError,
     "threshold must be nonnegative"),
    (lambda: mu_value(parse_form("x0", nvars=2), [LINE], (1,)), FormError,
     "form and subschemes live in different ambient spaces"),
    (lambda: scale_check([LINE], (1,), 0, 2), ValueError,
     "scale factor must be positive"),
    (lambda: scale_check([LINE], (1,), Fraction(-1, 2), 2), ValueError,
     "scale factor must be positive"),
], ids=["dim_at_negative", "mu_form_in_other_space", "scale_zero", "scale_negative"])
def test_rejections(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
