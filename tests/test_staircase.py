"""Threshold sets: minimal-generator antichains against brute-force box
oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diophkit.staircase import (EmptyThresholdSetError, threshold_set,
                                validate_weights)


def box_members(t, x, side):
    """Oracle: all lattice points of [0, side]^r with t.b >= x."""
    r = len(t)
    return {
        b
        for b in itertools.product(range(side + 1), repeat=r)
        if sum(Fraction(w) * v for w, v in zip(t, b)) >= x
    }


def dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def up_closure_in_box(gens, side):
    """All lattice points of [0, side]^r above some generator."""
    return {b for b in itertools.product(range(side + 1), repeat=len(gens[0]))
            if any(dominates(b, g) for g in gens)}


class TestThresholdSet:
    def test_single_weight_ceiling(self):
        assert threshold_set((1,), Fraction(5, 2)) == ((3,),)

    def test_two_equal_weights(self):
        sat = threshold_set((1, 1), 2)
        assert set(sat) == {(2, 0), (1, 1), (0, 2)}

    def test_unequal_weights_dominated_point_dropped(self):
        sat = threshold_set((1, 2), 2)
        assert set(sat) == {(2, 0), (0, 1)}

    def test_unit_vectors(self):
        sat = threshold_set((1, 1, 1), 1)
        assert set(sat) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_zero_threshold_whole_lattice(self):
        assert threshold_set((1, 2), 0) == ((0, 0),)

    def test_zero_weight_coordinate_pinned(self):
        sat = threshold_set((1, 0), 3)
        assert sat == ((3, 0),)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_set((1,), -1)

    def test_all_zero_weights_with_positive_threshold(self):
        with pytest.raises(EmptyThresholdSetError):
            threshold_set((0, 0), 1)

    @pytest.mark.parametrize("t,x,error,message", [
        ((), 0, ValueError, "length >= 1"),
        ((), 1, ValueError, "length >= 1"),
        ((1, -1), 0, ValueError, "nonnegative"),
        ((Fraction(-1, 2),), 1, ValueError, "nonnegative"),
        ((0, 0), 1, EmptyThresholdSetError, "empty set"),
    ])
    def test_rejects_weights(self, t, x, error, message):
        with pytest.raises(error, match=message):
            threshold_set(t, x)

    def test_all_zero_weights_at_zero_threshold(self):
        assert threshold_set((0, 0), 0) == ((0, 0),)

    def test_fractional_weights(self):
        sat = threshold_set((1, Fraction(1, 2)), 1)
        assert set(sat) == {(1, 0), (0, 2)}

    @given(
        t=st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1),
                                    Fraction(3, 2), Fraction(2), Fraction(3)]),
                   min_size=1, max_size=3),
        x=st.fractions(min_value=0, max_value=4, max_denominator=2),
    )
    def test_matches_box_oracle(self, t, x):
        if all(w == 0 for w in t):
            return
        sat = threshold_set(t, x)
        side = 0
        for w in t:
            if w > 0:
                need = -((-x.numerator * w.denominator)
                         // (x.denominator * w.numerator)) if x > 0 else 0
                side = max(side, need)
        side += 1
        assert up_closure_in_box(sat, side) == box_members(t, x, side)

    @given(
        t=st.lists(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                    Fraction(2), Fraction(3)]),
                   min_size=1, max_size=3),
        x=st.fractions(min_value=0, max_value=4, max_denominator=2),
    )
    def test_generators_are_members_and_saturated(self, t, x):
        """Each generator clears the threshold and no smaller point does:
        lowering any entry drops below x, so the generators form the
        antichain of minimal members, listed in sorted order."""
        sat = threshold_set(t, x)
        assert sat == tuple(sorted(sat))
        for g in sat:
            assert sum(w * v for w, v in zip(t, g)) >= x
            for i in range(len(g)):
                if g[i]:
                    lowered = tuple(v - (i == j) for j, v in enumerate(g))
                    assert sum(w * v for w, v in zip(t, lowered)) < x


class TestValidateWeights:
    @pytest.mark.parametrize("t,message", [
        ((), "length >= 1"),
        ((1, -1), "nonnegative"),
        ((Fraction(-1, 2),), "nonnegative"),
        ((0, 0), "positive entry"),
        ((Fraction(0),), "positive entry"),
    ])
    def test_rejects(self, t, message):
        with pytest.raises(ValueError, match=message):
            validate_weights(t)

    def test_keeps_zero_entries_beside_a_positive_one(self):
        assert validate_weights((0, 1, "1/2")) == (0, 1, Fraction(1, 2))


# the box is sized before any cell is enumerated, so these are cheap
@pytest.mark.parametrize("t,x", [
    ((Fraction(1, 1000), Fraction(1, 1000)), 10),
    ((1, Fraction(1, 2_000_000)), 1),
], ids=["two_small_weights", "one_tiny_weight"])
def test_rejects_box_over_cap(t, x):
    with pytest.raises(ValueError) as exc:
        threshold_set(t, x)
    assert str(exc.value) == "threshold box too large for direct enumeration"
