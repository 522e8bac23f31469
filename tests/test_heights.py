"""Local norms, heights, and the functional identities between them.

The local value of a subscheme at a point is kept as an exact rational
norm Q_v, so every identity below is checked with == rather than with a
floating tolerance; logs only show up where the interface hands back
floats.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from diophkit.graded import Subscheme
from diophkit.heights import (
    PLACE_INF,
    Place,
    PlaceError,
    PlaceSet,
    ProjectivePoint,
    SupportError,
    global_weil_norm,
    height,
    height_norm,
    norm,
    ord_p,
    parse_place,
    product_formula_factors,
    product_formula_holds,
    proximity,
    proximity_norms,
    relevant_places,
    weil,
    weil_floor_norm,
    weil_norm,
)
from diophkit.heights import _is_prime, _primes_dividing
from diophkit.polynomials import HomogeneousForm, monomial_exponents


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


def random_form(rng, nvars, degree):
    while True:
        f = HomogeneousForm.zero(nvars, degree)
        for e in monomial_exponents(degree, nvars):
            f = f + HomogeneousForm.monomial(e, rng.randint(-5, 5))
        if not f.is_zero:
            return f


def random_point(rng, nvars, box=30):
    coords = [rng.randint(-box, box) for _ in range(nvars)]
    if all(c == 0 for c in coords):
        coords[0] = 1
    return ProjectivePoint(coords)


class TestPlaces:
    def test_parse(self):
        assert parse_place("inf") == PLACE_INF
        assert parse_place("oo") == PLACE_INF
        assert parse_place(" 7 ") == Place(7)

    def test_rejects_non_primes(self):
        for bad in ("4", "1", "-3", "x"):
            with pytest.raises(PlaceError):
                parse_place(bad)
        with pytest.raises(PlaceError):
            Place(6)

    def test_set_requires_infinite_place(self):
        with pytest.raises(PlaceError):
            PlaceSet([Place(2), Place(3)])
        S = PlaceSet.from_string("inf,2,3,5")
        assert len(S) == 4
        assert list(S)[0] == PLACE_INF
        assert Place(3) in S and Place(7) not in S

    def test_sorted_infinite_first(self):
        S = PlaceSet([Place(5), PLACE_INF, Place(2)])
        assert [str(p) for p in S] == ["inf", "2", "5"]


def sieve_primes(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, limit + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, flag in enumerate(flags) if flag]


class TestPrimeFactors:
    # the one trial-division helper behind Place, relevant_places and
    # product_formula_factors, against a sieve
    LIMIT = 2000

    def test_primes_dividing_matches_sieve(self):
        primes = sieve_primes(self.LIMIT)
        for n in range(1, self.LIMIT + 1):
            assert list(_primes_dividing(n)) == [p for p in primes if n % p == 0]

    def test_is_prime_matches_sieve(self):
        primes = set(sieve_primes(self.LIMIT))
        for n in range(-3, self.LIMIT + 1):
            assert _is_prime(n) == (n in primes)

    def test_product_formula_places_match_sieve(self):
        primes = sieve_primes(self.LIMIT)
        rng = random.Random(11)
        for _ in range(200):
            q = Fraction(rng.randint(1, self.LIMIT), rng.randint(1, self.LIMIT))
            want = [PLACE_INF] + [Place(p) for p in primes
                                  if q.numerator % p == 0]
            want += [Place(p) for p in primes if q.denominator % p == 0]
            assert list(product_formula_factors(-q)) == want


class TestPoints:
    def test_canonical_coordinates(self):
        assert ProjectivePoint([4, 6]).coords == (2, 3)
        assert ProjectivePoint([Fraction(2, 3), -4, 2]).coords == (1, -6, 3)
        assert ProjectivePoint([-2, 4]).coords == (1, -2)
        assert ProjectivePoint([0, -5, 0]).coords == (0, 1, 0)

    def test_from_string(self):
        assert ProjectivePoint.from_string("2:3").coords == (2, 3)
        assert ProjectivePoint.from_string("1/2 : 1").coords == (1, 2)
        with pytest.raises(ValueError):
            ProjectivePoint.from_string("5")
        with pytest.raises(ValueError):
            ProjectivePoint([0, 0])


class TestNorms:
    def test_examples(self):
        assert norm(6, Place(2)) == Fraction(1, 2)
        assert norm(6, Place(3)) == Fraction(1, 3)
        assert norm(6, Place(5)) == 1
        assert norm(-3, PLACE_INF) == 3
        assert norm(Fraction(9, 8), Place(2)) == 8
        assert norm(0, Place(7)) == 0

    def test_ord(self):
        assert ord_p(48, 2) == 4
        assert ord_p(Fraction(5, 12), 2) == -2
        with pytest.raises(ValueError):
            ord_p(0, 3)

    # 1, -1 and True divide everything, so the loop would never end; 0
    # divides nothing; 4 is not a prime, so ord_4 is no valuation
    @pytest.mark.parametrize("p", [1, -1, 0, 4, True, 2.0, None])
    def test_ord_rejects_a_p_that_is_not_a_prime(self, p):
        with pytest.raises(ValueError, match="prime"):
            ord_p(12, p)

    def test_product_formula(self):
        f = product_formula_factors(Fraction(-12, 5))
        assert f[PLACE_INF] == Fraction(12, 5)
        assert f[Place(2)] == Fraction(1, 4)
        assert f[Place(3)] == Fraction(1, 3)
        assert f[Place(5)] == 5
        rng = random.Random(3)
        for _ in range(100):
            q = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            if rng.random() < 0.5:
                q = -q
            assert product_formula_holds(q)
        with pytest.raises(ValueError):
            product_formula_factors(0)


class TestHeight:
    def test_examples(self):
        assert height(ProjectivePoint([1, 1])) == 0
        assert math.isclose(height(ProjectivePoint([2, 3])), math.log(3))
        assert height_norm(ProjectivePoint([14, -21, 35])) == 5

    def test_scaling_invariant_sum_over_places(self):
        # the height must equal the full product of local sup-norms no
        # matter how the coordinates are scaled
        rng = random.Random(5)
        for _ in range(200):
            nvars = rng.choice((2, 3))
            P = random_point(rng, nvars)
            s = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            if rng.random() < 0.5:
                s = -s
            scaled = [s * c for c in P.coords]
            places = {PLACE_INF}
            for c in scaled:
                if c != 0:
                    places.update(product_formula_factors(c))
            total = Fraction(1)
            for v in places:
                total *= max(norm(c, v) for c in scaled)
            assert total == height_norm(P)


class TestWeil:
    def test_archimedean_example(self):
        Y = sub("H", ["x0"], 2)
        P = ProjectivePoint([1, 5])
        assert weil_norm(Y, P, PLACE_INF) == 5
        assert math.isclose(weil(Y, P, PLACE_INF), math.log(5))

    def test_finite_example(self):
        Y = sub("H", ["x0"], 2)
        P = ProjectivePoint([4, 1])
        assert weil_norm(Y, P, Place(2)) == 4
        assert math.isclose(weil(Y, P, Place(2)), math.log(4))

    def test_support_hit(self):
        Y = sub("H", ["x0"], 2)
        with pytest.raises(SupportError):
            weil_norm(Y, ProjectivePoint([0, 1]), PLACE_INF)

    def test_space_mismatch(self):
        Y = sub("H", ["x0"], 3)
        with pytest.raises(ValueError):
            weil_norm(Y, ProjectivePoint([1, 2]), PLACE_INF)

    def test_multi_generator_takes_min(self):
        Y = sub("pt", ["x0", "x1"], 3)
        P = ProjectivePoint([1, 10, 100])
        # max = 100; candidates 100/1 and 100/10
        assert weil_norm(Y, P, PLACE_INF) == 10
        assert weil_norm(Y, P, Place(5)) == 1

    def test_vanishing_generators_are_skipped(self):
        Y = sub("pt", ["x0", "x1"], 3)
        P = ProjectivePoint([0, 3, 1])
        assert weil_norm(Y, P, Place(3)) == 3


class TestProximity:
    def test_two_place_sum(self):
        Y = sub("H", ["x0"], 2)
        P = ProjectivePoint([4, 5])
        S = PlaceSet.from_string("inf,2")
        norms = proximity_norms(Y, P, S)
        assert norms == {PLACE_INF: Fraction(5, 4), Place(2): Fraction(4)}
        assert math.isclose(proximity(Y, P, S), math.log(5))

    def test_missing_place_contributes_nothing(self):
        Y = sub("H", ["x0"], 2)
        P = ProjectivePoint([4, 5])
        small = proximity(Y, P, PlaceSet.from_string("inf"))
        assert math.isclose(small, math.log(Fraction(5, 4)))


class TestGlobalDecomposition:
    def test_hypersurface_sum_equals_degree_times_height(self):
        rng = random.Random(11)
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

    def test_relevant_places_cover_everything(self):
        Y = sub("H", ["x0 + x1"], 2)
        P = ProjectivePoint([7, 5])
        places = relevant_places(Y, P)
        assert PLACE_INF in places
        assert Place(2) in places and Place(3) in places


def union_scheme(X, Y):
    return Subscheme("%s|%s" % (X.label, Y.label),
                     X.generators + Y.generators)


def product_scheme(X, Y):
    gens = tuple(g * h for g in X.generators for h in Y.generators)
    return Subscheme("%s*%s" % (X.label, Y.label), gens)


def power_scheme(X, m):
    gens = []
    for combo in itertools.combinations_with_replacement(X.generators, m):
        prod = HomogeneousForm.one(X.nvars)
        for g in combo:
            prod = prod * g
        gens.append(prod)
    return Subscheme("%s^%d" % (X.label, m), tuple(gens))


PLACES = (PLACE_INF, Place(2), Place(3), Place(5))


class TestFunctorialIdentities:
    """The standard local-value identities.  With the min-over-generators
    definition and these generator models, intersection, sum, and power
    hold with constant exactly zero; containment carries an explicit
    multiplier constant checked in its own class below."""

    def sample(self, rng, X, Y, nvars, count=40):
        pts = []
        while len(pts) < count:
            P = random_point(rng, nvars, box=25)
            try:
                for v in PLACES:
                    weil_norm(X, P, v)
                    weil_norm(Y, P, v)
            except SupportError:
                continue
            pts.append(P)
        return pts

    def test_intersection_is_min(self):
        rng = random.Random(19)
        X = sub("A", ["x0", "x1"], 3)
        Y = sub("B", ["x2"], 3)
        Z = union_scheme(X, Y)
        for P in self.sample(rng, X, Y, 3):
            for v in PLACES:
                assert weil_norm(Z, P, v) == min(weil_norm(X, P, v),
                                                 weil_norm(Y, P, v))

    def test_sum_is_product(self):
        rng = random.Random(23)
        X = sub("A", ["x0", "x1"], 3)
        Y = sub("B", ["x1 + x2", "x0 - x2"], 3)
        Z = product_scheme(X, Y)
        for P in self.sample(rng, X, Y, 3):
            for v in PLACES:
                assert weil_norm(Z, P, v) == \
                    weil_norm(X, P, v) * weil_norm(Y, P, v)

    def test_power_is_multiple(self):
        rng = random.Random(29)
        X = sub("A", ["x0", "x1 - x2"], 3)
        for m in (2, 3):
            Z = power_scheme(X, m)
            for P in self.sample(rng, X, X, 3, count=25):
                for v in PLACES:
                    assert weil_norm(Z, P, v) == weil_norm(X, P, v) ** m


def multiplier_constants(multipliers):
    """Per-place constants C_v from an expansion psi_i = sum_j h_ij phi_j.

    At the infinite place C is the largest row sum of coefficient l1
    norms; at p it is p to the worst denominator valuation.  Both depend
    only on the multipliers, never on the point."""
    c_inf = max(
        sum(sum(abs(c) for c in h.terms.values())
            for h in row if h is not None)
        for row in multipliers
    )
    coeffs = [c for row in multipliers for h in row if h is not None
              for c in h.terms.values()]
    out = {PLACE_INF: Fraction(c_inf)}
    for v in PLACES[1:]:
        drop = min(ord_p(c, v.p) for c in coeffs)
        out[v] = Fraction(v.p) ** (-min(0, drop))
    return out


class TestContainmentBound:
    """If every generator of Y expands in the generators of X, then the
    local value of X exceeds that of Y by at most the multiplier
    constant, place by place."""

    CASES = [
        # (X gens, Y gens, multipliers h_ij with psi_i = sum_j h_ij phi_j)
        (["x0", "x1"],
         ["x0*x2 + x1^2", "x0^2 - x1^2"],
         [["x2", "x1"], ["x0", "-x1"]]),
        (["x0", "x1"],
         ["x0^2 + 3*x0*x1"],
         [["x0 + 3*x1", None]]),
        (["x0", "x1"],
         ["1/2*x0^2 + x1^2", "x0*x1"],
         [["1/2*x0", "x1"], ["x1", None]]),
    ]

    def expand(self, gens, nvars):
        return [None if g is None else
                Subscheme.from_strings("t", [g], nvars=nvars).generators[0]
                for g in gens]

    def test_expansions_are_honest(self):
        # the multiplier tables really do reproduce the Y generators
        for xg, yg, mult in self.CASES:
            X = sub("X", xg, 3)
            Y = sub("Y", yg, 3)
            for psi, row in zip(Y.generators, mult):
                forms = self.expand(row, 3)
                acc = HomogeneousForm.zero(3, psi.degree)
                for h, phi in zip(forms, X.generators):
                    if h is not None:
                        acc = acc + h * phi
                assert acc.terms == psi.terms

    def test_bound_holds_with_stable_constants(self):
        rng = random.Random(31)
        for xg, yg, mult in self.CASES:
            X = sub("X", xg, 3)
            Y = sub("Y", yg, 3)
            consts = multiplier_constants(
                [self.expand(row, 3) for row in mult])
            assert all(c >= 1 or v is PLACE_INF
                       for v, c in consts.items())
            checked = 0
            while checked < 30:
                P = random_point(rng, 3, box=25)
                try:
                    pairs = [(weil_norm(X, P, v), weil_norm(Y, P, v))
                             for v in PLACES]
                except SupportError:
                    continue
                for (qx, qy), v in zip(pairs, PLACES):
                    assert qx <= qy * consts[v]
                checked += 1

    def test_reported_constants(self):
        consts = multiplier_constants(
            [self.expand(row, 3) for row in self.CASES[2][2]])
        assert consts[PLACE_INF] == Fraction(3, 2)
        assert consts[Place(2)] == 2
        assert consts[Place(3)] == 1


class TestFloor:
    def test_infinite_floor(self):
        Y = sub("H", ["x0 + x1"], 2)
        assert weil_floor_norm(Y, PLACE_INF) == Fraction(1, 2)

    def test_finite_floor_integer_coefficients(self):
        Y = sub("H", ["3*x0 + x1"], 2)
        assert weil_floor_norm(Y, Place(3)) == 1

    def test_finite_floor_fractional_coefficients(self):
        Y = sub("H", ["1/2*x0 + x1"], 2)
        assert weil_floor_norm(Y, Place(2)) == Fraction(1, 2)

    def test_floor_is_a_true_floor(self):
        rng = random.Random(37)
        schemes = [
            sub("H", ["x0 + 2*x1"], 2),
            sub("pt", ["x0 - x1", "x1 - 5*x2"], 3),
            sub("Q", ["1/3*x0^2 + x1*x2"], 3),
        ]
        for Y in schemes:
            floors = {v: weil_floor_norm(Y, v) for v in PLACES}
            checked = 0
            while checked < 40:
                P = random_point(rng, Y.nvars, box=20)
                try:
                    for v in PLACES:
                        assert weil_norm(Y, P, v) >= floors[v]
                except SupportError:
                    continue
                checked += 1
