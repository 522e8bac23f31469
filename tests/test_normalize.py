"""The linear-normalization boundary against the generic path.

``normalize`` sends linear subschemes in general position to the
coordinate-monomial path.  Every answer it gives must equal the generic
(rank-based) computation on the same input, and every answer must be
invariant under an invertible integer change of coordinates.  The generic
routes are called explicitly here, so they stay a real differential oracle.
"""

import math
import random
from fractions import Fraction

import pytest

from diophkit import linalg
from diophkit.beta import beta_truncated
from diophkit.filtration import (
    F_value,
    _generic_mu,
    _generic_profile,
    build_profile,
    mu_value,
)
from diophkit.graded import (
    Subscheme,
    check_general_position,
    coordinate_groups,
    filtration_ideal_gens,
    graded_dim_filtration_ideal,
    graded_dim_ideal_power,
    ideal_power_gens,
    normalize,
    span_dim,
    terms_until_zero,
)
from diophkit.polynomials import HomogeneousForm, monomial_exponents


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


def linear_forms(matrix):
    n = len(matrix)
    return [HomogeneousForm(n, 1, {tuple(int(i == j) for i in range(n)): c
                                   for j, c in enumerate(row) if c})
            for row in matrix]


def unimodular(rng, n):
    """Random integer matrix of determinant +-1: row operations with small
    multipliers, then a signed row permutation."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    rng.shuffle(U)
    return [[rng.choice((-1, 1)) * v for v in row] if k % 2 else row
            for k, row in enumerate(U)]


def change_coordinates(Ys, U):
    """Replace every generator g by g(U x)."""
    images = linear_forms(U)
    return [Subscheme(Y.label, tuple(g.substitute(images) for g in Y.generators))
            for Y in Ys]


def tilted(Ys, seed):
    """A seeded unimodular change of coordinates that leaves no generator a
    monomial, so the coordinate catalog never applies."""
    rng = random.Random(seed)
    while True:
        U = unimodular(rng, Ys[0].nvars)
        out = change_coordinates(Ys, U)
        if all(not g.is_monomial for Y in out for g in Y.generators):
            return out


def random_forms(rng, nvars, degree, count):
    monos = monomial_exponents(degree, nvars)
    out = []
    while len(out) < count:
        terms = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for e in rng.sample(monos, min(3, len(monos)))}
        form = HomogeneousForm(nvars, degree, terms)
        if not form.is_zero:
            out.append(form)
    return out


# (subschemes in their own coordinates, weights, degree)
CASES = {
    # dependent generators inside one subscheme
    "dependent_inside": ([sub("pt", ["x0", "x1", "x0 + x1"], 3), sub("L", ["x2"], 3)],
                         (1, Fraction(1, 2)), 3),
    "fractional": ([sub("a", ["x0 + 1/2*x1"], 3), sub("b", ["x1 - 2/3*x2"], 3)],
                   (Fraction(1, 3), 1), 3),
    "p3_line": ([sub("L", ["x0 - x1", "x2 + x3"], 4), sub("H", ["x0 + x1 + x2 + x3"], 4)],
                (1, Fraction(2, 3)), 3),
    "three_lines": ([sub("a", ["x0"], 3), sub("b", ["x1"], 3), sub("c", ["x2"], 3)],
                    (1, Fraction(1, 2), Fraction(1, 3)), 3),
}
SEEDS = (1, 2, 3)
PARAMS = [(name, seed) for name in CASES for seed in SEEDS]


@pytest.fixture(params=PARAMS, ids=["%s-%d" % p for p in PARAMS])
def case(request):
    name, seed = request.param
    Ys, t, N = CASES[name]
    return Ys, tilted(Ys, seed), t, N


class TestNormalize:
    def test_coordinate_input_keeps_its_groups(self):
        Ys = [sub("a", ["x0^2"], 3), sub("b", ["x1", "x2"], 3)]
        assert normalize(Ys) == (coordinate_groups(Ys), linalg._unit_rows(3))

    def test_blocks_and_matrix(self):
        Ys = [sub("pt", ["x0 + x1", "x1 - x2", "x0 + x2"], 4),
              sub("H", ["x3 + x1"], 4)]
        groups, A = normalize(Ys)
        # the first subscheme spans only two dimensions
        assert groups == [((0, 1), (1, 1)), ((2, 1),)]
        assert len(A) == 4 and linalg.rank(A) == 4
        assert all(v in (0, 1) for row in A[3:] for v in row)

    def test_rejects_mixed_and_dependent_families(self):
        assert normalize([sub("a", ["x0^2"], 3), sub("b", ["x1 + x2"], 3)]) is None
        assert normalize([sub("C", ["x0*x2 - x1^2"], 3)]) is None
        four = [sub("a", ["x0"], 3), sub("b", ["x1"], 3), sub("c", ["x2"], 3),
                sub("d", ["x0 + x1 + x2"], 3)]
        assert normalize(four) is None
        assert normalize(tilted(four, 1)) is None

    def test_transformed_cases_take_the_linear_path(self, case):
        _, Ys, _, _ = case
        assert coordinate_groups(Ys) is None
        assert normalize(Ys) is not None


class TestAgainstGenericPath:
    def test_ideal_power_dims(self, case):
        _, Ys, _, N = case
        for Y in Ys:
            for m in range(N + 2):
                assert graded_dim_ideal_power(Y, m, N) == \
                    span_dim(ideal_power_gens(Y, m, N))

    def test_filtration_dims(self, case):
        _, Ys, t, N = case
        for x in {sum(w * b for w, b in zip(t, bs))
                  for bs in [(1,) * len(t), (2,) + (0,) * (len(t) - 1),
                             (0,) * (len(t) - 1) + (3,)]}:
            assert graded_dim_filtration_ideal(Ys, t, x, N) == \
                span_dim(filtration_ideal_gens(Ys, t, x, N))

    def test_profiles_bases_and_F(self, case):
        original, Ys, t, N = case
        fast = build_profile(Ys, t, N, with_bases=True)
        slow = _generic_profile(Ys, t, N, with_bases=True)
        assert fast.jumps == slow.jumps
        assert fast.bases == slow.bases
        assert F_value(fast) == F_value(slow)
        # metamorphic: the profile does not see the change of coordinates
        assert build_profile(original, t, N).jumps == fast.jumps

    def test_mu_values(self, case):
        _, Ys, t, N = case
        rng = random.Random(N)
        nvars = Ys[0].nvars
        forms = random_forms(rng, nvars, N, 4)
        # products of generators sit deep in the filtration
        gens = [g for Y in Ys for g in Y.generators]
        deep = gens[0] ** N
        forms.append(deep)
        forms.append(deep + forms[0])
        for s in forms:
            assert mu_value(s, Ys, t) == _generic_mu(s, Ys, t)

    def test_general_position_verdicts(self, case):
        original, Ys, _, _ = case
        assert check_general_position(Ys) == check_general_position(original)


class TestDependentFamily:
    FOUR = [sub("a", ["x0"], 3), sub("b", ["x1"], 3), sub("c", ["x2"], 3),
            sub("d", ["x0 + x1 + x2"], 3)]
    T = (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))

    def test_generic_path_runs_unchanged(self):
        Ys = tilted(self.FOUR, 2)
        assert normalize(Ys) is None
        profile = build_profile(Ys, self.T, 2)
        assert profile.jumps == _generic_profile(Ys, self.T, 2).jumps
        assert profile.jumps == build_profile(self.FOUR, self.T, 2).jumps
        s = Ys[3].generators[0] * Ys[0].generators[0]
        assert mu_value(s, Ys, self.T) == _generic_mu(s, Ys, self.T)


def test_tilted_point_p3_closed_form():
    """A reduced point of P^3 cut by tilted planes at N = 12: the terms are
    C(N+3, 3) - C(m+2, 3), m = 1..N."""
    Y = sub("pt", ["x0 + x3", "x1 - 2*x3", "x2 + 1/2*x3"], 4)
    N = 12
    rep = beta_truncated(Y, 1, N)
    terms = tuple(math.comb(N + 3, 3) - math.comb(m + 2, 3) for m in range(1, N + 1))
    assert rep.terms == terms
    assert rep.value == Fraction(sum(terms), N * math.comb(N + 3, 3))


def test_terms_until_zero_stops_before_first_zero():
    assert terms_until_zero(lambda m: max(4 - m, 0)) == (3, 2, 1)
    assert terms_until_zero(lambda m: 0) == ()
