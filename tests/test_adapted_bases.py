"""Adapted bases from one growing row space against the rank-table oracle.

``filtration.adapted_basis`` walks a profile's levels deepest first into one
``linalg.RowSpace``, and ``common_adapted_basis`` takes one vector per Bruhat
cell of the two flags.  ``adapted_oracle`` rebuilds both the old way (an rref
after every picked vector, a table of intersection ranks from nullspaces,
span tests for mu).  Vectors and mu values must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from diophkit.filtration import (
    adapted_basis,
    build_profile,
    common_adapted_basis,
    is_adapted,
)
from diophkit.graded import Subscheme
from diophkit.polynomials import monomial_exponents

import adapted_oracle
from test_acceptance import coordinate_instance


def lines(*gens):
    return [Subscheme.from_strings("L%d" % i, [g], nvars=3) for i, g in enumerate(gens)]


# the benchmark's adapted-basis lines (seed 1), the golden files' lines, and
# the paper's four lines after a change of coordinates
BENCH = lines("-3*x0 + x1 - x2", "2*x1 + 2*x2", "-x0 + 3*x1 - x2")
GENERAL = lines("x0 + x1", "x1 + x2", "x0 + x2")
FOUR = lines("2*x0 + 2*x1 + x2", "x1 - 2*x2", "x1 + x2", "2*x0 + 4*x1")
T = (1, Fraction(1, 2), Fraction(1, 3))
T4 = T + (Fraction(1, 5),)

CASES = [
    ("bench-N3", BENCH, T, T[::-1], 3),
    ("bench-N4", BENCH, T, T[::-1], 4),
    ("four-N2", FOUR, T4, T4[::-1], 2),
    ("four-N3", FOUR, T4, T4[::-1], 3),
    ("tied-N3", GENERAL, (1, 1, 1), T, 3),
    ("tied-both-N3", BENCH, (1, 1, 2), (2, 1, 1), 3),
]


def rows_of(view, profile):
    columns = {e: i for i, e in enumerate(monomial_exponents(profile.degree,
                                                             profile.nvars))}
    return tuple(f.coeff_vector(columns) for f in view.elements)


@pytest.mark.parametrize("name,Ys,t,u,N", CASES, ids=[c[0] for c in CASES])
def test_common_basis_matches_rank_table(name, Ys, t, u, N):
    first = build_profile(Ys, t, N, with_bases=True)
    second = build_profile(Ys, u, N, with_bases=True)
    view_f, view_g = common_adapted_basis(first, second)
    expected = adapted_oracle.common_adapted_basis(first.bases, second.bases,
                                                   first.ambient_dim)
    assert rows_of(view_f, first) == expected
    assert view_f.mu_values == tuple(adapted_oracle.mu_of(v, first) for v in expected)
    assert view_g.mu_values == tuple(adapted_oracle.mu_of(v, second) for v in expected)


@pytest.mark.parametrize("name,Ys,t,u,N", CASES, ids=[c[0] for c in CASES])
def test_single_basis_matches_greedy_rref(name, Ys, t, u, N):
    for w in (t, u):
        profile = build_profile(Ys, w, N, with_bases=True)
        basis = adapted_basis(profile)
        vectors, mus = adapted_oracle.adapted_basis(profile)
        assert rows_of(basis, profile) == vectors
        assert basis.mu_values == mus


def test_coordinate_profiles_match_greedy_rref():
    """Profiles drawn by acceptance criterion 4's instance generator."""
    rng = random.Random(2024)
    for _ in range(20):
        Ys, t, u, N = coordinate_instance(rng)
        profile = build_profile(Ys, t, N, with_bases=True)
        basis = adapted_basis(profile)
        vectors, mus = adapted_oracle.adapted_basis(profile)
        assert rows_of(basis, profile) == vectors
        assert basis.mu_values == mus


def test_width_28_common_basis():
    """Three general lines at N = 6: both views verified by is_adapted."""
    first = build_profile(BENCH, T, 6, with_bases=True)
    second = build_profile(BENCH, T[::-1], 6, with_bases=True)
    assert first.ambient_dim == 28
    view_f, view_g = common_adapted_basis(first, second)
    assert is_adapted(view_f, first) and is_adapted(view_g, second)
