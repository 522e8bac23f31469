"""Integer arithmetic on the profile paths against the Fraction routes.

The normalized path counts dimensions from one histogram of integer
levels; the generic path multiplies integer generators; the monomial
images under y = A x are integer rows; and ``linalg.adapted_cells`` finds
f-coordinates by fraction-free elimination.  Each is checked here against
the per-candidate sweep (``sweep_oracle``) or the Fraction route it
replaced (``fraction_oracle``), and a guard makes the Fraction routes raise
while the profile paths run.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle
from diophkit import filtration, linalg
from diophkit.beta import ideal_power_terms
from diophkit.cli import _parse_subschemes
from diophkit.filtration import (
    _Monomials,
    _generic_mu,
    _monomial_images,
    _piece_rows,
    build_profile,
    common_adapted_basis,
    mu_value,
)
from diophkit.graded import Subscheme, coordinate_groups, normalize
from diophkit.polynomials import HomogeneousForm, monomial_exponents, parse_form
from sweep_oracle import sweep_profile
from test_golden import CASES as GOLDEN_CASES


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


def weights(*ws):
    return tuple(Fraction(w) for w in ws)


def positive_multiple(row, oracle_row):
    """Whether ``row`` is a positive scalar times ``oracle_row``."""
    j = next((j for j, v in enumerate(oracle_row) if v), None)
    if j is None:
        return not any(row)
    scale = Fraction(row[j]) / oracle_row[j]
    return scale > 0 and all(a == scale * b for a, b in zip(row, oracle_row))


TRIANGLE = [sub("a", ["x0"], 3), sub("b", ["x1"], 3), sub("c", ["x2"], 3)]

# (subschemes, weights, largest N); every one is accepted by normalize
NORMALIZED = {
    # no degree-N monomial sits at level 0 once N >= 1
    "triangle": (TRIANGLE, weights(1, "1/2", "1/3"), 5),
    # 1/2 = 1/3 + 1/6: distinct order vectors with equal t.b
    "triangle_ties": (TRIANGLE, weights("1/2", "1/3", "1/6"), 5),
    "triangle_zero_weight": (TRIANGLE, weights(0, "2/7", "1/5"), 4),
    "p3_coordinate_powers": ([sub("a", ["x0^2", "x3"], 4), sub("b", ["x1"], 4),
                              sub("c", ["x2^3"], 4)],
                             weights("1/2", "1/3", "2/7"), 4),
    "p3_coordinate_coprime": ([sub("a", ["x0"], 4), sub("b", ["x1"], 4),
                               sub("c", ["x2"], 4), sub("d", ["x3"], 4)],
                              weights("1/2", "1/3", "1/5", "2/7"), 3),
    "p2_lines": ([sub("a", ["x0 + x1"], 3), sub("b", ["x1 + x2"], 3),
                  sub("c", ["x0 + 2/3*x2"], 3)],
                 weights(1, "1/2", "1/3"), 4),
    "p2_lines_zero_weight": ([sub("a", ["x0 + x1"], 3), sub("b", ["x1 - 1/2*x2"], 3)],
                             weights(0, "2/7"), 4),
    "p3_line_and_plane": ([sub("L", ["1/2*x0 + x3", "x1 - 2/3*x2"], 4),
                           sub("H", ["x0 + x1 + x2 + x3"], 4)],
                          weights("1/5", "2/7"), 3),
    "p3_point_ties": ([sub("P", ["x0 + x1", "x1 - x2", "x2 + 2*x3"], 4)],
                      weights(1), 4),
}


@pytest.mark.parametrize("with_bases", [False, True], ids=["dims", "bases"])
@pytest.mark.parametrize("name", sorted(NORMALIZED))
def test_histogram_equals_sweep(name, with_bases):
    Ys, t, top = NORMALIZED[name]
    assert normalize(Ys) is not None
    for N in range(top + 1):
        assert build_profile(Ys, t, N, with_bases) == \
            sweep_profile(Ys, t, N, with_bases), N


def test_linear_cases_change_coordinates():
    for name in ("p2_lines", "p2_lines_zero_weight", "p3_line_and_plane",
                 "p3_point_ties"):
        Ys = NORMALIZED[name][0]
        assert coordinate_groups(Ys) is None and normalize(Ys) is not None, name


def test_triangle_has_an_empty_level_zero():
    t = weights(1, "1/2", "1/3")
    for N in range(1, 6):
        profile = build_profile(TRIANGLE, t, N)
        # no monomial at level 0: the whole space lies in the piece at the
        # least level, N/3 from x2^N
        assert profile.jumps[0] == (Fraction(N, 3), math.comb(N + 2, 2))


def test_coordinate_point_terms_at_forty():
    terms = ideal_power_terms(sub("P", ["x0", "x1"], 3), 40)
    assert terms == tuple(math.comb(42, 2) - math.comb(m + 1, 2)
                          for m in range(1, 41))


# --- integer rows ----------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def invertible(draw):
    n = draw(st.integers(2, 3))
    A = tuple(tuple(draw(fractions) for _ in range(n)) for _ in range(n))
    if linalg.rank(A) < n:
        A = tuple(tuple(v + int(i == j) * 5 for j, v in enumerate(row))
                  for i, row in enumerate(A))
    return A


@settings(max_examples=40, deadline=None)
@given(invertible(), st.integers(0, 4))
def test_monomial_images_are_positive_multiples(A, N):
    if linalg.rank(A) < len(A):
        return
    monos = monomial_exponents(N, len(A))
    oracle = fraction_oracle.monomial_rows(monos, A)
    images = _monomial_images(A, N)
    assert len(images) == len(oracle)
    assert all(type(v) is int for row in images for v in row)
    assert all(positive_multiple(row, want) for row, want in zip(images, oracle))


# (subschemes, weights, largest N) with fractional generators and mixed degrees
FRACTIONAL_CONIC = "1/2*x0^2 + 3/4*x1^2 - x2^2"
FRACTIONAL_LINE = "2/3*x1 - x2"
GENERIC = {
    "conic_and_line": ([sub("Q", [FRACTIONAL_CONIC], 3), sub("L", [FRACTIONAL_LINE], 3)],
                       weights(1, "1/2"), 4),
    "conic_with_line": ([sub("Y", [FRACTIONAL_CONIC, FRACTIONAL_LINE], 3)],
                        weights("2/3"), 4),
    "four_fractional_lines": ([sub("a", ["1/2*x0 + x1"], 3), sub("b", ["x1 - 3/4*x2"], 3),
                               sub("c", ["2/5*x2"], 3), sub("d", ["x0 + x1 + 1/3*x2"], 3)],
                              weights(1, "1/2", "1/3", "2/7"), 2),
}


@pytest.mark.parametrize("with_bases", [False, True], ids=["dims", "bases"])
@pytest.mark.parametrize("name", sorted(GENERIC))
def test_generic_equals_sweep_on_fractional_generators(name, with_bases):
    Ys, t, top = GENERIC[name]
    assert normalize(Ys) is None
    for N in range(top + 1):
        assert build_profile(Ys, t, N, with_bases) == \
            sweep_profile(Ys, t, N, with_bases), N


@pytest.mark.parametrize("name", sorted(GENERIC))
def test_piece_rows_are_positive_multiples(name):
    Ys, _, top = GENERIC[name]
    N = top + 1
    monos = _Monomials(N, Ys[0].nvars)
    gens = [[(g.degree, monos.form(g)) for g in Y.generators] for Y in Ys]
    cache = {}
    for b in [(0,) * len(Ys), (1,) * len(Ys), (2,) + (0,) * (len(Ys) - 1),
              (0,) * (len(Ys) - 1) + (3,)]:
        rows = list(_piece_rows(gens, b, monos, cache))
        oracle = list(fraction_oracle.piece_rows(Ys, b, N))
        assert len(rows) == len(oracle), b
        assert all(positive_multiple(row, want) for row, want in zip(rows, oracle)), b


def adapted_basis_inputs():
    """(subschemes, weights, second weights, N) of every adapted-basis golden
    file; one weighting alone is paired with its reverse."""
    seen = []
    for _, argv in GOLDEN_CASES:
        if argv[0] != "adapted-basis":
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        t = weights(*opts["--weights"].split(","))
        t2 = weights(*opts["--weights2"].split(",")) if "--weights2" in opts \
            else tuple(reversed(t))
        key = (opts["--ideals"], t, t2, int(opts["--N"]))
        if key not in seen:
            seen.append(key)
    return seen


@pytest.mark.parametrize("ideals,t,t2,N", adapted_basis_inputs())
def test_adapted_cells_equal_the_fraction_inverse(ideals, t, t2, N):
    Ys = _parse_subschemes(ideals, 3)
    first = build_profile(Ys, t, N, with_bases=True)
    second = build_profile(Ys, t2, N, with_bases=True)
    width = first.ambient_dim
    assert linalg.adapted_cells(first.bases, second.bases, width) == \
        fraction_oracle.adapted_cells(first.bases, second.bases, width)


def test_golden_inputs_cover_both_chain_kinds():
    inputs = adapted_basis_inputs()
    assert len(inputs) >= 6
    kinds = {normalize(_parse_subschemes(ideals, 3)) is None
             for ideals, _, _, _ in inputs}
    assert kinds == {False, True}


# --- the Fraction routes stay out of the profile paths ---------------------

def test_profile_paths_use_no_fraction_route(monkeypatch):
    lines = [sub("a", ["x0 + x1"], 3), sub("b", ["x1 + x2"], 3),
             sub("c", ["x0 + 2/3*x2"], 3)]
    tilted_four = [sub("a", ["2*x0 + 2*x1 + x2"], 3), sub("b", ["x1 - 2*x2"], 3),
                   sub("c", ["x1 + x2"], 3), sub("d", ["2*x0 + 4*x1"], 3)]
    conic_and_line = GENERIC["conic_and_line"][0]
    t, t2, t4 = weights(1, "1/2", "1/3"), weights("1/3", "1/2", 1), \
        weights(1, "1/2", "1/3", "1/5")
    expected = [build_profile(lines, t, 4, True),
                build_profile(tilted_four, t4, 5),
                build_profile(tilted_four, t4, 4, True),
                build_profile(conic_and_line, weights(1, "1/2"), 4, True)]
    pair = (build_profile(lines, t, 3, True), build_profile(lines, t2, 3, True))
    want_pair = common_adapted_basis(*pair)
    coordinate = [sub("a", ["x0^2"], 3), sub("b", ["x1"], 3)]
    forms = [parse_form(f, nvars=3) for f in
             ("x0^2*x1^2 + x0*x1*x2^2", "x0^4 - 3*x1^2*x2^2", "x2^4", "x0^3*x1")]
    mu_cases = [(s, Ys, w) for s in forms
                for Ys, w in ((lines, t), (coordinate, weights(1, "1/2")))]
    want_mu = [_generic_mu(s, Ys, w) for s, Ys, w in mu_cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction route ran on a profile path")

    monkeypatch.setattr(HomogeneousForm, "__mul__", forbidden)
    monkeypatch.setattr(HomogeneousForm, "substitute", forbidden)
    # the images under y = A x are memoized; build them again under the guard
    filtration._monomial_images.cache_clear()
    got = [build_profile(lines, t, 4, True),
           build_profile(tilted_four, t4, 5),
           build_profile(tilted_four, t4, 4, True),
           build_profile(conic_and_line, weights(1, "1/2"), 4, True)]
    assert got == expected
    got_pair = common_adapted_basis(*pair)
    assert [(v.elements, v.mu_values) for v in got_pair] == \
        [(v.elements, v.mu_values) for v in want_pair]
    assert [mu_value(s, Ys, w) for s, Ys, w in mu_cases] == want_mu
