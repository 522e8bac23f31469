"""Sections of ideal sheaves at coordinate points, against a monomial count.

The paper's terms are h^0(O(D) . I^m) and its filtration pieces
H^0(O(N) . prod_i I_i^{b_i}): sections of ideal sheaves, i.e. the degree-D
part of the saturation.  At coordinate points these are monomial: the order
of x^e at the coordinate point P_i (x_i = 1, every other coordinate 0) is
D - e_i, and a form vanishes to order >= b_i at distinct points P_i exactly
when each of its monomials does.  So both sides reduce to counting degree-D
monomials.

The graded ring counts the graded piece of I^m (or of prod_i I_i^{b_i}),
which is smaller when that ideal is not saturated.  The cases marked xfail
are inputs where the two differ today: several points in one subscheme,
and a product of two point ideals.

A second oracle needs no monomials: up to a change of coordinates, k <= 3
reduced points in general position of P^2 are the points blown up by
SurfaceModel(k), and h^0(O(D) . I^m) is h^0(D H - m (E_1 + ... + E_k))
there, which beta-surface computes by Zariski decomposition.
"""

from fractions import Fraction

import pytest

from diophkit.beta import beta_truncated
from diophkit.filtration import build_profile
from diophkit.graded import Subscheme, terms_until_zero
from diophkit.polynomials import monomial_exponents
from diophkit.surface import SurfaceModel, _beta_surface_terms, parse_class

GAP = pytest.mark.xfail(strict=True, reason="graded piece, not sheaf sections")


def orders(e, points):
    """Order of x^e at each coordinate point P_i, i in `points`."""
    return [sum(e) - e[i] for i in points]


def sheaf_terms(points, nvars, D):
    """h^0(O(D) . I^m), m = 1.. first zero, for I the reduced union of the
    coordinate points: a section vanishes to order >= m at every point."""
    monos = monomial_exponents(D, nvars)
    return terms_until_zero(
        lambda m: sum(min(orders(e, points)) >= m for e in monos))


def sheaf_jumps(points, weights, nvars, N):
    """Jump profile of the weighted filtration by the coordinate points: x^e
    lies in the piece at x exactly when sum_i t_i ord_{P_i}(x^e) >= x."""
    values = [sum(t * o for t, o in zip(weights, orders(e, points)))
              for e in monomial_exponents(N, nvars)]
    return tuple((x, sum(v >= x for v in values)) for x in sorted(set(values)))


def sub(label, gens):
    return Subscheme.from_strings(label, gens, nvars=3)


@pytest.mark.parametrize("gens,points,N", [
    (["x0", "x1"], [2], 3),
    (["x1", "x2"], [0], 4),
    pytest.param(["x0*x1", "x0*x2", "x1*x2"], [0, 1, 2], 3, marks=GAP),
])
def test_beta_terms(gens, points, N):
    rep = beta_truncated(sub("Y", gens), 1, N)
    assert rep.terms == sheaf_terms(points, 3, N)


@pytest.mark.parametrize("ideals,points,weights,N", [
    ([["x0", "x1"]], [2], (1,), 3),
    ([["x1", "x2"]], [0], (Fraction(1, 2),), 4),
    pytest.param([["x0", "x1"], ["x0", "x2"]], [2, 1], (1, 1), 1, marks=GAP),
])
def test_filtration_jumps(ideals, points, weights, N):
    Ys = [sub("Y%d" % i, gens) for i, gens in enumerate(ideals)]
    profile = build_profile(Ys, weights, N)
    assert profile.jumps == sheaf_jumps(points, weights, 3, N)


@pytest.mark.parametrize("gens,k,D", [
    (["x0", "x1"], 1, "E1"),
    (["x0*x1", "x2"], 2, "E1 + E2"),
    pytest.param(["x0*x1", "x0*x2", "x1*x2"], 3, "E1 + E2 + E3", marks=GAP),
], ids=["one-point", "two-points", "three-points"])
@pytest.mark.parametrize("N", [3, 5, 6, 8])
def test_beta_terms_match_the_blowup(gens, k, D, N):
    model = SurfaceModel(k)
    blowup = _beta_surface_terms(model, model.H, parse_class(D, k=k), N)[1]
    assert beta_truncated(sub("Y", gens), 1, N).terms == tuple(blowup)
