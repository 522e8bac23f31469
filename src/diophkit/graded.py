"""Graded pieces of subscheme ideal powers on P^n, and the position checker.

The dimension queries ``graded_dim_*`` read one value off a profile of
``filtration.build_profile`` (an ideal power is one subscheme of weight 1).
The per-piece route, the rank (``span_dim``) of the family {g_1 ... g_m *
monomial} for I^m or of the products over a threshold set's minimal
generators, is only the oracle those counts are tested against.

``normalize``, which only ``filtration`` calls, is the one place that
picks the monomial fast path.  It accepts exactly two kinds of input:

* coordinate monomials: every generator is c * x_j^e, with the variables
  distinct inside a subscheme and disjoint across subschemes
  (``coordinate_groups``);
* linear subschemes in general position: every generator is linear, and
  the bases of the subschemes' generator spans are jointly independent.
  An invertible linear change of coordinates then turns subscheme i into
  the coordinate subspace cut by its own block of new variables.

Graded dimensions do not change under a linear change of coordinates, so
on both kinds membership of a monomial reduces to comparing its order
vector, and dimensions are monomial counts.

A profile of one subscheme that ``normalize`` rejects, built without
bases, has a second fast path: ``complete_intersection_degrees`` accepts
a subscheme whose generators form a regular sequence with nonempty
support, such as a hypersurface or a quadric cut by a plane.  Its ideal powers have Hilbert
functions in closed form (see ``filtration``), and they are saturated, so
they also count the sections of the powers of the ideal sheaf.
Everything else, such as several subschemes with nonlinear generators or
dependent linear families like four lines in the plane, goes through
exact elimination of generating rows.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .polynomials import (FormError, HomogeneousForm, _to_forms, _to_rows,
                          monomial_exponents, parse_form)
from .staircase import threshold_set, validate_weights

__all__ = [
    "CatalogError",
    "Subscheme",
    "PositionReport",
    "dim_full",
    "span_dim",
    "terms_until_zero",
    "ideal_power_gens",
    "graded_dim_ideal_power",
    "filtration_ideal_gens",
    "graded_dim_filtration_ideal",
    "coordinate_groups",
    "normalize",
    "complete_intersection_degrees",
    "order_vector",
    "common_support_dim",
    "check_general_position",
]


class CatalogError(ValueError):
    """Input falls outside the decidable catalog for this operation."""


class Subscheme:
    """A closed subscheme of P^(nvars-1) given by homogeneous generators."""

    def __init__(self, label, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a subscheme needs at least one generator")
        for g in gens:
            if not isinstance(g, HomogeneousForm):
                raise TypeError("generators must be HomogeneousForm instances")
            if g.is_zero:
                raise ValueError("zero generator is not allowed")
            if g.degree == 0:
                raise ValueError("degree-0 generator would make the ideal the unit ideal")
        if len({g.nvars for g in gens}) != 1:
            raise ValueError("generators must share one ambient space")
        self.label, self.generators = label, gens

    def __eq__(self, other):
        return type(other) is Subscheme and vars(self) == vars(other)

    @property
    def nvars(self):
        return self.generators[0].nvars

    @property
    def n(self):
        return self.nvars - 1

    @classmethod
    def from_strings(cls, label, gens, nvars=None):
        return _parse_family([(label, gens)], nvars)[0]

    def to_json(self):
        return {"label": self.label, "nvars": self.nvars,
                "generators": [g.to_string() for g in self.generators]}

    @classmethod
    def from_json(cls, data, nvars=None):
        if nvars is None:
            nvars = data.get("nvars")
        return cls.from_strings(data["label"], data["generators"], nvars=nvars)

    def vanishes_at(self, coords):
        return all(g.evaluate(coords) == 0 for g in self.generators)


def _widen(forms, width):
    """The forms in ``width`` variables; the added ones occur in no term."""
    return tuple(HomogeneousForm(width, f.degree, {e + (0,) * (width - f.nvars): c
                                                   for e, c in f.terms.items()})
                 for f in forms)


def _parse_family(blocks, nvars=None):
    """Subschemes from (label, generator strings) pairs, all in nvars
    variables, or when nvars is None in the fewest that hold every
    generator.  Each block is parsed and checked before the next one."""
    family = []
    for label, gens in blocks:
        forms = [parse_form(g, nvars=nvars) for g in gens]
        width = max([f.nvars for f in forms], default=1)
        family.append(Subscheme(label, _widen(forms, width)))
    width = max(Y.nvars for Y in family)
    return [Subscheme(Y.label, _widen(Y.generators, width)) for Y in family]


def dim_full(D, n):
    """h^0 of O(D) on P^n: the number of degree-D monomials in n+1 variables."""
    if D < 0:
        return 0
    return math.comb(D + n, n)


def terms_until_zero(term):
    """(term(1), term(2), ...) cut off before the first zero value."""
    terms = []
    m = 1
    while (value := term(m)) != 0:
        terms.append(value)
        m += 1
    return tuple(terms)


def _common_shape(forms):
    shapes = {(f.nvars, f.degree) for f in forms}
    if len(shapes) != 1:
        raise FormError("forms must share one ambient space and one degree")
    return shapes.pop()


def span_dim(forms):
    """Dimension of the span of forms of one common degree, by elimination."""
    live = [f for f in forms if not f.is_zero]
    if not live:
        return 0
    return linalg.rank(_to_rows(live, *_common_shape(live)))


def span_piece(forms, nvars, degree):
    """Reduced echelon basis, as degree-``degree`` forms, of the span of the
    family (empty when the family spans nothing)."""
    live = [f for f in forms if not f.is_zero]
    if not live:
        return ()
    shape = _common_shape(live)
    if shape != (nvars, degree):
        raise FormError("family does not match the requested graded piece")
    return _to_forms(linalg.rref(_to_rows(live, nvars, degree)), nvars, degree)


def _power_products(Y, m, cache=None):
    """All products of m generators of Y (with repetition); for m = 0 the
    empty product 1."""
    key = (id(Y), m)
    if cache is not None and key in cache:
        return cache[key]
    one = HomogeneousForm.one(Y.nvars)
    out = [functools.reduce(operator.mul, combo, one)
           for combo in itertools.combinations_with_replacement(Y.generators, m)]
    if cache is not None:
        cache[key] = out
    return out


def _power(m):
    """m as the exponent of an ideal power: a fractional m raises
    TypeError rather than being rounded, a negative one ValueError."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    return operator.index(m) if m else m


def ideal_power_gens(Y, m, D):
    """Spanning family of the degree-D piece of I_Y^m: Y's filtration family at m."""
    return filtration_ideal_gens([Y], (1,), _power(m), D)


def coordinate_groups(Ys):
    """Detect the disjoint coordinate-monomial catalog.

    Returns one list per subscheme of (variable, exponent) pairs when every
    generator is c * x_j^e with all variables distinct inside a subscheme
    and disjoint across subschemes; otherwise None.
    """
    groups = []
    seen = set()
    for Y in Ys:
        grp = []
        for g in Y.generators:
            if not g.is_monomial:
                return None
            exps = next(iter(g.terms))
            live = [(j, e) for j, e in enumerate(exps) if e > 0]
            if len(live) != 1:
                return None
            j, e = live[0]
            if j in seen:
                return None
            seen.add(j)
            grp.append((j, e))
        groups.append(tuple(grp))
    return groups


def normalize(Ys):
    """Coordinate-monomial form of the subschemes, or None.

    Returns ``(groups, A)`` with A an invertible matrix: in the variables
    y = A x the generators of subscheme i are the coordinate monomials
    ``groups[i]`` of (variable, exponent) pairs.  A is the identity when the
    generators already are coordinate monomials (``coordinate_groups``).
    Otherwise every generator is linear, the first rows of A are bases of
    the subschemes' generator spans, stacked in order and padded with unit
    rows, and subscheme i is cut by a consecutive block of y's.  Returns
    None when the generators are neither, or when the stacked bases are
    dependent.
    """
    groups = coordinate_groups(Ys)
    if groups is not None:
        return groups, linalg._unit_rows(Ys[0].nvars)
    if any(g.degree != 1 for Y in Ys for g in Y.generators):
        return None
    groups = []
    rows = []
    space = linalg.RowSpace(Ys[0].nvars)
    for Y in Ys:
        basis = linalg.rref(_linear_rows(Y.generators))
        groups.append(tuple((len(rows) + k, 1) for k in range(len(basis))))
        if not all(space.add(row) for row in basis):
            return None
        rows.extend(basis)
    padding = [unit for unit in linalg._unit_rows(space.width) if space.add(unit)]
    return groups, tuple(rows) + tuple(padding)


def complete_intersection_degrees(Y):
    """The generator degrees of Y when they form a regular sequence with
    nonempty support, else None.

    The polynomial ring is Cohen-Macaulay, so homogeneous g_1..g_c are a
    regular sequence exactly when the ideal has height c, that is, when
    the support has codimension c.  Returns None when the support is empty
    or its dimension is outside ``common_support_dim``'s catalog.
    """
    try:
        d = common_support_dim([Y])
    except CatalogError:
        return None
    if d is None or Y.n - d != len(Y.generators):
        return None
    return tuple(g.degree for g in Y.generators)


def order_vector(exps, groups):
    """Largest b with x^exps in prod_i I_i^{b_i}, for disjoint monomial groups."""
    return tuple(sum(exps[j] // e for j, e in grp) for grp in groups)


def graded_dim_ideal_power(Y, m, D):
    """dim of the degree-D piece of I_Y^m: Y's filtration ideal at m."""
    return graded_dim_filtration_ideal([Y], (1,), _power(m), D)


def _family(Ys):
    """The subschemes as a nonempty list sharing one ambient space."""
    Ys = list(Ys)
    if not Ys:
        raise ValueError("need at least one subscheme")
    if len({Y.nvars for Y in Ys}) != 1:
        raise ValueError("subschemes must share one ambient space")
    return Ys


def _validate_family(Ys, t):
    """The subschemes through _family, and their weights as Fractions
    (``validate_weights``), one per subscheme."""
    Ys = _family(Ys)
    t = validate_weights(t)
    if len(t) != len(Ys):
        raise ValueError("one weight per subscheme required")
    return Ys, t


def filtration_ideal_gens(Ys, t, x, D):
    """Spanning family of the degree-D piece of sum_b prod_i I_i^{b_i},
    b running over the minimal generators of the threshold set."""
    Ys, t = _validate_family(Ys, t)
    nvars = Ys[0].nvars
    out = []
    cache = {}
    for b in threshold_set(t, x):
        factor_lists = [_power_products(Y, bi, cache) for Y, bi in zip(Ys, b)]
        for combo in itertools.product(*factor_lists):
            prod = functools.reduce(operator.mul, combo)
            gap = D - prod.degree
            if gap < 0:
                continue
            for e in monomial_exponents(gap, nvars):
                out.append(prod * HomogeneousForm.monomial(e))
    return out


def graded_dim_filtration_ideal(Ys, t, x, D):
    """dim of the degree-D piece of the threshold-x filtration ideal."""
    from .filtration import build_profile

    Ys, t = _validate_family(Ys, t)
    x = Fraction(x)
    if x < 0:
        raise ValueError("threshold x must be nonnegative")
    if D < 0:
        return 0
    return build_profile(Ys, t, D).dim_at(x)


# ---------------------------------------------------------------------------
# Support dimensions and the general-position test.
#
# The decidable catalog: any number of subschemes with linear generators,
# plus at most one nonlinear hypersurface effectively appearing per
# intersection.  The linear generators cut a linear space V(L) of
# dimension nvars - rank - 1.  A nonlinear generator f vanishes on it
# exactly when f lies in the ideal (L), so f cuts V(L) effectively
# exactly when its order along L, the filtration's mu value, is below 1.


def _linear_rows(forms):
    """Each linear form as its row of coefficients of x_0 .. x_n (the
    monomial order lists x_n first)."""
    return [row[::-1] for row in _to_rows(forms, forms[0].nvars, 1)]


def common_support_dim(Ys):
    """Projective dimension of the intersection of the supports.

    Returns None for the empty intersection.  Decidable for generators that
    are linear plus at most one effective nonlinear hypersurface; anything
    else raises CatalogError.
    """
    Ys = _family(Ys)
    linear = []
    nonlinear = []
    for Y in Ys:
        for g in Y.generators:
            (linear if g.degree == 1 else nonlinear).append(g)

    # dimension of the solution cone of the linear generators
    s = Ys[0].nvars - (linalg.rank(_linear_rows(linear)) if linear else 0)
    if not s:
        return None
    if linear and nonlinear:
        from .filtration import mu_value

        L = [Subscheme("L", linear)]
        nonlinear = [f for f in nonlinear if mu_value(f, L, (1,)) < 1]
    if not nonlinear:
        return s - 1
    if len(nonlinear) > 1:
        raise CatalogError("cannot decide dimensions with several effective "
                           "nonlinear hypersurfaces")
    if s - 1 == 0:
        return None  # the single point misses the hypersurface
    return s - 2


class PositionReport:
    def __init__(self, ok, witness=None):
        self.ok, self.witness = ok, witness

    def __eq__(self, other):
        return type(other) is PositionReport and vars(self) == vars(other)


def _subscheme_codim(Y):
    d = common_support_dim([Y])
    if d is None:
        return math.inf
    return Y.n - d


def check_general_position(Ys):
    """Codimension test over every nonempty index subset.

    Passes when codim of each intersection is at least the sum of the
    individual codimensions, with the empty set counting as codimension
    infinity.  Returns the first violating subset (0-based, by size then
    lexicographic order) as witness.
    """
    Ys = _family(Ys)
    n = Ys[0].n
    codims = [_subscheme_codim(Y) for Y in Ys]
    # a single subscheme meets its own codimension
    for size in range(2, len(Ys) + 1):
        for subset in itertools.combinations(range(len(Ys)), size):
            d = common_support_dim([Ys[i] for i in subset])
            codim_inter = math.inf if d is None else n - d
            if codim_inter < sum(codims[i] for i in subset):
                return PositionReport(False, subset)
    return PositionReport(True, None)
