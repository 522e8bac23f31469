"""Weighted filtrations of the degree-N forms by vanishing along subschemes.

The filtration at threshold x is the span of the degree-N piece of the
ideal sum_b prod_i I_i^{b_i} over b with t.b >= x.  Profiles record the
jump values and dimensions of this step function; its normalized integral
F(t) is the quantity the concavity bound controls.  Dimensions are exact
and jump values are Fractions throughout.

Profiles without bases are counted where they can be: on inputs that
``graded.normalize`` accepts the dimensions are running sums of the level
histogram (``_levels``) of the monomials, and one complete intersection
(the generators a regular sequence with nonempty support,
``complete_intersection_degrees``) is a sum of binomials.  Every other
profile, and every mu value, is read off one downward walk of (x, row
space) pairs (``_walk``): each value adds only its own rows, from one of
two sources, the images of its monomials under the change of coordinates
for normalized inputs and the products of its b's for the rest, and the
walk stops once the rank is full.  The rank after a value is the
dimension there.  Ideal powers are the case of one subscheme with weight 1.

Rows are integers end to end.  A generator has its denominators cleared
once, products are integer polynomials on packed exponents
(``_Monomials``), and the images of the monomials under a change of
coordinates are built one variable at a time, once per (A, N).  Scaling a
row by a positive integer changes neither its span nor the row space's
primitive rows, so the reduced echelon bases are those of the Fraction
rows.  Fractions appear only in jump values and in those bases.

Step convention: a profile [(x_1, d_1), ..., (x_K, d_K)] means the
dimension is d_1 on [0, x_1], d_k on (x_{k-1}, x_k], and 0 past x_K.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import linalg
from .graded import (
    _linear_forms,
    _linear_rows,
    _validate_family,
    complete_intersection_degrees,
    dim_full,
    normalize,
    order_vector,
    terms_until_zero,
)
from .polynomials import (FormError, HomogeneousForm, _is_count, _to_forms, _to_rows,
                          monomial_exponents)

__all__ = [
    "ProfileError",
    "InconsistentProfilesError",
    "FiltrationProfile",
    "AdaptedBasis",
    "BoundReport",
    "build_profile",
    "mu_value",
    "F_value",
    "scale_check",
    "adapted_basis",
    "common_adapted_basis",
    "is_adapted",
    "concavity_bound",
]


class ProfileError(ValueError):
    pass


class InconsistentProfilesError(ProfileError):
    pass


def _fraction_row(row):
    """The row as a tuple of Fractions, keeping the caller's Fraction entries
    (and the row itself, when it already is such a tuple)."""
    if type(row) is tuple and all(type(v) is Fraction for v in row):
        return row
    return tuple(v if type(v) is Fraction else Fraction(v) for v in row)


def _fraction_bases(levels):
    """Every level's rows through _fraction_row.  A profile with bases holds
    levels x width x dim entries, and deeper levels mostly reuse the row
    objects of shallower ones, so each distinct row object is converted
    once; seen keeps the row alive, so no other row can take its id."""
    seen = {}

    def convert(row):
        hit = seen.get(id(row))
        if hit is None:
            hit = seen[id(row)] = row, _fraction_row(row)
        return hit[1]

    return tuple(tuple(map(convert, level)) for level in levels)


class FiltrationProfile:
    def __init__(self, nvars, degree, ambient_dim, jumps, bases=None):
        self.nvars, self.degree, self.ambient_dim = nvars, degree, ambient_dim
        self.jumps, self.bases = jumps, bases
        self.__post_init__()

    def __post_init__(self):
        jumps = tuple((Fraction(x), int(d)) for x, d in self.jumps)
        if not jumps:
            raise ProfileError("profile needs at least one jump entry")
        xs = [x for x, _ in jumps]
        ds = [d for _, d in jumps]
        if xs[0] < 0:
            raise ProfileError("jump positions must be nonnegative")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ProfileError("jump positions must strictly increase")
        if any(b >= a for a, b in zip(ds, ds[1:])) or any(d <= 0 for d in ds):
            raise ProfileError("jump dimensions must be positive and strictly decrease")
        if ds[0] != self.ambient_dim:
            raise ProfileError("dimension at x = 0 must equal the ambient dimension")
        self.jumps = jumps
        if self.bases is not None:
            bases = _fraction_bases(self.bases)
            if len(bases) != len(jumps):
                raise ProfileError("one basis per jump required")
            if [len(level) for level in bases] != ds:
                raise ProfileError("stored basis dimensions disagree with jumps")
            self.bases = bases

    def __eq__(self, other):
        return type(other) is FiltrationProfile and vars(self) == vars(other)

    def dim_at(self, x):
        x = Fraction(x)
        if x < 0:
            raise ValueError("threshold must be nonnegative")
        for xk, dk in self.jumps:
            if x <= xk:
                return dk
        return 0

    def to_json(self):
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "ambient_dim": self.ambient_dim,
            "jumps": [[x.numerator, x.denominator, d] for x, d in self.jumps],
        }

    @classmethod
    def from_json(cls, data):
        jumps = tuple((Fraction(num, den), d) for num, den, d in data["jumps"])
        return cls(data["nvars"], data["degree"], data["ambient_dim"], jumps)


class AdaptedBasis:
    def __init__(self, elements, mu_values):
        if len(elements) != len(mu_values):
            raise ProfileError("one mu value per element required")
        self.elements = elements
        self.mu_values = tuple(Fraction(m) for m in mu_values)


def _validate_inputs(Ys, t, N):
    Ys, t = _validate_family(Ys, t)
    if not _is_count(N):
        raise ValueError("twist degree must be a nonnegative integer")
    return Ys, t


def _levels(t, pairs):
    """(x, items) for the values x = t.v of (v, item) pairs, descending, with
    their items in order; 0 is always a value.  The weights are scaled once
    by their least common denominator L, so each x is an integer over L."""
    L = math.lcm(*[w.denominator for w in t])
    T = [w.numerator * (L // w.denominator) for w in t]
    buckets = {0: []}
    for v, item in pairs:
        buckets.setdefault(sum(w * a for w, a in zip(T, v)), []).append(item)
    return [(Fraction(k, L), buckets[k]) for k in sorted(buckets, reverse=True)]


def _monomial_levels(norm, t, N):
    """The levels t.o(e) of the degree-N monomials e, items their column
    indices, for ``norm = (groups, A)`` from ``normalize``."""
    groups, A = norm
    return _levels(t, ((order_vector(e, groups), i)
                       for i, e in enumerate(monomial_exponents(N, len(A)))))


def _profile_from_pairs(pairs, nvars, N, ambient, bases=None):
    """Collapse (candidate, dim) pairs into run-end jumps; dims must be
    nonincreasing with dims[0] = ambient."""
    if not pairs or pairs[0][0] != 0 or pairs[0][1] != ambient:
        raise ProfileError("profile must start at x = 0 with the full space")
    jumps = []
    kept = []
    for idx, (x, d) in enumerate(pairs):
        if d <= 0:
            break
        if jumps and d == jumps[-1][1]:
            jumps[-1] = (x, d)
            kept[-1] = idx
        else:
            jumps.append((x, d))
            kept.append(idx)
    level_bases = None
    if bases is not None:
        level_bases = tuple(bases[i] for i in kept)
    return FiltrationProfile(nvars, N, ambient, tuple(jumps), level_bases)


class _Monomials:
    """The degree-N monomials in ``nvars`` variables as the columns of
    integer rows, and integer polynomials over them.

    An exponent e of degree <= N is packed into the integer
    sum_j e_j B^j with B = N + 1.  Every digit stays below B, so the packing
    is one-to-one, and the key of a product of monomials of total degree
    <= N is the sum of their keys.  A polynomial is a dict {key: int}."""

    def __init__(self, N, nvars):
        self.degree, self.nvars = N, nvars
        self._powers = [(N + 1) ** j for j in range(nvars)]
        self.index = {self.key(e): i
                      for i, e in enumerate(monomial_exponents(N, nvars))}
        self.width = len(self.index)
        self._shifts = {}

    def key(self, e):
        return sum(a * p for a, p in zip(e, self._powers))

    def shifts(self, d):
        """Keys of the monomials of degree d, in column order."""
        if d not in self._shifts:
            self._shifts[d] = [self.key(e) for e in monomial_exponents(d, self.nvars)]
        return self._shifts[d]

    def form(self, f):
        """A form with its denominators cleared, as an integer polynomial."""
        scale = math.lcm(*[c.denominator for c in f.terms.values()])
        return {self.key(e): c.numerator * (scale // c.denominator)
                for e, c in f.terms.items()}

    def row(self, poly, shift=0):
        """The coefficient row of a degree-N polynomial, or of a lower-degree
        one times the monomial with key ``shift``."""
        row = [0] * self.width
        index = self.index
        for k, c in poly.items():
            row[index[k + shift]] = c
        return row


def _mul(f, g):
    """Product of two integer polynomials on packed exponents."""
    out = {}
    get = out.get
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


@functools.lru_cache(maxsize=8)
def _monomial_images(A, N):
    """Integer rows, over the degree-N monomials in x, of the images of the
    degree-N monomials y^e under y = A x, in column order.  Row k of A has
    its denominators cleared, and the image of y^e is that of y^(e - u_k)
    times y_k, for the first variable k of e: each row is the Fraction
    image times a positive integer."""
    nvars = len(A)
    monos = _Monomials(N, nvars)
    ys = [monos.form(y) for y in _linear_forms(A)]
    images = {(0,) * nvars: {0: 1}}
    for d in range(1, N + 1):
        for e in monomial_exponents(d, nvars):
            k = next(j for j, a in enumerate(e) if a)
            lower = e[:k] + (e[k] - 1,) + e[k + 1:]
            images[e] = _mul(images[lower], ys[k])
    return tuple(tuple(monos.row(images[e])) for e in monomial_exponents(N, nvars))


def build_profile(Ys, t, N, with_bases=False):
    """Exact jump profile of the weighted filtration on degree-N forms."""
    Ys, t = _validate_inputs(Ys, t, N)
    nvars = Ys[0].nvars
    norm = normalize(Ys)
    if norm is None:
        if len(Ys) == 1 and not with_bases:
            degrees = complete_intersection_degrees(Ys[0])
            if degrees is not None:
                return _complete_intersection_profile(degrees, Ys[0].n, t[0], N)
        return _generic_profile(Ys, t, N, with_bases)
    if with_bases:
        return _walk_profile(_image_walk(norm, t, N), nvars, N, True)
    # the dimension at a level is the number of monomials at or above it
    levels = _monomial_levels(norm, t, N)
    dims = itertools.accumulate(len(items) for _, items in levels)
    pairs = [(x, d) for (x, _), d in zip(levels, dims)]
    return _profile_from_pairs(pairs[::-1], nvars, N, pairs[-1][1])


def _complete_intersection_profile(degrees, n, w, N):
    """The profile of one complete intersection on P^n with generator
    degrees d = ``degrees`` and weight w: the piece at x in ((m-1)w, mw] is
    the degree-N part of I^m.

    For a regular sequence the associated graded ring of I is a polynomial
    ring over S/I, so I^k/I^(k+1) is a sum over |a| = k of copies of S/I
    shifted by a.d, and S/I has the Koszul resolution (Bruns-Herzog,
    Cohen-Macaulay Rings, 1.1 and 1.6):

        dim (I^m)_N = C(N+n, n) - sum_{k<m} sum_{|a|=k} HF_{S/I}(N - a.d),
        HF_{S/I}(j) = sum_{T subset of gens} (-1)^|T| C(j - d_T + n, n),

    a binomial with negative j - d_T being 0."""
    koszul = [((-1) ** r, sum(T)) for r in range(len(degrees) + 1)
              for T in itertools.combinations(degrees, r)]
    ambient = dim = dim_full(N, n)
    pairs = [(Fraction(0), ambient)]
    k = 0
    while dim > 0:
        for a in itertools.combinations_with_replacement(degrees, k):
            dim -= sum(sign * dim_full(N - sum(a) - shift, n)
                       for sign, shift in koszul)
        k += 1
        pairs.append((k * w, dim))
    return _profile_from_pairs(pairs, n + 1, N, ambient)


def _products(gens, b, N, cache):
    """(degree, product) for each choice of b_i generators of every
    subscheme i (with repetition), in the order of ``itertools.product``
    over the subschemes, skipping products of degree above N.  ``gens``
    holds each subscheme's generators as (degree, integer polynomial).
    Each product is one multiplication of a cached shorter one: the powers
    of one subscheme are keyed by their generator indices, and the products
    over the first subschemes by their prefix of b."""
    *head, m = b
    i = len(head)
    prefix = cache.get(tuple(head)) if head else [(0, {0: 1})]
    if prefix is None:
        prefix = cache[tuple(head)] = _products(gens, head, N, cache)
    powers = cache.setdefault(i, {(): (0, {0: 1})})
    factors = []
    for combo in itertools.combinations_with_replacement(range(len(gens[i])), m):
        for j in range(len(combo)):
            if combo[:j + 1] not in powers:
                d, p = powers[combo[:j]]
                gd, g = gens[i][combo[j]]
                powers[combo[:j + 1]] = (d + gd, _mul(p, g) if d + gd <= N else None)
        factors.append(powers[combo])
    # degree 0 is only the empty product, 1
    return [(d1 + d2, p2 if not d1 else p1 if not d2 else _mul(p1, p2))
            for d1, p1 in prefix for d2, p2 in factors if d1 + d2 <= N]


def _piece_rows(gens, b, monos, cache):
    """Integer rows spanning the degree-N piece of prod_i I_i^{b_i}: each
    product of b_i generators of every Y_i, times every monomial that
    brings it to degree N."""
    N = monos.degree
    for d, prod in _products(gens, b, N, cache):
        for shift in monos.shifts(N - d):
            yield monos.row(prod, shift)


def _walk(levels, rows, width):
    """Walk the values x > 0 of ``levels`` downwards, yielding (x, space)
    with ``space`` spanning the filtration piece at x: the sum of the
    pieces at the values >= x, so each value adds only ``rows(item)`` for
    its own items.  Stops once the piece is the whole space."""
    space = linalg.RowSpace(width)
    for x, items in levels:
        if x == 0 or space.rank == width:
            return
        for row in itertools.chain.from_iterable(map(rows, items)):
            if space.add(row) and space.rank == width:
                break
        yield x, space


def _product_walk(Ys, t, N):
    """The walk over the values t.b, each adding the rows of its own
    products, over the b with sum_i b_i mindeg(Y_i) <= N: for any other b
    the product of the powers I_i^{b_i} has no degree-N part."""
    mins = [min(g.degree for g in Y.generators) for Y in Ys]
    box = [b for b in itertools.product(*[range(N // m + 1) for m in mins])
           if sum(bi * m for bi, m in zip(b, mins)) <= N]
    monos = _Monomials(N, Ys[0].nvars)
    gens = [[(g.degree, monos.form(g)) for g in Y.generators] for Y in Ys]
    cache = {}
    return _walk(_levels(t, zip(box, box)),
                 lambda b: _piece_rows(gens, b, monos, cache), monos.width)


def _image_walk(norm, t, N):
    """The walk for ``norm = (groups, A)`` from ``normalize``: in y = A x the
    piece at x is spanned by the y^e at level t.o(e) >= x, so each value
    adds the images of its own monomials.  These are independent, so the
    full-rank stop fires only once all of them are in."""
    images = _monomial_images(norm[1], N)
    return _walk(_monomial_levels(norm, t, N), lambda i: (images[i],), len(images))


def _walk_profile(spaces, nvars, N, with_bases):
    """The profile read off a downward walk: the rank after each value, and
    with bases its reduced echelon form; the piece at 0 is the whole space."""
    ambient = dim_full(N, nvars - 1)
    steps = [(x, space.rank, space.rref() if with_bases else None)
             for x, space in spaces]
    steps.append((Fraction(0), ambient, linalg._unit_rows(ambient) if with_bases else None))
    steps.reverse()
    bases = [basis for _, _, basis in steps] if with_bases else None
    return _profile_from_pairs([(x, d) for x, d, _ in steps], nvars, N, ambient, bases)


def _generic_profile(Ys, t, N, with_bases=False):
    """The profile from the product-row walk, for subschemes that
    ``normalize`` rejects, and the oracle of those it accepts."""
    return _walk_profile(_product_walk(Ys, t, N), Ys[0].nvars, N, with_bases)


def mu_value(s, Ys, t):
    """Largest threshold x whose filtration subspace still contains s."""
    if not isinstance(s, HomogeneousForm) or s.is_zero:
        raise FormError("mu is defined for nonzero homogeneous forms")
    Ys, t = _validate_inputs(Ys, t, s.degree)
    if s.nvars != Ys[0].nvars:
        raise FormError("form and subschemes live in different ambient spaces")
    norm = normalize(Ys)
    if norm is None:
        return _generic_mu(s, Ys, t)
    return _walk_mu(s, _image_walk(norm, t, s.degree))


def _generic_mu(s, Ys, t):
    """mu from the product-row walk."""
    return _walk_mu(s, _product_walk(Ys, t, s.degree))


def _walk_mu(s, spaces):
    """The first value of a downward walk whose filtration piece holds s."""
    vec = _to_rows([s], s.nvars, s.degree)[0]
    for x, space in spaces:
        if vec in space:
            return x
    return Fraction(0)


def F_value(profile):
    """Normalized integral of the profile's dimension function."""
    total = Fraction(0)
    prev = Fraction(0)
    for x, d in profile.jumps:
        total += d * (x - prev)
        prev = x
    return total / profile.ambient_dim


def scale_check(Ys, t, u, N):
    """Both sides of the scaling identity F(u t) = u F(t), computed
    independently."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("scale factor must be positive")
    left = F_value(build_profile(Ys, [u * w for w in t], N))
    right = u * F_value(build_profile(Ys, t, N))
    return left, right


def adapted_basis(profile):
    """Greedy basis adapted to one profile: walking the levels deepest first,
    each row that is new to the deeper levels, with its level's jump as mu."""
    if profile.bases is None:
        raise ProfileError("profile was built without bases")
    kept = linalg.chain_basis(profile.bases, profile.ambient_dim)
    basis = AdaptedBasis(_to_forms([row for _, row in kept], profile.nvars,
                                   profile.degree),
                         tuple(profile.jumps[k][0] for k, _ in kept))
    if not is_adapted(basis, profile):
        raise ProfileError("internal error: greedy basis failed verification")
    return basis


def is_adapted(basis, profile):
    """Counting predicate: for every jump x, exactly dim F_x of the basis
    elements have mu >= x, and the elements are independent."""
    if len(basis.elements) != profile.ambient_dim:
        return False
    rows = _to_rows(basis.elements, profile.nvars, profile.degree)
    if linalg.rank(rows) != profile.ambient_dim:
        return False
    for x, d in profile.jumps:
        if sum(1 for m in basis.mu_values if m >= x) != d:
            return False
    return True


def common_adapted_basis(first, second):
    """One basis adapted to two profiles over the same graded piece.

    Returns the pair of AdaptedBasis views (same elements, mu values per
    profile).  Both profiles must carry bases.
    """
    for p in (first, second):
        if p.bases is None:
            raise ProfileError("profiles must be built with bases")
    if (first.nvars, first.degree, first.ambient_dim) != \
            (second.nvars, second.degree, second.ambient_dim):
        raise InconsistentProfilesError("profiles live on different graded pieces")
    cells = linalg.adapted_cells(first.bases, second.bases, first.ambient_dim)

    def mu_of(profile, dim):
        # the last level still holding the flag member of dimension dim
        return max(x for x, d in profile.jumps if d >= dim)

    forms = _to_forms([vec for _, _, vec in cells], first.nvars, first.degree)
    view_f = AdaptedBasis(forms, tuple(mu_of(first, a) for a, _, _ in cells))
    view_g = AdaptedBasis(forms, tuple(mu_of(second, b) for _, b, _ in cells))
    if not (is_adapted(view_f, first) and is_adapted(view_g, second)):
        raise InconsistentProfilesError("no common adapted basis verified; "
                                        "profiles are inconsistent")
    return view_f, view_g


def _is_empty(Y):
    """Whether Y has no point over the algebraic closure, decided exactly.

    Forms of positive degree that number at most n always meet in P^n.
    Otherwise let d_1 >= d_2 >= ... be the generator degrees: an empty Y
    has (I_Y)_D = S_D at D = d_1 + ... + d_{n+1} - n (the Macaulay bound,
    Lazard 1983), and an ideal holding every form of some degree has no
    zero, so one rank at D decides."""
    degrees = sorted((g.degree for g in Y.generators), reverse=True)
    if len(degrees) <= Y.n:
        return False
    D = sum(degrees[:Y.n + 1]) - Y.n
    return build_profile([Y], (1,), D).dim_at(1) == dim_full(D, Y.n)


def _power_terms(Y, N):
    """h^0 of the powers I_Y^m in degree N, m = 1.. first zero, all read
    off the profile of Y with weight 1.  An empty Y has the ideal sheaf
    O_X, so no term vanishes: that raises ValueError."""
    if _is_empty(Y):
        raise ValueError("subscheme %r is empty, so no term vanishes and beta "
                         "is not finite" % Y.label)
    return terms_until_zero(build_profile([Y], (1,), N).dim_at)


class BoundReport:
    def __init__(self, lhs, rhs, per_subscheme, hypotheses_met):
        self.lhs, self.rhs = lhs, rhs
        self.per_subscheme, self.hypotheses_met = per_subscheme, hypotheses_met

    @property
    def holds(self):
        return self.lhs >= self.rhs


def _hypotheses_met(Ys):
    """Every generator linear, and all of them independent (a regular
    sequence) with a nonempty common support: fewer than the variables."""
    gens = [g for Y in Ys for g in Y.generators]
    if any(g.degree != 1 for g in gens):
        return False
    return len(gens) < Ys[0].nvars and linalg.rank(_linear_rows(gens)) == len(gens)


def concavity_bound(Ys, betas, t, N):
    """Both sides of the lower bound F(t) >= min_i (1/beta_i) sum_m h^0(I_i^m) / h^0
    under the normalization sum_i beta_i t_i = 1.

    The inequality is only asserted by callers when hypotheses_met is set;
    the report always carries both sides.
    """
    Ys, t = _validate_inputs(Ys, t, N)
    betas = tuple(Fraction(b) for b in betas)
    if len(betas) != len(Ys):
        raise ValueError("one beta per subscheme required")
    if any(b <= 0 for b in betas):
        raise ValueError("betas must be positive")
    if sum(b * w for b, w in zip(betas, t)) != 1:
        raise ValueError("weights must satisfy sum_i beta_i t_i = 1")

    terms = [_power_terms(Y, N) for Y in Ys]
    lhs = F_value(build_profile(Ys, t, N))
    ambient = dim_full(N, Ys[0].nvars - 1)
    per = [Fraction(sum(ts), ambient) / b for ts, b in zip(terms, betas)]
    rhs = min(per)
    return BoundReport(lhs, rhs, tuple(per), _hypotheses_met(Ys))
