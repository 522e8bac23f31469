"""The Fraction routes that integer rows and ideal membership replaced.

They are kept here, and only here, as differential oracles:

* ``substitute`` replaces each variable of a form by a form, with
  Fraction polynomial products;
* ``monomial_rows`` maps every monomial through ``substitute``, the old
  way to write y^e in the x of y = A x;
* ``common_support_dim`` is the support catalog that restricts each
  nonlinear generator to a ``linalg.nullspace`` basis of the linear ones
  by substitution, where ``graded.common_support_dim`` asks whether the
  generator lies in the ideal of the linear ones (``mu_value``);
* ``piece_rows`` multiplies generators as Fraction ``HomogeneousForm``s
  and clears the denominators of each product;
* ``adapted_cells`` puts the g's in f-coordinates through a Fraction
  Gauss-Jordan inverse, reduces them with Fraction multipliers and takes
  each cell's reduced echelon form by Gauss-Jordan
  (``elimination_oracle``).

The integer routes give each row up to one positive scalar, which changes
no span, no primitive row and no reduced echelon basis.
"""

import itertools
import math

from diophkit import linalg
from diophkit.graded import CatalogError, _family, _linear_rows, _power_products
from diophkit.linalg import chain_basis
from diophkit.polynomials import (FormError, HomogeneousForm, _to_forms,
                                  monomial_exponents)
from elimination_oracle import inverse, rref


def substitute(form, replacements):
    """Substitute each variable of form by a form; all replacements must
    share one degree and one variable count."""
    reps = list(replacements)
    if len(reps) != form.nvars:
        raise FormError("need one replacement form per variable")
    new_nvars = {f.nvars for f in reps}
    rep_deg = {f.degree for f in reps}
    if len(new_nvars) != 1 or len(rep_deg) != 1:
        raise FormError("replacement forms must share degree and variable count")
    m = new_nvars.pop()
    d0 = rep_deg.pop()
    total = HomogeneousForm.zero(m, form.degree * d0)
    for exps, coeff in form.terms.items():
        piece = HomogeneousForm.one(m).scale(coeff)
        for f, e in zip(reps, exps):
            for _ in range(e):
                piece = piece * f
        total = total + piece
    return total


def linear_forms(rows):
    """Row k as the linear form sum_j rows[k][j] x_j; inverse of
    ``graded._linear_rows``."""
    return _to_forms([row[::-1] for row in rows], len(rows[0]), 1)


def restrict(form, basis_vectors):
    """form on the span of basis_vectors, in their coordinates."""
    return substitute(form, linear_forms(list(zip(*basis_vectors))))


def common_support_dim(Ys):
    """``graded.common_support_dim`` by substitution: the nonlinear
    generators restricted to the solution space of the linear ones."""
    Ys = _family(Ys)
    nvars = Ys[0].nvars
    linear = []
    nonlinear = []
    for Y in Ys:
        for g in Y.generators:
            (linear if g.degree == 1 else nonlinear).append(g)

    basis = (linalg.nullspace(_linear_rows(linear)) if linear
             else linalg._unit_rows(nvars))
    if not basis:
        return None
    s = len(basis)  # dimension of the solution cone, >= 1 here

    restrictions = [restrict(f, basis) for f in nonlinear]
    live = [r for r in restrictions if not r.is_zero]
    if not live:
        return s - 1
    if len(live) > 1:
        raise CatalogError("cannot decide dimensions with several effective "
                           "nonlinear hypersurfaces")
    if s - 1 == 0:
        return None  # the single point misses the hypersurface
    return s - 2


def monomial_rows(monos, A=None):
    """Coefficient rows over the monomials ``monos`` of each monomial y^e in
    ``monos``, written in the variables x where y = A x (y = x for None)."""
    index = {e: i for i, e in enumerate(monos)}
    forms = [HomogeneousForm.monomial(e) for e in monos]
    if A is not None:
        images = linear_forms(A)
        forms = [substitute(f, images) for f in forms]
    return [f.coeff_vector(index) for f in forms]


def piece_rows(Ys, b, N):
    """Integer rows spanning the degree-N piece of prod_i I_i^{b_i}, from
    Fraction products of the generators, in the order of the integer
    route."""
    nvars = Ys[0].nvars
    index = {e: i for i, e in enumerate(monomial_exponents(N, nvars))}
    one = HomogeneousForm.one(nvars)
    factor_lists = [_power_products(Y, bi) for Y, bi in zip(Ys, b)]
    for combo in itertools.product(*factor_lists):
        prod = math.prod(combo, start=one)
        gap = N - prod.degree
        if gap < 0:
            continue
        scale = math.lcm(*[c.denominator for c in prod.terms.values()])
        terms = [(e, int(c * scale)) for e, c in prod.terms.items()]
        for shift in monomial_exponents(gap, nvars):
            row = [0] * len(index)
            for e, c in terms:
                row[index[tuple(a + k for a, k in zip(e, shift))]] = c
            yield row


def adapted_cells(chain_f, chain_g, width):
    """``linalg.adapted_cells`` through a Fraction inverse of the f-basis."""
    inv = inverse([row for _, row in reversed(chain_basis(chain_f, width))])
    owner = {}
    reduced = []
    for _, g in chain_basis(chain_g, width):
        vec = [sum(a * row[k] for a, row in zip(g, inv) if a) for k in range(width)]
        vec += g
        while True:
            piv = next(k for k, a in enumerate(vec) if a)
            if piv not in owner:
                break
            red = reduced[owner[piv]][1]
            f = vec[piv] / red[piv]
            vec = [a - f * b if b else a for a, b in zip(vec, red)]
        owner[piv] = len(reduced)
        reduced.append((piv, vec))
    cells = []
    for i in range(width):
        deep = owner[i]
        rows = [vec[width:] + [int(m == deep)]
                for m, (piv, vec) in enumerate(reduced[:deep + 1]) if piv >= i]
        pick = next(row[:width] for row in rref(rows) if row[width])
        cells.append((width - i, deep + 1, pick))
    return tuple(cells)

