"""The Fraction routes that integer rows replaced on the profile paths.

They are kept here, and only here, as differential oracles:

* ``monomial_rows`` maps every monomial through
  ``HomogeneousForm.substitute``, the old way to write y^e in the x of
  y = A x;
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

from diophkit.graded import _linear_forms, _power_products
from diophkit.linalg import chain_basis
from diophkit.polynomials import HomogeneousForm, monomial_exponents
from elimination_oracle import inverse, rref


def monomial_rows(monos, A=None):
    """Coefficient rows over the monomials ``monos`` of each monomial y^e in
    ``monos``, written in the variables x where y = A x (y = x for None)."""
    index = {e: i for i, e in enumerate(monos)}
    forms = [HomogeneousForm.monomial(e) for e in monos]
    if A is not None:
        images = _linear_forms(A)
        forms = [f.substitute(images) for f in forms]
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

