"""The per-candidate rank sweep that the one-pass generic profile replaced.

It is kept here, and only here, as a differential oracle: for every
candidate value t.b with b in the order box, it builds the generating family
of the threshold ideal from scratch (``filtration_ideal_gens``) and takes its
exact rank, or its echelon basis; mu is found by bisection over the same
candidates with an exact membership test.  Every rank, basis and membership
test comes from ``elimination_oracle``, so it shares no elimination code
with ``filtration._generic_profile``.
"""

import itertools
from fractions import Fraction

import elimination_oracle
from diophkit.filtration import _profile_from_pairs
from diophkit.graded import filtration_ideal_gens
from diophkit.polynomials import monomial_exponents
from diophkit.staircase import validate_weights
from fraction_oracle import monomial_rows


def candidate_values(Ys, t, N):
    """All t.b with b in the box b_i <= N // mindeg(Y_i)."""
    caps = [N // min(g.degree for g in Y.generators) for Y in Ys]
    return sorted({sum(w * v for w, v in zip(t, b))
                   for b in itertools.product(*[range(c + 1) for c in caps])})


def sweep_profile(Ys, t, N, with_bases=False):
    t = validate_weights(t)
    nvars = Ys[0].nvars
    columns = monomial_exponents(N, nvars)
    index = {e: i for i, e in enumerate(columns)}
    ambient = len(columns)
    pairs = []
    bases = [] if with_bases else None
    for x in candidate_values(Ys, t, N):
        x = Fraction(x)
        if x == 0:
            pairs.append((x, ambient))
            if with_bases:
                bases.append(tuple(monomial_rows(columns)))
        else:
            rows = [f.coeff_vector(index)
                    for f in filtration_ideal_gens(Ys, t, x, N)]
            if with_bases:
                piece = elimination_oracle.rref(rows)
                pairs.append((x, len(piece)))
                bases.append(piece)
            else:
                pairs.append((x, elimination_oracle.rank(rows)))
        if pairs[-1][1] == 0:
            break
    return _profile_from_pairs(pairs, nvars, N, ambient, bases)


def sweep_mus(forms, Ys, t):
    """mu of each form (all of one degree N) by bisection over the
    candidates; the echelon basis at each candidate is built once."""
    t = validate_weights(t)
    N = forms[0].degree
    candidates = candidate_values(Ys, t, N)
    columns = {e: i for i, e in enumerate(monomial_exponents(N, Ys[0].nvars))}
    bases = {}

    def member(vec, x):
        if x == 0:
            return True
        if x not in bases:
            bases[x] = elimination_oracle.rref(
                [f.coeff_vector(columns) for f in filtration_ideal_gens(Ys, t, x, N)])
        return elimination_oracle.in_span(vec, bases[x])

    def mu(vec):
        lo, hi = 0, len(candidates) - 1
        if member(vec, candidates[hi]):
            return candidates[hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if member(vec, candidates[mid]):
                lo = mid
            else:
                hi = mid
        return candidates[lo]

    return [mu(s.coeff_vector(columns)) for s in forms]
