"""Truncated expansion coefficients of a polarized subscheme.

For Y inside P^{n} and the degree-d polarization, the level-N value is

    sum_{m >= 1} h^0(O(dN) . I_Y^m) / (N h^0(O(dN)))

with the sum cut off at the first vanishing term; the terms are
nonincreasing in m, so nothing is lost.  Everything is exact.  When the
generators of Y form a regular sequence (a hypersurface, or a complete
intersection such as a plane and a quadric), the terms come in closed
form from the Koszul complex, with no elimination; see ``filtration``.
"""

from fractions import Fraction

from .filtration import _power_terms
from .graded import common_support_dim, dim_full
from .polynomials import _is_count

__all__ = [
    "BetaReport",
    "CrosscheckReport",
    "ConvergenceRow",
    "ideal_power_terms",
    "beta_truncated",
    "beta_blowup_crosscheck",
    "beta_convergence",
]


class BetaReport:
    def __init__(self, N, numerator, denominator, value, terms):
        self.N, self.numerator, self.denominator = N, numerator, denominator
        self.value, self.terms = value, terms


class CrosscheckReport:
    def __init__(self, terms, blowup_terms, value):
        self.terms, self.blowup_terms, self.value = terms, blowup_terms, value

    @property
    def match(self):
        return self.terms == self.blowup_terms


class ConvergenceRow:
    def __init__(self, N, numerator, denominator, value, min_so_far):
        self.N, self.numerator, self.denominator = N, numerator, denominator
        self.value, self.min_so_far = value, min_so_far


def _validate_level(d, N):
    if not _is_count(d, 1):
        raise ValueError("polarization degree must be a positive integer")
    if not _is_count(N, 1):
        raise ValueError("level N must be a positive integer")


def ideal_power_terms(Y, degree):
    """h^0 of the powers I_Y^m in the given degree, m = 1.. first zero.
    An empty Y raises ValueError: no term vanishes and beta is not finite."""
    return _power_terms(Y, degree)


def beta_truncated(Y, d, N):
    _validate_level(d, N)
    terms = ideal_power_terms(Y, d * N)
    denominator = N * dim_full(d * N, Y.n)
    numerator = sum(terms)
    return BetaReport(N, numerator, denominator,
                      Fraction(numerator, denominator), terms)


def beta_blowup_crosscheck(Y, d, N):
    """Same terms computed twice for a reduced point in the plane: once in
    the graded ring, once as section counts of d N H - m E on the one-point
    blow-up.  They must agree term by term."""
    from .surface import SurfaceModel, h0_terms

    _validate_level(d, N)
    if Y.nvars != 3:
        raise ValueError("crosscheck is for points in the plane (three variables)")
    if any(g.degree != 1 for g in Y.generators):
        raise ValueError("crosscheck needs a linearly cut (reduced) point")
    if common_support_dim([Y]) != 0:
        raise ValueError("generators must cut a single reduced point")
    terms = ideal_power_terms(Y, d * N)
    model = SurfaceModel(1)
    blowup = h0_terms(model, model.H, model.E(1), d * N)
    denominator = N * dim_full(d * N, Y.n)
    return CrosscheckReport(terms, blowup,
                            Fraction(sum(terms), denominator))


def beta_convergence(Y, d, N_max):
    if not _is_count(N_max, 1):
        raise ValueError("N_max must be a positive integer")
    rows = []
    running = None
    for N in range(1, N_max + 1):
        rep = beta_truncated(Y, d, N)
        running = rep.value if running is None else min(running, rep.value)
        rows.append(ConvergenceRow(N, rep.numerator, rep.denominator,
                                   rep.value, running))
    return rows
