"""Intersection theory on the plane blown up in up to three general points.

Divisor classes live in the lattice spanned by the pullback H of a line
and the exceptional classes E1..Ek (k <= 3).  In this range the effective
cone is spanned by an explicit finite list of classes, so nefness, Seshadri
constants and section counts reduce to finitely many intersection numbers.

Section counts follow the usual reduction: strip base components C with
D.C < 0 and C^2 < 0, then read off chi on the nef chamber.  Vanishing in
higher degree holds there because D - K is ample, so the count is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .graded import terms_until_zero
from .polynomials import _is_count

__all__ = [
    "SurfaceError",
    "NotNefError",
    "UnsupportedClassError",
    "PicardClass",
    "parse_class",
    "format_class",
    "SurfaceModel",
    "SeshadriReport",
    "ClosedFormReport",
    "ComparisonReport",
    "beta_closed_form",
    "beta_surface_truncated",
    "h0_terms",
    "compare_beta_seshadri",
    "three_point_blowup",
    "weighted_lines_class",
    "strict_transform_line",
]

MAX_BLOWUPS = 3
PROBE_STEP = Fraction(1, 100)  # seshadri_report's witness is for gamma + this


class SurfaceError(ValueError):
    pass


class NotNefError(SurfaceError):
    pass


class UnsupportedClassError(SurfaceError):
    pass


class PicardClass:
    """a*H + sum_i e[i]*E_{i+1}; e[i] is the signed E-coefficient."""

    def __init__(self, a, e):
        self.a, self.e = Fraction(a), tuple(Fraction(c) for c in e)
        if len(self.e) > MAX_BLOWUPS:
            raise UnsupportedClassError("at most %d exceptional classes" % MAX_BLOWUPS)

    def __eq__(self, other):
        return type(other) is PicardClass and vars(self) == vars(other)

    @property
    def k(self):
        return len(self.e)

    @property
    def is_integral(self):
        return self.a.denominator == 1 and all(c.denominator == 1 for c in self.e)

    @property
    def is_zero(self):
        return self.a == 0 and all(c == 0 for c in self.e)

    def __add__(self, other):
        self._match(other)
        return PicardClass(self.a + other.a,
                           tuple(x + y for x, y in zip(self.e, other.e)))

    def __sub__(self, other):
        self._match(other)
        return PicardClass(self.a - other.a,
                           tuple(x - y for x, y in zip(self.e, other.e)))

    def __neg__(self):
        return PicardClass(-self.a, tuple(-c for c in self.e))

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return PicardClass(self.a * s, tuple(c * s for c in self.e))

    __rmul__ = __mul__

    def dot(self, other):
        """Intersection number; H^2 = 1, E_i^2 = -1, mixed terms vanish."""
        self._match(other)
        return self.a * other.a - sum(x * y for x, y in zip(self.e, other.e))

    def _match(self, other):
        if not isinstance(other, PicardClass) or len(self.e) != len(other.e):
            raise SurfaceError("classes live on different surfaces")

    def pad(self, k):
        if k < len(self.e):
            raise SurfaceError("cannot drop exceptional coefficients")
        return PicardClass(self.a, self.e + (Fraction(0),) * (k - len(self.e)))

    def __str__(self):
        return format_class(self)

    def __repr__(self):
        return "PicardClass(%r)" % format_class(self)


_CLASS_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*(?P<sym>H|E(?P<idx>[1-9]\d*))\s*")


def parse_class(text, k=None):
    """Parse 'aH - b1E1 - b2E2' style input into a PicardClass.

    Coefficients may be rationals like 7/2; a bare symbol means
    coefficient one.  k fixes the number of exceptional classes, otherwise
    the largest index used decides.
    """
    text = text.strip()
    if not text:
        raise SurfaceError("empty divisor class")
    if text == "0":
        return PicardClass(0, (Fraction(0),) * (k or 0))
    a = Fraction(0)
    coeffs = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _CLASS_TERM.match(text, pos)
        if not m:
            raise SurfaceError("cannot parse divisor class near %r" % text[pos:])
        sign = m.group("sign")
        if sign is None and not first:
            raise SurfaceError("missing sign between terms in %r" % text)
        value = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if sign == "-":
            value = -value
        if m.group("sym") == "H":
            a += value
        else:
            idx = int(m.group("idx"))
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + value
        pos = m.end()
        first = False
    width = max(coeffs) if coeffs else 0
    if k is not None:
        if width > k:
            raise SurfaceError("class uses E%d but the surface has k = %d" % (width, k))
        width = k
    return PicardClass(a, tuple(coeffs.get(i, Fraction(0)) for i in range(1, width + 1)))


def _fmt_coef(c):
    return str(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def format_class(D):
    parts = []
    if D.a != 0:
        mag = abs(D.a)
        body = "H" if mag == 1 else _fmt_coef(mag) + "H"
        parts.append(("-" if D.a < 0 else "") + body)
    for i, c in enumerate(D.e, start=1):
        if c == 0:
            continue
        mag = abs(c)
        body = "E%d" % i if mag == 1 else "%sE%d" % (_fmt_coef(mag), i)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


class SeshadriReport:
    def __init__(self, gamma, tight, nef_at_gamma, fail_gamma, fail_witness):
        self.gamma, self.tight, self.nef_at_gamma = gamma, tight, nef_at_gamma
        self.fail_gamma, self.fail_witness = fail_gamma, fail_witness


class ClosedFormReport:
    def __init__(self, beta, xi, A_self, A_dot_D):
        self.beta, self.xi, self.A_self, self.A_dot_D = beta, xi, A_self, A_dot_D


class ComparisonReport:
    def __init__(self, beta, epsilon, seshadri_side):
        self.beta, self.epsilon, self.seshadri_side = beta, epsilon, seshadri_side

    @property
    def holds(self):
        return self.beta >= self.seshadri_side


class SurfaceModel:
    """Blow-up of the plane in k general points, 0 <= k <= 3."""

    def __init__(self, k):
        if not _is_count(k) or k > MAX_BLOWUPS:
            raise UnsupportedClassError("k must be an integer in 0..%d" % MAX_BLOWUPS)
        self.k = k
        self.H = PicardClass(1, (Fraction(0),) * k)
        self.exceptional = tuple(
            PicardClass(0, tuple(Fraction(1) if j == i else Fraction(0)
                                 for j in range(k)))
            for i in range(k))
        self.canonical = PicardClass(-3, (Fraction(1),) * k)
        neg = list(self.exceptional)
        for i in range(k):
            for j in range(i + 1, k):
                neg.append(self.H - self.exceptional[i] - self.exceptional[j])
        self.neg_curves = tuple(neg)
        # extremal rays of the curve cone; for k = 1 the ruling fiber H - E1
        # is extremal but not negative, for k = 0 the only ray is H itself
        extra = []
        if k == 1:
            extra.append(self.H - self.exceptional[0])
        extra.append(self.H)
        self.test_curves = self.neg_curves + tuple(extra)
        self.ample_probe = PicardClass(k + 1, (Fraction(-1),) * k)

    def E(self, i):
        if not 1 <= i <= self.k:
            raise SurfaceError("E%d does not exist for k = %d" % (i, self.k))
        return self.exceptional[i - 1]

    def _check(self, D):
        if not isinstance(D, PicardClass) or D.k != self.k:
            raise SurfaceError("class does not live on this surface")
        return D

    def intersect(self, D1, D2):
        return self._check(D1).dot(self._check(D2))

    def chi(self, D):
        self._check(D)
        return D.dot(D - self.canonical) / 2 + 1

    def is_nef(self, D):
        """(True, None) or (False, first violating extremal curve class)."""
        self._check(D)
        for C in self.test_curves:
            if D.dot(C) < 0:
                return False, C
        return True, None

    def is_ample(self, D):
        self._check(D)
        return all(D.dot(C) > 0 for C in self.test_curves)

    def zariski_h0(self, D):
        """Exact number of global sections of an integral class."""
        self._check(D)
        if not D.is_integral:
            raise UnsupportedClassError("section counts need integral classes")
        # every negative curve C has C.ample_probe >= 1, so each stripped
        # component lowers the integer D.ample_probe and the loop ends
        while True:
            if D.is_zero:
                return 1
            if D.dot(self.ample_probe) <= 0 or any(
                    C.dot(C) >= 0 and D.dot(C) < 0 for C in self.test_curves):
                return 0
            fixed = next((C for C in self.neg_curves if D.dot(C) < 0), None)
            if fixed is None:
                return int(self.chi(D))
            D = D - fixed

    def seshadri(self, A, D):
        """sup of gamma with A - gamma*D nef, for nef A; math.inf if the
        cone imposes no constraint."""
        self._check(A)
        self._check(D)
        ok, witness = self.is_nef(A)
        if not ok:
            raise NotNefError("reference class is not nef (fails on %s)" % witness)
        ratios = [Fraction(A.dot(C), D.dot(C))
                  for C in self.test_curves if D.dot(C) > 0]
        return min(ratios) if ratios else math.inf

    def seshadri_report(self, A, D):
        gamma = self.seshadri(A, D)
        if isinstance(gamma, float) and math.isinf(gamma):
            return SeshadriReport(math.inf, (), True, None, None)
        tight = tuple(C for C in self.test_curves
                      if D.dot(C) > 0 and A.dot(C) == gamma * D.dot(C))
        nef_at, _ = self.is_nef(A - gamma * D)
        fail_gamma = gamma + PROBE_STEP
        _, witness = self.is_nef(A - fail_gamma * D)
        return SeshadriReport(gamma, tight, nef_at, fail_gamma, witness)


def beta_closed_form(model, A, D):
    """Closed form for the expansion coefficient when D^2 = 0.

    Requires A nef with A^2 > 0 and A.D > 0.  Then with xi = A^2 / (2 A.D)
    the value is (2/3 xi A^2 - 1/3 (A.D) xi^2) / A^2 = A^2 / (4 A.D).
    """
    AD = model.intersect(A, D)
    A2 = model.intersect(A, A)
    if model.intersect(D, D) != 0:
        raise UnsupportedClassError("closed form needs D^2 = 0")
    if AD <= 0:
        raise UnsupportedClassError("closed form needs A.D > 0")
    ok, witness = model.is_nef(A)
    if not ok or A2 <= 0:
        raise NotNefError("closed form needs A nef and big")
    xi = Fraction(A2, 2 * AD)
    beta = (Fraction(2, 3) * xi * A2 - Fraction(1, 3) * AD * xi * xi) / A2
    assert beta == Fraction(A2, 4 * AD)
    return ClosedFormReport(beta, xi, A2, AD)


def h0_terms(model, A, D, N):
    """Section counts h^0(N*A - m*D) for m = 1, 2, ... up to the first zero."""
    if not _is_count(N, 1):
        raise ValueError("N must be a positive integer")
    # the rays of the nef cone for k <= 3; when D.P > 0 for one of them,
    # (N A - m D).P < 0 for m large, so a zero term comes
    H, E = model.H, model.exceptional
    rays = [H] + [H - e for e in E]
    if model.k == 3:
        rays.append(2 * H - E[0] - E[1] - E[2])
    if all(D.dot(P) <= 0 for P in rays):
        raise UnsupportedClassError("-D is pseudo-effective, so no term vanishes")
    return terms_until_zero(lambda m: model.zariski_h0(N * A - m * D))


def beta_surface_truncated(model, A, D, N):
    """Truncated expansion sum_m h^0(N A - m D) / (N h^0(N A)), exact."""
    return _beta_surface_terms(model, A, D, N)[0]


def _beta_surface_terms(model, A, D, N):
    """(``beta_surface_truncated``, ``h0_terms``), each count made once."""
    denom = N * model.zariski_h0(N * A)
    if denom == 0:
        raise UnsupportedClassError("reference class has no sections")
    terms = h0_terms(model, A, D, N)
    return Fraction(sum(terms), denom), terms


def compare_beta_seshadri(model, A, D, r, n, N=None):
    """Both sides of beta >= (r / (n+1)) * seshadri for codimension r in
    dimension n.  Uses the closed form when D^2 = 0, otherwise the
    truncation at level N."""
    if model.intersect(D, D) == 0:
        beta = beta_closed_form(model, A, D).beta
    else:
        if N is None:
            raise ValueError("need a truncation level N when D^2 != 0")
        beta = beta_surface_truncated(model, A, D, N)
    eps = model.seshadri(A, D)
    if isinstance(eps, float) and math.isinf(eps):
        raise UnsupportedClassError("Seshadri constant is unbounded here")
    return ComparisonReport(beta, eps, Fraction(r, n + 1) * eps)


def three_point_blowup():
    return SurfaceModel(3)


def weighted_lines_class(l):
    """l*D1 + l*D2 + l*D3 + D4 for four general lines, three blown-up
    points P_i in L_i: equals (3l+1)H - l(E1+E2+E3)."""
    if not _is_count(l, 1):
        raise ValueError("weight must be a positive integer")
    return PicardClass(3 * l + 1, (Fraction(-l),) * 3)


def strict_transform_line(i):
    """Strict transform H - E_i of the line through the i-th point."""
    model = three_point_blowup()
    return model.H - model.E(i)
