"""Heights, local norms and proximity for rational points.

Points carry canonical integer coordinates (coprime, first nonzero entry
positive), so the height is log max |x_i| and every local computation
reduces to integer arithmetic.  Local contributions are kept as exact
rational norm values Q_v; logs appear only in reporting, which keeps
global Weil norms and proximity sums exact.

The local value of a subscheme cut by forms phi_j at a point off its
support is min_j of max_i ||x_i||_v^{deg phi_j} / ||phi_j(x)||_v, written
multiplicatively.
"""

import math
from fractions import Fraction

from .polynomials import _is_count

__all__ = [
    "PlaceError",
    "SupportError",
    "Place",
    "PLACE_INF",
    "parse_place",
    "PlaceSet",
    "ProjectivePoint",
    "ord_p",
    "height_norm",
    "height",
    "weil_norm",
    "global_weil_norm",
    "weil",
    "proximity_norms",
    "proximity",
]


class PlaceError(ValueError):
    pass


class SupportError(ValueError):
    pass


def _primes_dividing(n):
    """The distinct primes dividing the integer n >= 1, in increasing
    order, by trial division."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        yield n


def _is_prime(p):
    return p >= 2 and next(_primes_dividing(p)) == p


class Place:
    """A place of the rationals: a prime, or None for the archimedean one.
    Places are immutable and hashable; inf sorts first, then the primes."""

    def __init__(self, p=None):
        if p is not None:
            if not isinstance(p, int) or not _is_prime(p):
                raise PlaceError("finite places are indexed by primes, got %r" % (p,))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("places are immutable")

    def __eq__(self, other):
        return type(other) is Place and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __lt__(self, other):
        return (self.p or 0) < (other.p or 0)

    @property
    def is_infinite(self):
        return self.p is None

    def __str__(self):
        return "inf" if self.p is None else str(self.p)

    def __repr__(self):
        return "Place(%s)" % self


PLACE_INF = Place()

_INF_NAMES = {"inf", "infty", "infinity", "oo"}


def parse_place(text):
    text = text.strip().lower()
    if text in _INF_NAMES:
        return PLACE_INF
    try:
        return Place(int(text))
    except (ValueError, PlaceError):
        raise PlaceError("not a place: %r" % text) from None


class PlaceSet:
    """Finite set of places for proximity sums; must contain inf."""

    def __init__(self, places):
        seen = {Place(p) if not isinstance(p, Place) else p for p in places}
        if PLACE_INF not in seen:
            raise PlaceError("a place set must contain the infinite place")
        self.places = tuple(sorted(seen))

    @classmethod
    def from_string(cls, text):
        return cls(parse_place(part) for part in text.split(",") if part.strip())

    def __iter__(self):
        return iter(self.places)

    def __contains__(self, place):
        return place in self.places

    def __len__(self):
        return len(self.places)

    def __eq__(self, other):
        return isinstance(other, PlaceSet) and self.places == other.places

    def __hash__(self):
        return hash(self.places)

    def __repr__(self):
        return "PlaceSet(%s)" % ",".join(str(p) for p in self.places)


class ProjectivePoint:
    """Rational projective point in canonical coprime integer coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        vals = [Fraction(c) for c in coords]
        if not vals or all(v == 0 for v in vals):
            raise ValueError("projective coordinates cannot all vanish")
        scale = math.lcm(*(v.denominator for v in vals))
        ints = [int(v * scale) for v in vals]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        lead = next(c for c in ints if c != 0)
        if lead < 0:
            ints = [-c for c in ints]
        self.coords = tuple(ints)

    @classmethod
    def from_string(cls, text):
        parts = text.split(":")
        if len(parts) < 2:
            raise ValueError("point syntax is a:b:... , got %r" % text)
        coords = []
        for i, part in enumerate(map(str.strip, parts)):
            try:
                coords.append(Fraction(part))
            except ZeroDivisionError:
                raise ValueError("coordinate %d of point %r has a zero denominator: %r"
                                 % (i, text, part)) from None
            except ValueError:
                raise ValueError("coordinate %d of point %r is not a rational number: %r"
                                 % (i, text, part)) from None
        return cls(coords)

    @property
    def nvars(self):
        return len(self.coords)

    def __str__(self):
        return ":".join(str(c) for c in self.coords)

    def __repr__(self):
        return "ProjectivePoint(%s)" % self

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)


def ord_p(q, p):
    if not _is_count(p, 2) or not _is_prime(p):
        raise ValueError("ord_p needs a prime p, got %r" % (p,))
    return _ord(q, p)


def _ord(q, p):
    # ord_p for a prime that a Place has already checked
    q = Fraction(q)
    if q == 0:
        raise ValueError("ord of zero is undefined")
    n = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        n += 1
    while den % p == 0:
        den //= p
        n -= 1
    return n


def height_norm(P):
    """Multiplicative height: max |x_i| over canonical coordinates."""
    return max(abs(c) for c in P.coords)


def height(P):
    return math.log(height_norm(P))


def _generator_values(Y, P):
    if Y.nvars != P.nvars:
        raise ValueError("point and subscheme live in different spaces")
    vals = [(g, g.evaluate(P.coords)) for g in Y.generators]
    if all(v == 0 for _, v in vals):
        raise SupportError("point lies on the support of %r" % Y.label)
    return [(g, v) for g, v in vals if v != 0]


def weil_norm(Y, P, place):
    """Exact local norm Q_v with log Q_v the Weil function value at P."""
    vals = _generator_values(Y, P)
    if place.is_infinite:
        m = Fraction(height_norm(P))
        return min(m ** g.degree / abs(v) for g, v in vals)
    p = place.p
    return Fraction(p) ** min(_ord(v, p) for _, v in vals)


def weil(Y, P, place):
    return math.log(weil_norm(Y, P, place))


def proximity_norms(Y, P, S):
    return {place: weil_norm(Y, P, place) for place in S}


def proximity(Y, P, S):
    return sum(math.log(q) for q in proximity_norms(Y, P, S).values())


def relevant_places(Y, P):
    """Places where the local value of Y at P can differ from zero: the
    archimedean one plus every prime dividing a generator value."""
    vals = [v for _, v in _generator_values(Y, P)]
    places = {PLACE_INF}
    for v in vals:
        for n in (v.numerator, v.denominator):
            places.update(Place(p) for p in _primes_dividing(abs(n)))
    return tuple(sorted(places))


def global_weil_norm(Y, P):
    """Product of the local norms over every place; for a hypersurface
    this equals height_norm(P) ** degree by the product formula."""
    total = Fraction(1)
    for place in relevant_places(Y, P):
        total *= weil_norm(Y, P, place)
    return total
