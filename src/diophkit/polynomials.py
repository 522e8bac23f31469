"""Sparse homogeneous forms in Q[x0..xn] with exact coefficients.

Forms are dictionaries {exponent tuple: Fraction}.  The zero form keeps its
nominal degree so that graded arithmetic stays total; constructors that feed
ideal generators reject it separately.  The string format is the one used on
the command line: terms like ``x0^2*x1``, ``3/2*x1*x2``, ``-x2^3`` joined by
``+`` and ``-``.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "FormError",
    "ParseError",
    "HomogeneousForm",
    "monomial_exponents",
    "parse_form",
]


class FormError(ValueError):
    pass


class ParseError(FormError):
    pass


def _is_count(value, least=0):
    """Whether value is an int, not a bool, and at least ``least``."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= least


def monomial_exponents(degree, nvars):
    """All exponent tuples of the given total degree, sorted lexicographically."""
    if not _is_count(degree):
        raise ValueError("degree must be a nonnegative integer")
    if not _is_count(nvars, 1):
        raise ValueError("need at least one variable")

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    return sorted(rec(degree, nvars))


def _to_rows(forms, nvars, degree):
    """The coefficient rows of degree-``degree`` forms in nvars variables,
    one column per monomial in the order of ``monomial_exponents``."""
    index = {e: i for i, e in enumerate(monomial_exponents(degree, nvars))}
    return [f.coeff_vector(index) for f in forms]


def _to_forms(rows, nvars, degree):
    """The forms with the given coefficient rows; inverse of _to_rows."""
    columns = monomial_exponents(degree, nvars)
    return tuple(HomogeneousForm(nvars, degree,
                                 {columns[j]: c for j, c in enumerate(row) if c})
                 for row in rows)


class HomogeneousForm:
    """A homogeneous polynomial over Q, stored sparsely."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms):
        if not _is_count(nvars, 1):
            raise FormError("need at least one variable")
        if not _is_count(degree):
            raise FormError("degree must be a nonnegative integer")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise FormError(f"exponent tuple {exps} does not have {nvars} entries")
            if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
                raise FormError(f"bad exponent tuple {exps}")
            if sum(exps) != degree:
                raise FormError(f"term {exps} breaks homogeneity of degree {degree}")
            c = Fraction(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.nvars = nvars
        self.degree = degree
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(exps)
        return cls(len(exps), sum(exps), {exps: Fraction(coeff)})

    @classmethod
    def zero(cls, nvars, degree):
        return cls(nvars, degree, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, 0, {(0,) * nvars: Fraction(1)})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise FormError("forms live in different variable counts")

    def __add__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree:
            raise FormError("cannot add forms of different degrees")
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return HomogeneousForm(self.nvars, self.degree, merged)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return HomogeneousForm(self.nvars, self.degree,
                               {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return HomogeneousForm(self.nvars, self.degree + other.degree, out)

    def __pow__(self, k):
        if not _is_count(k):
            raise FormError("exponent must be a nonnegative integer")
        result = HomogeneousForm.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def evaluate(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.nvars:
            raise FormError("wrong number of coordinates")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for c, e in zip(coords, exps):
                if e:
                    term *= c ** e
            total += term
        return total

    def substitute(self, replacements):
        """Substitute each variable by a form; all replacements must share
        one degree and one variable count."""
        reps = list(replacements)
        if len(reps) != self.nvars:
            raise FormError("need one replacement form per variable")
        new_nvars = {f.nvars for f in reps}
        rep_deg = {f.degree for f in reps}
        if len(new_nvars) != 1 or len(rep_deg) != 1:
            raise FormError("replacement forms must share degree and variable count")
        m = new_nvars.pop()
        d0 = rep_deg.pop()
        total = HomogeneousForm.zero(m, self.degree * d0)
        for exps, coeff in self.terms.items():
            piece = HomogeneousForm.one(m).scale(coeff)
            for f, e in zip(reps, exps):
                for _ in range(e):
                    piece = piece * f
            total = total + piece
        return total

    def coeff_vector(self, column_index):
        """Coefficients against a fixed monomial ordering {exps: column}."""
        vec = [Fraction(0)] * len(column_index)
        for e, c in self.terms.items():
            vec[column_index[e]] = c
        return tuple(vec)

    def to_string(self):
        if self.is_zero:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                lead = str(mag)
            elif mag == 1:
                lead = body
            else:
                lead = f"{mag}*{body}"
            if not pieces:
                pieces.append(lead if coeff > 0 else f"-{lead}")
            else:
                pieces.append(f"+ {lead}" if coeff > 0 else f"- {lead}")
        return " ".join(pieces)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.nvars, self.degree, self.terms) == \
            (other.nvars, other.degree, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return f"HomogeneousForm({self.to_string()!r})"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<pow>\^|\*\*)"
    r"|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        out.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    return out


def parse_form(text, nvars=None):
    """Parse a sparse polynomial string into a HomogeneousForm.

    Within a term, factors may be joined with ``*`` or simply juxtaposed
    (``2x0``, ``x0x1``); exponents use ``^`` (or ``**``).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial string")

    terms = []  # (coeff, {var index: exponent})
    i = 0
    n = len(tokens)
    while i < n:
        sign = Fraction(1)
        saw_sign = False
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= n:
            raise ParseError("dangling sign at end of input")
        if terms and not saw_sign:
            raise ParseError(f"expected '+' or '-' before position {tokens[i][2]}")

        coeff = sign
        exps = {}
        saw_factor = False
        expect_factor = True
        while i < n:
            kind, value, pos = tokens[i]
            if kind in ("plus", "minus"):
                break
            if kind == "mul":
                if not saw_factor:
                    raise ParseError(f"misplaced '*' at position {pos}")
                expect_factor = True
                i += 1
                continue
            if kind == "pow":
                raise ParseError(f"misplaced exponent operator at position {pos}")
            if kind == "num":
                coeff *= Fraction(value)
                saw_factor = True
                expect_factor = False
                i += 1
                continue
            # variable, optionally followed by ^integer
            idx = int(value[1:])
            power = 1
            i += 1
            if i < n and tokens[i][0] == "pow":
                i += 1
                if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                    raise ParseError("exponent must be a plain integer")
                power = int(tokens[i][1])
                i += 1
            exps[idx] = exps.get(idx, 0) + power
            saw_factor = True
            expect_factor = False
        if not saw_factor:
            raise ParseError("term with no factors")
        if expect_factor:
            raise ParseError("dangling '*' at end of term")
        terms.append((coeff, exps))

    max_index = max((idx for _, exps in terms for idx in exps), default=-1)
    if nvars is None:
        nvars = max_index + 1
        if nvars == 0:
            nvars = 1
    elif max_index >= nvars:
        raise ParseError(f"variable x{max_index} out of range for {nvars} variables")

    degrees = {sum(exps.values()) for _, exps in terms}
    if len(degrees) != 1:
        raise ParseError("terms have mixed total degrees; form is not homogeneous")
    degree = degrees.pop()

    accum = {}
    for coeff, exps in terms:
        key = tuple(exps.get(j, 0) for j in range(nvars))
        accum[key] = accum.get(key, Fraction(0)) + coeff
    return HomogeneousForm(nvars, degree, accum)
