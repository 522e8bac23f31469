"""Threshold sets of N^r as minimal-generator antichains.

This is the combinatorial layer under the ideal filtrations: the threshold
set {b in N^r : t.b >= x} for a nonnegative rational weight vector t is
upward closed, so it is given by its finitely many minimal elements.
Everything is carried in Fractions so that membership tests and jump values
stay exact.
"""

import itertools
import math
from fractions import Fraction

__all__ = [
    "EmptyThresholdSetError",
    "threshold_set",
    "validate_weights",
]

# Guard against runaway box enumerations; desk-scale inputs stay far below.
_MAX_BOX_CELLS = 2_000_000


class EmptyThresholdSetError(ValueError):
    """The requested threshold set contains no lattice points at all."""


def _nonnegative(t):
    """A weight vector as a nonempty tuple of Fractions, entries >= 0."""
    entries = tuple(Fraction(w) for w in t)
    if not entries:
        raise ValueError("weight vector must have length >= 1")
    if any(w < 0 for w in entries):
        raise ValueError("weights must be nonnegative")
    return entries


def validate_weights(t):
    """Normalize a weight vector to Fractions: entries >= 0, not all zero."""
    entries = _nonnegative(t)
    if all(w == 0 for w in entries):
        raise ValueError("weight vector must have at least one positive entry")
    return entries


def threshold_set(t, x):
    """Minimal generators of {b in N^r : t.b >= x}, as a sorted tuple.

    x = 0 gives the whole lattice, generated by the zero vector.  A member
    b is minimal when no b - e_i with b_i > 0 is a member, that is when
    t.b - t_i < x for each such i.  Every minimal b lies in the box
    b_i <= ceil(x / t_i), with b_i = 0 where t_i = 0 (a larger b_i leaves
    b - e_i a member), and the box is enumerated in sorted order.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("threshold x must be nonnegative")
    entries = _nonnegative(t)
    if x == 0:
        return ((0,) * len(entries),)
    if all(w == 0 for w in entries):
        raise EmptyThresholdSetError("zero weights with positive threshold give an empty set")

    caps = [math.ceil(x / w) if w else 0 for w in entries]
    if math.prod(c + 1 for c in caps) > _MAX_BOX_CELLS:
        raise ValueError("threshold box too large for direct enumeration")

    mins = []
    for b in itertools.product(*[range(c + 1) for c in caps]):
        total = sum(w * v for w, v in zip(entries, b))
        if total >= x and all(total - w < x for w, v in zip(entries, b) if v):
            mins.append(b)
    return tuple(mins)
