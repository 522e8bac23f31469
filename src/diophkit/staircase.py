"""Threshold sets of N^r as minimal-generator antichains.

This is the combinatorial layer under the ideal filtrations: the threshold
set {b in N^r : t.b >= x} for a nonnegative rational weight vector t is
upward closed, so it is given by its finitely many minimal elements.
Everything is carried in Fractions so that membership tests and jump values
stay exact.
"""

from __future__ import annotations

import itertools
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


def validate_weights(t):
    """Normalize a weight vector to Fractions: entries >= 0, not all zero."""
    entries = tuple(Fraction(w) for w in t)
    if not entries:
        raise ValueError("weight vector must have length >= 1")
    if any(w < 0 for w in entries):
        raise ValueError("weights must be nonnegative")
    if all(w == 0 for w in entries):
        raise ValueError("weight vector must have at least one positive entry")
    return entries


def _ceil_fraction(q):
    return -((-q.numerator) // q.denominator)


def threshold_set(t, x):
    """Minimal generators of {b in N^r : t.b >= x}, as a sorted tuple.

    x = 0 gives the whole lattice, generated by the zero vector.  Entries
    of t that are zero force the corresponding coordinate of every minimal
    element to zero, so minimalization happens in the positive-weight
    sub-lattice and is zero-padded afterwards.  Scanning the members by
    increasing coordinate sum is enough to minimalize: any member strictly
    below b has a smaller sum, so it was already considered, and if it was
    itself discarded then whatever dominated it from below also sits below b.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("threshold x must be nonnegative")
    entries = tuple(Fraction(w) for w in t)
    if not entries:
        raise ValueError("weight vector must have length >= 1")
    if any(w < 0 for w in entries):
        raise ValueError("weights must be nonnegative")
    r = len(entries)
    if x == 0:
        return ((0,) * r,)
    if all(w == 0 for w in entries):
        raise EmptyThresholdSetError("zero weights with positive threshold give an empty set")

    pos = [i for i, w in enumerate(entries) if w > 0]
    caps = [_ceil_fraction(x / entries[i]) for i in pos]
    cells = 1
    for c in caps:
        cells *= c + 1
    if cells > _MAX_BOX_CELLS:
        raise ValueError("threshold box too large for direct enumeration")

    hits = [b for b in itertools.product(*[range(c + 1) for c in caps])
            if sum(entries[i] * v for i, v in zip(pos, b)) >= x]
    mins = []
    for b in sorted(hits, key=lambda v: (sum(v), v)):
        if not any(all(a >= m for a, m in zip(b, low)) for low in mins):
            mins.append(b)

    padded = []
    for m in mins:
        full = [0] * r
        for i, v in zip(pos, m):
            full[i] = v
        padded.append(tuple(full))
    return tuple(sorted(padded))
