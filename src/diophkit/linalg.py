"""Exact linear algebra over Q.

Row vectors are tuples of Fractions (ints are fine too).  Ranks go through
integer fraction-free elimination in the Bareiss style, so intermediate
entries stay integral, and ``RowSpace`` keeps such an integer echelon form
growing row by row, for callers that need the rank after every batch.
Subspace constructions (reduced echelon bases, kernels, intersections, flag
refinement and common adapted bases for a pair of filtrations) use rational
Gauss-Jordan on small matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RowSpace",
    "rank",
    "rref",
    "reduce_vector",
    "in_span",
    "nullspace",
    "inverse",
    "sum_rowspaces",
    "intersect_rowspaces",
    "extend_basis",
    "complete_flag",
    "common_adapted_basis",
    "adapted_to_chain",
]


def _int_row(row):
    fracs = [Fraction(v) for v in row]
    scale = lcm(*[f.denominator for f in fracs]) if fracs else 1
    return [int(f * scale) for f in fracs]


def rank(rows):
    """Rank of the row family, by fraction-free integer elimination."""
    mat = []
    width = None
    for r in rows:
        ints = _int_row(r)
        if width is None:
            width = len(ints)
        elif len(ints) != width:
            raise ValueError("rows must share one length")
        if any(ints):
            mat.append(ints)
    if not mat:
        return 0
    ncols = width
    rk = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rk, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        p = mat[rk][col]
        for i in range(rk + 1, len(mat)):
            f = mat[i][col]
            row = mat[i]
            lead = mat[rk]
            for j in range(col, ncols):
                row[j] = (row[j] * p - f * lead[j]) // prev
        prev = p
        rk += 1
        if rk == len(mat):
            break
    return rk


class RowSpace:
    """A row space grown one row at a time, by fraction-free elimination.

    The stored rows are primitive integer rows in echelon form, keyed by
    their pivot (first nonzero) column.  A new row is reduced against the
    pivot rows its leading entries meet, dividing out the content after
    each step, so entries stay small and integral.
    """

    def __init__(self, width):
        self.width = width
        self._pivots = {}

    @property
    def rank(self):
        return len(self._pivots)

    def _reduce(self, row):
        """(pivot column, residual row) of a row, or (None, None) when it
        lies in the space."""
        if len(row) != self.width:
            raise ValueError("row length does not match the space")
        ints = list(row) if all(type(v) is int for v in row) else _int_row(row)
        col = 0
        while True:
            col = next((j for j in range(col, self.width) if ints[j]), None)
            if col is None:
                return None, None
            lead = self._pivots.get(col)
            if lead is None:
                return col, ints
            p, f = lead[col], ints[col]
            ints = [a * p - f * b for a, b in zip(ints, lead)]
            content = gcd(*ints)
            if content > 1:
                ints = [a // content for a in ints]

    def add(self, row):
        """Add a row; True when it was independent of the space."""
        col, ints = self._reduce(row)
        if col is None:
            return False
        content = gcd(*ints) if ints[col] > 0 else -gcd(*ints)
        self._pivots[col] = [a // content for a in ints]
        return True

    def __contains__(self, row):
        return self._reduce(row)[0] is None

    def rows(self):
        """The stored echelon rows, in pivot order."""
        return [self._pivots[col] for col in sorted(self._pivots)]


def rref(rows):
    """Reduced row echelon basis of the row space (no zero rows)."""
    mat = []
    width = None
    for r in rows:
        vec = [Fraction(v) for v in r]
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise ValueError("rows must share one length")
        if any(vec):
            mat.append(vec)
    if not mat:
        return ()
    ncols = width
    rk = 0
    for col in range(ncols):
        piv = None
        for i in range(rk, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        p = mat[rk][col]
        mat[rk] = [v / p for v in mat[rk]]
        for i in range(len(mat)):
            if i != rk and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
        if rk == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rk] if any(r))


def _pivot_columns(basis):
    pivots = []
    for row in basis:
        for j, v in enumerate(row):
            if v != 0:
                pivots.append(j)
                break
    return pivots


def reduce_vector(vec, basis):
    """Residual of vec after eliminating against an rref basis."""
    v = [Fraction(x) for x in vec]
    for row in basis:
        col = next(j for j, val in enumerate(row) if val != 0)
        f = v[col]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def in_span(vec, basis):
    return not any(reduce_vector(vec, basis))


def nullspace(rows):
    """Basis of {x : row . x = 0 for every row}, as tuples of Fractions."""
    mat = [list(r) for r in rows]
    if not mat:
        raise ValueError("nullspace needs the ambient width; pass at least one row")
    width = len(mat[0])
    basis = rref(mat)
    pivots = _pivot_columns(basis)
    free = [j for j in range(width) if j not in pivots]
    out = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(basis, pivots):
            vec[p] = -row[f]
        out.append(tuple(vec))
    return tuple(out)


def inverse(rows):
    """Inverse of an invertible square matrix, by Gauss-Jordan on [A | I]."""
    n = len(rows)
    reduced = rref([tuple(row) + tuple(int(i == j) for j in range(n))
                    for i, row in enumerate(rows)])
    if _pivot_columns(reduced) != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def sum_rowspaces(first, second):
    return rref(list(first) + list(second))


def intersect_rowspaces(first, second, width=None):
    """Basis of the intersection, via the double orthogonal complement."""
    rows = list(first) + list(second)
    if width is None:
        if not rows:
            raise ValueError("cannot infer width from two empty families")
        width = len(rows[0])
    zero = (Fraction(0),) * width
    ann_first = nullspace(list(first) if first else [zero])
    ann_second = nullspace(list(second) if second else [zero])
    stacked = list(ann_first) + list(ann_second)
    if not stacked:
        # both spaces are the whole ambient
        return rref([tuple(Fraction(1) if i == j else Fraction(0) for j in range(width))
                     for i in range(width)])
    return rref(nullspace(stacked))


def extend_basis(pool, basis):
    """Pick vectors from pool extending an rref basis; returns (chosen, new rref)."""
    chosen = []
    current = tuple(basis)
    for v in pool:
        if not in_span(v, current):
            chosen.append(tuple(Fraction(x) for x in v))
            current = rref(list(current) + [chosen[-1]])
    return chosen, current


def complete_flag(chain, width):
    """Refine a strictly decreasing chain of subspaces to a complete flag.

    chain: list of rref bases, starting with the full ambient space and
    strictly decreasing in dimension.  Returns a list of rref bases of
    length width + 1, from dimension ``width`` down to 0, inserting
    intermediate subspaces wherever a dimension gap exceeds one.
    """
    if not chain:
        raise ValueError("chain must contain at least the ambient space")
    tops = [tuple(tuple(Fraction(x) for x in row) for row in level) for level in chain]
    if len(tops[0]) != width:
        raise ValueError("first chain element must span the ambient space")
    dims = [len(level) for level in tops]
    if any(later >= earlier for later, earlier in zip(dims[1:], dims)):
        raise ValueError("chain dimensions must strictly decrease")
    if dims[-1] != 0:
        tops.append(())
        dims.append(0)

    flag = {width: tops[0]}
    for upper, lower in zip(tops, tops[1:]):
        # climb from lower to upper one dimension at a time
        added, _ = extend_basis(upper, lower)
        level = list(lower)
        ladder = [rref(level)]
        for v in added:
            level.append(v)
            ladder.append(rref(level))
        for basis in ladder:
            flag[len(basis)] = basis
    return [flag[d] for d in range(width, -1, -1)]


def _intersection_dim(ann_a, ann_b, width):
    stacked = list(ann_a) + list(ann_b)
    if not stacked:
        return width
    return width - rank(stacked)


def common_adapted_basis(chain_f, chain_g, width):
    """One basis adapted to two decreasing subspace chains.

    Both chains are refined to complete flags; the rank pattern
    r(i, j) = dim(F_i meet G_j) then has exactly ``width`` unit jumps
    forming a permutation, and a basis vector is drawn from each jump cell
    (F_{i-1} meet G_{j-1}) minus (F_i meet G_{j-1} + F_{i-1} meet G_j).
    """
    F = complete_flag(chain_f, width)
    G = complete_flag(chain_g, width)
    zero = (Fraction(0),) * width

    def annihilator(basis):
        return nullspace(list(basis) if basis else [zero])

    ann_f = [annihilator(b) for b in F]
    ann_g = [annihilator(b) for b in G]
    r = [[_intersection_dim(ann_f[i], ann_g[j], width)
          for j in range(width + 1)] for i in range(width + 1)]

    def meet(i, j):
        stacked = list(ann_f[i]) + list(ann_g[j])
        if not stacked:
            return rref([tuple(Fraction(1) if a == b else Fraction(0) for b in range(width))
                         for a in range(width)])
        return rref(nullspace(stacked))

    chosen = []
    for i in range(1, width + 1):
        for j in range(1, width + 1):
            delta = r[i - 1][j - 1] - r[i][j - 1] - r[i - 1][j] + r[i][j]
            if delta == 0:
                continue
            if delta != 1:
                raise ValueError("degenerate rank pattern; chains are inconsistent")
            big = meet(i - 1, j - 1)
            wall = sum_rowspaces(meet(i, j - 1), meet(i - 1, j))
            pick = next((v for v in big if not in_span(v, wall)), None)
            if pick is None:
                raise ValueError("internal error: no vector available in jump cell")
            chosen.append(pick)
    if len(chosen) != width or rank(chosen) != width:
        raise ValueError("internal error: adapted construction failed")
    return tuple(chosen)


def adapted_to_chain(vectors, chain):
    """Check that a basis is adapted: each chain subspace is spanned by the
    vectors it contains."""
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        return not chain or all(len(level) == 0 for level in chain)
    if rank(vecs) != len(vecs):
        return False
    for level in chain:
        basis = rref(level)
        inside = [v for v in vecs if in_span(v, basis)]
        if len(inside) != len(basis):
            return False
    return True
