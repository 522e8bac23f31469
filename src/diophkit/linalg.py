"""Exact linear algebra over Q.

Row vectors are tuples of Fractions (ints are fine too).  Ranks go through
integer fraction-free elimination in the Bareiss style, so intermediate
entries stay integral, and ``RowSpace`` keeps such an integer echelon form
growing row by row, for callers that need the rank after every batch; its
``rref`` keeps the reduced echelon basis up to date incrementally, for
callers that need a basis after every batch.

Bases adapted to filtrations come from that one growing space: a chain's
levels walked deepest first keep exactly the rows that refine it to a
complete flag (``chain_basis``), and a basis adapted to two chains takes one
vector per Bruhat cell of their relative position (``adapted_cells``), so
no intersection of subspaces is ever formed.  Kernels, inverses and span
tests use rational Gauss-Jordan on small matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RowSpace",
    "rank",
    "rref",
    "in_span",
    "nullspace",
    "inverse",
    "extend_basis",
    "chain_basis",
    "adapted_cells",
]


def _int_row(row):
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    scale = lcm(*[f.denominator for f in fracs]) if fracs else 1
    return [f.numerator * (scale // f.denominator) for f in fracs]


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
        self._reduced = {}

    @property
    def rank(self):
        return len(self._pivots)

    def _reduce(self, row):
        """(pivot column, residual row) of a row, or (None, None) when it
        lies in the space."""
        if len(row) != self.width:
            raise ValueError("row length does not match the space")
        ints = list(row) if all(type(v) is int for v in row) else _int_row(row)
        width, pivots = self.width, self._pivots
        col = 0
        while True:
            for col in range(col, width):
                if ints[col]:
                    break
            else:
                return None, None
            lead = pivots.get(col)
            if lead is None:
                return col, ints
            # both rows are zero up to col once it is cleared, so only the
            # tails change; the residual is the primitive part of
            # p * ints - f * lead, so dividing p and f by their gcd first
            # gives the same row from smaller products
            p, f = lead[col], ints[col]
            g = gcd(p, f)
            p, f = p // g, f // g
            col += 1
            tail = [a * p - f * b for a, b in zip(ints[col:], lead[col:])]
            content = gcd(*tail)
            if content > 1:
                tail = [a // content for a in tail]
            ints[col - 1] = 0
            ints[col:] = tail

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

    def rref(self):
        """The reduced row echelon basis of the space, equal to
        ``rref(self.rows())``.  The reduced rows are kept between calls, and
        a call folds in only the rows added since the last one, so a
        snapshot after every batch of rows costs one reduction per new row;
        reduced rows that a batch leaves alone are shared between
        snapshots."""
        for col, row in self._pivots.items():
            if col in self._reduced:
                continue
            # zero before col, so the reduced rows pivoting after col cannot
            # touch its leading 1, and those pivoting before it do not apply
            vec = [Fraction(a, row[col]) for a in row]
            for c, red in self._reduced.items():
                f = vec[c]
                if f:
                    vec = [a - f * b if b else a for a, b in zip(vec, red)]
            vec = tuple(vec)
            for c, red in list(self._reduced.items()):
                f = red[col]
                if f:
                    self._reduced[c] = tuple(a - f * b if b else a
                                             for a, b in zip(red, vec))
            self._reduced[col] = vec
        return tuple(self._reduced[col] for col in sorted(self._reduced))


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


def in_span(vec, basis):
    """Whether vec lies in the span of an rref basis: its residual after
    eliminating against the basis rows is zero."""
    v = [Fraction(x) for x in vec]
    for row in basis:
        col = next(j for j, val in enumerate(row) if val != 0)
        f = v[col]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


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


def extend_basis(pool, basis):
    """Pick the vectors of pool, in order, that extend the span of a basis;
    returns (chosen, rref of the extended span)."""
    basis, pool = list(basis), list(pool)
    if not basis and not pool:
        return [], ()
    space = RowSpace(len((basis or pool)[0]))
    for row in basis:
        space.add(row)
    chosen = [tuple(Fraction(x) for x in v) for v in pool if space.add(v)]
    return chosen, space.rref()


def chain_basis(chain, width):
    """A basis adapted to a strictly decreasing chain of subspaces.

    chain: bases of the subspaces, starting with the full ambient space.
    The levels are walked deepest first into one ``RowSpace``, and each row
    that raises the rank is kept: this is the pick ``extend_basis`` makes
    level by level.  Returns (level index, row) pairs in the order kept;
    the first d rows span the dimension-d member of the complete flag that
    refines the chain.
    """
    if not chain:
        raise ValueError("chain must contain at least the ambient space")
    dims = [len(level) for level in chain]
    if dims[0] != width:
        raise ValueError("first chain element must span the ambient space")
    if any(later >= earlier for later, earlier in zip(dims[1:], dims)):
        raise ValueError("chain dimensions must strictly decrease")
    space = RowSpace(width)
    kept = []
    for k in range(len(chain) - 1, -1, -1):
        kept.extend((k, row) for row in chain[k] if space.add(row))
        if space.rank != dims[k]:
            raise ValueError("chain levels must be nested, each with independent rows")
    return kept


def adapted_cells(chain_f, chain_g, width):
    """One basis adapted to two decreasing chains, one vector per Bruhat cell.

    Walk both chains into bases f_n, ..., f_1 and g_n, ..., g_1
    (``chain_basis``), so that the complete flags are F_a = span{f_m : m > a}
    and G_b = span{g_m : m > b}.  Write each g_l in f-coordinates, and for
    l = n, ..., 1 reduce it against the deeper reduced vectors, pivoting on
    its shallowest f-coordinate: the reduced g'_l have distinct pivots
    piv(l), and piv is the permutation giving the flags' relative position.
    Then F_a meet G_b = span{g'_m : m > b, piv(m) > a}, so the jump cell
    (i, l) with piv(l) = i is spanned by S = {g'_m : m >= l, piv(m) >= i}
    and its wall by S without g'_l.  The cell's vector is the first row of
    rref(S) outside the wall, that is, the first row of the rref of the
    graph of "coefficient of g'_l" on span(S) whose last entry is nonzero.

    Returns (dim_f, dim_g, vector) per cell in order of i: the vector lies
    in the members of dimension dim_f = n - i + 1 and dim_g = n - l + 1 of
    the two flags, and not in the next smaller ones.

    All of this is in integers: each g'_l is kept as a primitive integer
    vector, a nonzero multiple of the rational one.  Scaling a g'_m, or an
    f_k, changes no pivot, no span and no reduced echelon basis, so the
    cells' vectors are those of rational elimination.
    """
    # f-coordinates by fraction-free elimination: in the span of the rows
    # (f_k | e_k | 0) the row (g | 0 | 1) reduces to (0 | -s c | s) with
    # g = sum_k c_k f_k and s > 0, the f_k and g with denominators cleared
    basis = RowSpace(2 * width + 1)
    for k, (_, f) in enumerate(reversed(chain_basis(chain_f, width))):
        basis.add(_int_row(f) + [int(j == k) for j in range(width)] + [0])
    zeros = [0] * width
    owner = {}
    reduced = []
    for _, g in chain_basis(chain_g, width):
        g = _int_row(g)
        _, res = basis._reduce(g + zeros + [1])
        s = res[-1]
        vec = [-a for a in res[width:-1]] + [s * a for a in g]
        while True:
            content = gcd(*vec)
            vec = [a // content for a in vec]
            piv = next(k for k, a in enumerate(vec) if a)
            if piv not in owner:
                break
            red = reduced[owner[piv]][1]
            p, f = red[piv], vec[piv]
            d = gcd(p, f)
            p, f = p // d, f // d
            vec = [a * p - f * b for a, b in zip(vec, red)]
        owner[piv] = len(reduced)
        reduced.append((piv, vec))
    # reduced[n - m] holds piv(m) - 1 and g'_m, its f-coordinates followed
    # by its entries
    cells = []
    for i in range(width):
        deep = owner[i]
        space = RowSpace(width + 1)
        for m in range(deep + 1):
            piv, vec = reduced[m]
            if piv >= i:
                space.add(vec[width:] + [int(m == deep)])
        pick = next(row[:width] for row in space.rref() if row[width])
        cells.append((width - i, deep + 1, pick))
    return tuple(cells)
