"""Exact linear algebra over Q.

Row vectors are tuples of Fractions (ints are fine too).  All row reduction
is one engine: ``RowSpace`` keeps an integer echelon form, grown row by row
by fraction-free elimination, so entries stay integral, for callers that
need the rank after every batch; its ``rref`` keeps the reduced echelon
basis up to date incrementally, for callers that need a basis after every
batch.  ``rank``, ``rref``, span tests and kernels are read off the space
of their rows.

Bases adapted to filtrations come from the same growing space: a chain's
levels walked deepest first keep exactly the rows that refine it to a
complete flag (``chain_basis``), and a basis adapted to two chains takes one
vector per Bruhat cell of their relative position (``adapted_cells``), so
no intersection of subspaces is ever formed.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RowSpace",
    "rank",
    "rref",
    "in_span",
    "nullspace",
    "chain_basis",
    "adapted_cells",
]


def _int_row(row):
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    scale = lcm(*[f.denominator for f in fracs]) if fracs else 1
    return [f.numerator * (scale // f.denominator) for f in fracs]


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
        return self._insert(row) is not None

    def _insert(self, row):
        """Add a row; the pivot column of its residual, or None when it
        lies in the space."""
        col, ints = self._reduce(row)
        if col is not None:
            content = gcd(*ints) if ints[col] > 0 else -gcd(*ints)
            self._pivots[col] = [a // content for a in ints]
        return col

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
        zero = Fraction(0)
        for col, row in self._pivots.items():
            if col in self._reduced:
                continue
            # zero before col, so the reduced rows pivoting after col cannot
            # touch its leading 1, and those pivoting before it do not apply;
            # the zero entries share one Fraction
            vec = [Fraction(a, row[col]) if a else zero for a in row]
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


def _span(rows):
    """The ``RowSpace`` of a family of rows, which must share one length."""
    space = None
    for row in rows:
        if space is None:
            space = RowSpace(len(row))
        space.add(row)
    return space if space is not None else RowSpace(0)


def _unit_rows(width):
    """The standard basis as Fraction rows: the rref of the whole space."""
    zero, one = Fraction(0), Fraction(1)
    return tuple(tuple(one if i == j else zero for j in range(width))
                 for i in range(width))


def rank(rows):
    """Rank of the row family."""
    return _span(rows).rank


def rref(rows):
    """Reduced row echelon basis of the row space (no zero rows)."""
    return _span(rows).rref()


def in_span(vec, basis):
    """Whether vec lies in the span of the basis rows."""
    space = RowSpace(len(vec))
    for row in basis:
        space.add(row)
    return vec in space


def nullspace(rows):
    """Basis of {x : row . x = 0 for every row}, as tuples of Fractions."""
    rows = list(rows)
    if not rows:
        raise ValueError("nullspace needs the ambient width; pass at least one row")
    space = _span(rows)
    basis, pivots = space.rref(), sorted(space._pivots)
    width = space.width
    out = []
    for free in range(width):
        if free in space._pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, p in zip(basis, pivots):
            vec[p] = -row[free]
        out.append(tuple(vec))
    return tuple(out)


def chain_basis(chain, width):
    """A basis adapted to a strictly decreasing chain of subspaces.

    chain: bases of the subspaces, starting with the full ambient space.
    The levels are walked deepest first into one ``RowSpace``, and each row
    that raises the rank is kept: level by level, the rows that extend the
    span of the deeper levels.  Returns (level index, row) pairs in the
    order kept; the first d rows span the dimension-d member of the
    complete flag that refines the chain.
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

    Both reductions are one fraction-free elimination in a ``RowSpace`` of
    width 3 n.  In the span of the rows (f_k | e_k | 0), the row
    (g_l | 0 | g_l) reduces to (0 | -s c | s g_l), where g_l = sum_k c_k f_k,
    s > 0, and the f_k and g_l have their denominators cleared.  Added to
    the same space, that row is reduced further against the deeper g's,
    pivoting on its first nonzero f-coordinate: what is stored is
    (0 | -c' | g'_l) for the f-coordinates c' of g'_l, up to a nonzero
    factor, with its pivot at n + piv(l) - 1.  So each g'_l is an integer
    vector, a nonzero multiple of the rational one.  Scaling a
    g'_m, or an f_k, changes no pivot, no span and no reduced echelon
    basis, so the cells' vectors are those of rational elimination.
    """
    space = RowSpace(3 * width)
    zeros = [0] * width
    for k, (_, f) in enumerate(reversed(chain_basis(chain_f, width))):
        space.add(_int_row(f) + [int(j == k) for j in range(width)] + zeros)
    # reduced[n - m] holds piv(m) - 1 and the entries of g'_m
    owner = {}
    reduced = []
    for _, g in chain_basis(chain_g, width):
        g = _int_row(g)
        col = space._insert(g + zeros + g)
        owner[col - width] = len(reduced)
        reduced.append((col - width, space._pivots[col][2 * width:]))
    cells = []
    for i in range(width):
        deep = owner[i]
        cell = RowSpace(width + 1)
        for m in range(deep + 1):
            piv, vec = reduced[m]
            if piv >= i:
                cell.add(vec + [int(m == deep)])
        pick = next(row[:width] for row in cell.rref() if row[width])
        cells.append((width - i, deep + 1, pick))
    return tuple(cells)
