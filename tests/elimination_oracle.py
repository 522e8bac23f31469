"""The eliminations that ``linalg.RowSpace`` replaced.

They are kept here, and only here, as differential oracles for the one
elimination engine in ``src/``: ``rank`` is Bareiss fraction-free integer
elimination over the whole matrix, ``rref`` is Fraction Gauss-Jordan, and
``in_span``, ``nullspace`` and ``inverse`` are read off that Gauss-Jordan
form.  None of them uses ``diophkit.linalg``.
"""

from fractions import Fraction
from math import lcm


def _int_row(row):
    fracs = [Fraction(v) for v in row]
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
    rk = 0
    prev = 1
    for col in range(width):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        p = mat[rk][col]
        lead = mat[rk]
        for i in range(rk + 1, len(mat)):
            f = mat[i][col]
            row = mat[i]
            for j in range(col, width):
                row[j] = (row[j] * p - f * lead[j]) // prev
        prev = p
        rk += 1
        if rk == len(mat):
            break
    return rk


def rref(rows):
    """Reduced row echelon basis of the row space (no zero rows), by
    Fraction Gauss-Jordan."""
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
    rk = 0
    for col in range(width):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
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
    return tuple(tuple(r) for r in mat[:rk])


def pivot_columns(basis):
    """The leading column of each row of an echelon basis."""
    return [next(j for j, v in enumerate(row) if v) for row in basis]


def in_span(vec, basis):
    """Whether vec lies in the span of an rref basis: its residual after
    eliminating against the basis rows is zero."""
    v = [Fraction(x) for x in vec]
    for row, col in zip(basis, pivot_columns(basis)):
        f = v[col]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def nullspace(rows):
    """Basis of {x : row . x = 0 for every row}, as tuples of Fractions."""
    rows = list(rows)
    if not rows:
        raise ValueError("nullspace needs the ambient width; pass at least one row")
    width = len(rows[0])
    basis = rref(rows)
    pivots = pivot_columns(basis)
    out = []
    for f in (j for j in range(width) if j not in pivots):
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
    if pivot_columns(reduced) != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)
