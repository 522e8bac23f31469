"""The table-of-intersection-ranks construction that Bruhat cells replaced.

It is kept here, and only here, as a differential oracle for
``linalg.chain_basis``, ``linalg.adapted_cells`` and
``filtration.adapted_basis``: flags are
refined by recomputing a rational reduced echelon form after every picked
vector, the whole (width + 1)^2 table of ranks dim(F_i meet G_j) is filled
from annihilators, and every jump cell computes its meet from two
nullspaces (``meet``, which the tests also use to intersect row spaces).
mu values come from span tests against each level.  Its eliminations come
from ``elimination_oracle``, so it shares no code with the incremental row
space.
"""

from fractions import Fraction

from elimination_oracle import in_span, nullspace, rank, rref


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
    """Refine a strictly decreasing chain (rref bases, ambient first) to a
    complete flag, as rref bases from dimension ``width`` down to 0."""
    tops = [tuple(tuple(Fraction(x) for x in row) for row in level) for level in chain]
    dims = [len(level) for level in tops]
    if dims[-1] != 0:
        tops.append(())
    flag = {width: tops[0]}
    for upper, lower in zip(tops, tops[1:]):
        added, _ = extend_basis(upper, lower)
        level = list(lower)
        ladder = [rref(level)]
        for v in added:
            level.append(v)
            ladder.append(rref(level))
        for basis in ladder:
            flag[len(basis)] = basis
    return [flag[d] for d in range(width, -1, -1)]


def annihilator(basis, width):
    """Basis of the linear forms that vanish on the span of basis."""
    return nullspace(list(basis) or [(Fraction(0),) * width])


def meet(first, second, width):
    """rref basis of the intersection of the spans of two families: the
    common zeros of their annihilators."""
    stacked = list(annihilator(first, width)) + list(annihilator(second, width))
    if not stacked:
        return rref([tuple(Fraction(1) if a == b else Fraction(0) for b in range(width))
                     for a in range(width)])
    return rref(nullspace(stacked))


def common_adapted_basis(chain_f, chain_g, width):
    """One vector from each jump cell (F_{i-1} meet G_{j-1}) minus
    (F_i meet G_{j-1} + F_{i-1} meet G_j) of the rank table, in order of i."""
    F = complete_flag(chain_f, width)
    G = complete_flag(chain_g, width)
    ann_f = [annihilator(b, width) for b in F]
    ann_g = [annihilator(b, width) for b in G]
    r = [[width - rank(list(ann_f[i]) + list(ann_g[j]))
          for j in range(width + 1)] for i in range(width + 1)]

    chosen = []
    for i in range(1, width + 1):
        for j in range(1, width + 1):
            delta = r[i - 1][j - 1] - r[i][j - 1] - r[i - 1][j] + r[i][j]
            if delta == 0:
                continue
            assert delta == 1, "degenerate rank pattern"
            big = meet(F[i - 1], G[j - 1], width)
            wall = rref(meet(F[i], G[j - 1], width) + meet(F[i - 1], G[j], width))
            chosen.append(next(v for v in big if not in_span(v, wall)))
    assert len(chosen) == width and rank(chosen) == width
    return tuple(chosen)


def mu_of(vec, profile):
    """Largest jump whose level holds vec, by a span test per level."""
    for (x, _), level in zip(reversed(profile.jumps), reversed(profile.bases)):
        if in_span(vec, rref(level)):
            return x
    raise AssertionError("vector outside the ambient space")


def adapted_basis(profile):
    """(vectors, mu values) of the greedy basis adapted to one profile,
    deepest jump first, extending an rref after every vector."""
    chosen = []
    mus = []
    current = ()
    for (x, _), level in zip(reversed(profile.jumps), reversed(profile.bases)):
        added, current = extend_basis(level, current)
        chosen.extend(added)
        mus.extend([x] * len(added))
    return tuple(chosen), tuple(mus)
