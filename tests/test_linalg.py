"""Fraction-free ranks, kernels, and bases adapted to one or two chains.

Ranks, reduced echelon bases, span tests and kernels all come from
``RowSpace``; they are checked against the Bareiss and Gauss-Jordan
eliminations of ``elimination_oracle``, which share no code with it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import adapted_oracle
import elimination_oracle as oracle
from diophkit.linalg import (
    RowSpace,
    adapted_cells,
    chain_basis,
    in_span,
    nullspace,
    rank,
    rref,
)


def frac_rows(rows):
    return [tuple(Fraction(v) for v in row) for row in rows]


INTS = st.integers(-4, 4)
FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def matrices(draw, width=None, min_rows=0, max_rows=6):
    """An integer or a Fraction matrix, with some rows of zeros."""
    if width is None:
        width = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([INTS, FRACS]))
    row = st.lists(entry, min_size=width, max_size=width).map(tuple)
    zero = st.just((0,) * width)
    return draw(st.lists(st.one_of(row, zero), min_size=min_rows,
                         max_size=max_rows))


def flag_of(chain, width):
    """The complete flag refining a chain, as rref bases from dimension
    width down to 0: the spans of the prefixes of ``chain_basis``."""
    rows = [row for _, row in chain_basis(chain, width)]
    return [rref(rows[:d]) for d in range(width, -1, -1)]


def cell_basis(F, G, width):
    return tuple(vec for _, _, vec in adapted_cells(F, G, width))


def adapted(vectors, chain):
    """Each level of the chain (an rref basis) holds as many of the vectors
    as its dimension; with independent vectors, those span it."""
    return all(sum(in_span(v, level) for v in vectors) == len(level)
               for level in chain)


class TestRank:
    def test_known_ranks(self):
        assert rank([(1, 1), (1, -1), (1, 0)]) == 2
        assert rank([(1, 2, 3), (2, 4, 6)]) == 1
        assert rank([]) == 0
        assert rank([(0, 0)]) == 0

    def test_fractional_entries(self):
        assert rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            rank([(1, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            rref([(1, 0), (1, 0, 0)])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=6))
    def test_agrees_with_rref(self, rows):
        assert rank(rows) == len(oracle.rref(rows))

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=2, max_size=5))
    def test_row_operations_preserve_rank(self, rows):
        r = rank(rows)
        mixed = [tuple(a + 2 * b for a, b in zip(rows[0], rows[-1]))] + rows[1:]
        assert rank(mixed + rows) == r


class TestRowSpace:
    def test_add_reports_independence(self):
        space = RowSpace(3)
        assert space.add((2, 4, 0))
        assert not space.add((1, 2, 0))
        assert space.add((Fraction(1, 2), 1, Fraction(1, 3)))
        assert space.rank == 2
        assert (0, 0, 1) in space
        assert (1, 0, 0) not in space

    def test_stored_rows_are_primitive_echelon_integers(self):
        space = RowSpace(3)
        for row in [(0, 6, 9), (4, 2, 0), (4, 8, 9)]:
            space.add(row)
        rows = space.rows()
        assert rows == [[2, 1, 0], [0, 2, 3]]
        assert oracle.rref(rows) == oracle.rref([(0, 6, 9), (4, 2, 0)])

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            RowSpace(2).add((1, 0, 0))

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=7),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_agrees_with_rank_and_rref(self, rows, probe):
        space = RowSpace(4)
        for k, row in enumerate(rows):
            assert space.add(row) == \
                (oracle.rank(rows[:k + 1]) > oracle.rank(rows[:k]))
        assert space.rank == oracle.rank(rows)
        assert oracle.rref(space.rows()) == oracle.rref(rows)
        assert (probe in space) == oracle.in_span(probe, oracle.rref(rows))

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=1, max_size=7))
    def test_incremental_rref_after_every_row(self, rows):
        space = RowSpace(4)
        for k, row in enumerate(rows):
            space.add(row)
            assert space.rref() == oracle.rref(rows[:k + 1])

    def test_snapshots_share_untouched_rows(self):
        space = RowSpace(3)
        space.add((1, 2, 0))
        first = space.rref()
        space.add((0, 0, 5))
        second = space.rref()
        assert second == ((1, 2, 0), (0, 0, 1))
        assert second[0] is first[0]


class TestRref:
    def test_echelon_shape(self):
        basis = rref([(2, 4, 0), (1, 2, 1)])
        # leading entries are 1 and sit in strictly increasing columns
        leads = []
        for row in basis:
            j = next(i for i, v in enumerate(row) if v)
            assert row[j] == 1
            leads.append(j)
        assert leads == sorted(leads)
        # pivot columns cleared elsewhere
        for row in basis:
            for other in basis:
                if other is not row:
                    j = next(i for i, v in enumerate(row) if v)
                    assert other[j] == 0

    def test_span_membership(self):
        basis = rref([(1, 2, 3), (0, 1, 1)])
        assert in_span((1, 3, 4), basis)
        assert not in_span((0, 0, 1), basis)


class TestNullspace:
    def test_dimension_theorem(self):
        rows = [(1, 2, 3, 4), (0, 1, 1, 0)]
        ns = nullspace(rows)
        assert len(ns) == 4 - rank(rows)
        for v in ns:
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0

    def test_full_rank_gives_empty(self):
        assert nullspace([(1, 0), (0, 1)]) == ()

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_rank_nullity(self, rows):
        assert rank(rows) + len(nullspace(rows)) == 4


class TestAgainstOracle:
    """Each entry point against the elimination it replaced."""

    def test_empty_input(self):
        assert rank([]) == oracle.rank([]) == 0
        assert rref([]) == oracle.rref([]) == ()
        assert rank([(0, 0, 0)]) == 0 and rref([(0, 0, 0)]) == ()
        assert in_span((0, 0), ()) and not in_span((0, 1), ())
        with pytest.raises(ValueError):
            nullspace([])

    @given(matrices())
    def test_rank(self, rows):
        assert rank(rows) == oracle.rank(rows)

    @given(matrices())
    def test_rref(self, rows):
        basis = rref(rows)
        assert basis == oracle.rref(rows)
        assert all(type(v) is Fraction for row in basis for v in row)

    @given(matrices(width=4), st.lists(INTS, min_size=6, max_size=6),
           st.lists(FRACS, min_size=4, max_size=4), st.booleans())
    def test_in_span(self, rows, coeffs, free, combine):
        basis = oracle.rref(rows)
        if combine:
            probe = [sum((c * row[j] for c, row in zip(coeffs, rows)),
                         Fraction(0)) for j in range(4)]
        else:
            probe = free
        assert in_span(probe, basis) == oracle.in_span(probe, basis)
        assert in_span(probe, rows) == oracle.in_span(probe, basis)

    @given(matrices(min_rows=1))
    def test_nullspace(self, rows):
        assert nullspace(rows) == oracle.nullspace(rows)


class TestFlags:
    def test_complete_flag_fills_gaps(self):
        ambient = frac_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        low = rref([(1, 1, 1)])
        flag = flag_of([ambient, low], 3)
        assert [len(level) for level in flag] == [3, 2, 1, 0]
        # each level contains the next
        for big, small in zip(flag, flag[1:]):
            big_basis = rref(big)
            for v in small:
                assert in_span(v, big_basis)

    def test_rejects_nondecreasing_chain(self):
        ambient = frac_rows([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            chain_basis([ambient, ambient], 2)

    def test_rejects_levels_that_are_not_nested(self):
        chain = [frac_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                 rref([(1, 0, 0), (0, 1, 0)]), rref([(0, 0, 1)])]
        with pytest.raises(ValueError):
            chain_basis(chain, 3)

    def test_matches_rref_per_vector_refinement(self):
        rng = random.Random(3)
        for _ in range(50):
            width = rng.randint(2, 7)
            chain = random_chain(rng, width)
            assert flag_of(chain, width) == \
                adapted_oracle.complete_flag(chain, width)


def random_chain(rng, width):
    """Strictly decreasing nested chain from the full space: each level is a
    random subspace of the previous one."""
    ambient = tuple(tuple(Fraction(1 if i == j else 0) for j in range(width))
                    for i in range(width))
    chain = [ambient]
    current = ambient
    dim = width
    while dim > 1:
        dim = rng.randint(1, dim - 1)
        while True:
            combos = []
            for _ in range(dim):
                coeffs = [rng.randint(-3, 3) for _ in current]
                combos.append(tuple(
                    sum(c * row[j] for c, row in zip(coeffs, current))
                    for j in range(width)))
            basis = rref(combos)
            if len(basis) == dim:
                chain.append(basis)
                current = basis
                break
        if rng.random() < 0.4:
            break
    return chain


class TestCommonAdaptedBasis:
    def test_hundred_random_flag_pairs(self):
        rng = random.Random(7)
        for trial in range(100):
            width = rng.choice([2, 3, 3, 4])
            F = random_chain(rng, width)
            G = random_chain(rng, width)
            basis = cell_basis(F, G, width)
            assert len(basis) == width and rank(basis) == width
            assert adapted(basis, F)
            assert adapted(basis, G)

    def test_matches_rank_table_oracle(self):
        rng = random.Random(19)
        for trial in range(100):
            width = rng.randint(2, 8)
            F = random_chain(rng, width)
            G = random_chain(rng, width)
            assert cell_basis(F, G, width) == \
                adapted_oracle.common_adapted_basis(F, G, width)

    def test_cells_record_flag_depths(self):
        rng = random.Random(23)
        for _ in range(30):
            width = rng.randint(2, 6)
            F = random_chain(rng, width)
            G = random_chain(rng, width)
            flag_f = flag_of(F, width)
            flag_g = flag_of(G, width)
            cells = adapted_cells(F, G, width)
            assert sorted(b for _, b, _ in cells) == list(range(1, width + 1))
            for a, b, vec in cells:
                for flag, dim in ((flag_f, a), (flag_g, b)):
                    assert in_span(vec, flag[width - dim])
                    assert not in_span(vec, flag[width - dim + 1])

    def test_adapted_predicate_rejects_bad_basis(self):
        chain = [frac_rows([(1, 0), (0, 1)]), rref([(1, 0)])]
        # (1,1) and (0,1) span the plane but neither spans the line (1,0)
        assert not adapted(frac_rows([(1, 1), (0, 1)]), chain)
        assert adapted(frac_rows([(1, 0), (0, 1)]), chain)

    def test_skew_lines_in_dimension_three(self):
        F = [frac_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
             rref([(1, 0, 0), (0, 1, 0)]), rref([(1, 0, 0)])]
        G = [frac_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
             rref([(0, 1, 0), (0, 0, 1)]), rref([(0, 0, 1)])]
        basis = cell_basis(F, G, 3)
        assert rank(basis) == 3 and adapted(basis, F) and adapted(basis, G)
