"""The one-pass generic profile against the per-candidate rank sweep.

``generic_oracle.generic_profile`` and ``generic_mu`` walk the values t.b
downwards once, growing a single integer row space.  ``sweep_oracle``
recomputes every candidate from scratch the old way.  Profiles, bases and
mu values must agree exactly on dependent families (which ``normalize``
cannot reach), zero weights, a lone conic and generators of mixed degree.
"""

import itertools
from fractions import Fraction

import pytest

from diophkit.filtration import build_profile, mu_value
from diophkit.graded import Subscheme, normalize
from diophkit.polynomials import HomogeneousForm, monomial_exponents, parse_form

from generic_oracle import generic_profile
from sweep_oracle import sweep_mus, sweep_profile


def lines(*gens):
    return [Subscheme.from_strings("L%d" % i, [g], nvars=3) for i, g in enumerate(gens)]


# the paper's four lines, and the same lines after a change of coordinates
FOUR = lines("x0", "x1", "x2", "x0 + x1 + x2")
TILTED = lines("2*x0 + 2*x1 + x2", "x1 - 2*x2", "x1 + x2", "2*x0 + 4*x1")
PAPER_T = (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
CONIC = [Subscheme.from_strings("C", ["x0^2 + x1^2 - x2^2"], nvars=3)]
# a conic and a line in one subscheme: every piece mixes products that fit
# in degree N with products of the conic's powers that must be skipped
MIXED = [Subscheme.from_strings("Q", ["x0^2 + x1*x2", "x1 + x2"], nvars=3),
         Subscheme.from_strings("L", ["x0 - x2"], nvars=3)]

# (family, weights, largest N for profiles, largest N for mu).  The
# sweep's cost grows fast with N and with the number of distinct values t.b,
# and its mu bisection starts at the top of the order box, so unequal weights
# and mu stop earlier.
CASES = [
    ("four", FOUR, (1, 1, 1, 1), 4, 2),
    ("tilted", TILTED, (1, 1, 1, 1), 4, 2),
    ("four", FOUR, (2, 1, 1, 1), 4, 2),
    ("tilted", TILTED, (2, 1, 1, 1), 4, 2),
    ("four", FOUR, (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 3, 1),
    ("tilted", TILTED, (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 3, 1),
    ("four", FOUR, PAPER_T, 2, 2),
    ("tilted", TILTED, PAPER_T, 2, 2),
    ("four-zero-weights", FOUR, (1, 0, Fraction(1, 2), 0), 4, 3),
    ("tilted-zero-weights", TILTED, (0, Fraction(2, 3), 0, 1), 4, 3),
    ("conic", CONIC, (1,), 6, 3),
    ("conic-half", CONIC, (Fraction(1, 2),), 6, 3),
    ("mixed", MIXED, (1, Fraction(1, 2)), 5, 3),
    ("mixed-zero-weight", MIXED, (0, 1), 4, 3),
]


def expand(column):
    cases, ids = [], []
    for case in CASES:
        name, Ys, t = case[:3]
        for N in range(1, case[column] + 1):
            cases.append((Ys, t, N))
            ids.append("%s-t%s-N%d" % (name, "_".join(map(str, t)), N))
    return cases, ids


PROFILE_CASES, PROFILE_IDS = expand(3)
MU_CASES, MU_IDS = expand(4)


@pytest.mark.parametrize("Ys,t,N", PROFILE_CASES, ids=PROFILE_IDS)
def test_profile_and_bases_match_sweep(Ys, t, N):
    assert normalize(Ys) is None
    new = generic_profile(Ys, t, N, with_bases=True)
    old = sweep_profile(Ys, t, N, with_bases=True)
    assert new.jumps == old.jumps
    assert new.bases == old.bases
    assert build_profile(Ys, t, N).jumps == old.jumps


def forms_for(Ys, N):
    """Test forms of degree N: two monomials, products of two generators
    padded with x0, and a sum that mixes depths."""
    nvars = Ys[0].nvars
    monos = monomial_exponents(N, nvars)
    out = [HomogeneousForm.monomial(monos[0]), HomogeneousForm.monomial(monos[-1])]
    gens = [g for Y in Ys for g in Y.generators]
    for f, g in itertools.combinations_with_replacement(gens, 2):
        gap = N - f.degree - g.degree
        if gap >= 0:
            out.append(f * g * parse_form("x0^%d" % gap, nvars=nvars))
    out.append(out[-1] + out[0])
    return out


@pytest.mark.parametrize("Ys,t,N", MU_CASES, ids=MU_IDS)
def test_mu_matches_sweep(Ys, t, N):
    forms = forms_for(Ys, N)
    assert [mu_value(s, Ys, t) for s in forms] == sweep_mus(forms, Ys, t)


@pytest.mark.parametrize("N", [6, 8])
def test_tilted_four_lines_equal_untilted(N):
    """The profile does not see a change of coordinates.  The sweep took
    187 s at N = 6 and did not finish in six minutes at N = 8."""
    assert build_profile(TILTED, PAPER_T, N).jumps == \
        build_profile(FOUR, PAPER_T, N).jumps
