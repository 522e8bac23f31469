"""The closed-form profile of a complete intersection against elimination.

``build_profile`` counts the ideal powers of one subscheme whose generators
form a regular sequence with nonempty support by binomial sums, without
forming a row.  ``_generic_profile`` is the exact elimination every such
input took before; it stays the oracle here.
"""

import json
from fractions import Fraction

import pytest

from diophkit import filtration
from diophkit.cli import main
from diophkit.filtration import _generic_profile, adapted_basis, build_profile
from diophkit.graded import (
    CatalogError,
    Subscheme,
    common_support_dim,
    complete_intersection_degrees,
    normalize,
)
from diophkit.polynomials import parse_form

CONIC = "6*x0*x1 + x1^2 - 8*x1*x2 + 4*x2^2"


def subscheme(gens, nvars):
    return Subscheme.from_strings("Y", gens, nvars=nvars)


def squared_form():
    f = parse_form("x0^2 + x1^2", nvars=3)
    return Subscheme("Y", (f * f,))


COMPLETE_INTERSECTIONS = {
    "conic": (subscheme([CONIC], 3), (2,)),
    "plane_cubic": (subscheme(["x1^2*x2 - x0^3 - x0*x2^2"], 3), (3,)),
    "quadric_surface": (subscheme(["x0*x1 - x2*x3"], 4), (2,)),
    "squared_form": (squared_form(), (4,)),
    "line_and_conic": (subscheme(["x0 + x1 + x2", "x1^2 + x2^2 - x0^2"], 3),
                       (1, 2)),
    "plane_and_quadric": (subscheme(["x0 + x1", "x2^2 - x0*x3"], 4), (1, 2)),
    "plane_and_cubic": (subscheme(["x0 - x1", "x1^3 + x2^2*x0 + x3^3"], 4),
                        (1, 3)),
}
WEIGHTS = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]


@pytest.mark.parametrize("name", sorted(COMPLETE_INTERSECTIONS))
def test_classifier_returns_generator_degrees(name):
    Y, degrees = COMPLETE_INTERSECTIONS[name]
    assert normalize([Y]) is None
    assert complete_intersection_degrees(Y) == degrees


@pytest.mark.parametrize("w", WEIGHTS, ids=str)
@pytest.mark.parametrize("name", sorted(COMPLETE_INTERSECTIONS))
def test_closed_form_equals_elimination(name, w):
    Y, degrees = COMPLETE_INTERSECTIONS[name]
    for N in range(2 * max(degrees) + 2):
        assert build_profile([Y], (w,), N) == _generic_profile([Y], (w,), N)


def test_closed_form_builds_no_rows(monkeypatch):
    expected = build_profile([COMPLETE_INTERSECTIONS["conic"][0]], (1,), 6)

    def no_elimination(*args, **kwargs):
        raise AssertionError("a complete intersection reached elimination")

    monkeypatch.setattr(filtration, "_generic_profile", no_elimination)
    monkeypatch.setattr(filtration, "_piece_rows", no_elimination)
    got = build_profile([COMPLETE_INTERSECTIONS["conic"][0]], (1,), 6)
    assert got == expected
    # dim (I^m)_6 = C(8 - 2m, 2) for a plane conic
    assert [d for _, d in got.jumps] == [28, 15, 6, 1]


NOT_COMPLETE_INTERSECTIONS = {
    # x0*x1 lies in (x0): not a regular sequence
    "not_regular": subscheme(["x0", "x0*x1"], 3),
    # three generators cutting a codimension-2 scheme
    "dependent_linear": subscheme(["x0", "2*x0", "x1^2 + x2^2"], 3),
    # the two lines meet in a point off the conic: empty support
    "empty_support": subscheme(["x0", "x1", "x2^2 + x0*x1"], 3),
}


@pytest.mark.parametrize("name", sorted(NOT_COMPLETE_INTERSECTIONS))
def test_classifier_rejects(name):
    Y = NOT_COMPLETE_INTERSECTIONS[name]
    assert normalize([Y]) is None
    assert complete_intersection_degrees(Y) is None
    for N in range(5):
        assert build_profile([Y], (1,), N) == _generic_profile([Y], (1,), N)


def test_classifier_rejects_outside_the_support_catalog():
    Y = subscheme(["x0^2 + x1^2", "x1*x2 + x0^2"], 3)
    with pytest.raises(CatalogError):
        common_support_dim([Y])
    assert complete_intersection_degrees(Y) is None
    for N in range(6):
        assert build_profile([Y], (1,), N) == _generic_profile([Y], (1,), N)


@pytest.fixture
def no_classifier(monkeypatch):
    def refuse(Y):
        raise AssertionError("the classifier was consulted")

    monkeypatch.setattr(filtration, "complete_intersection_degrees", refuse)


def test_bases_multiple_subschemes_and_normalized_inputs_skip_classifier(
        no_classifier):
    conic = COMPLETE_INTERSECTIONS["conic"][0]
    line = subscheme(["x0 + x1"], 3)
    with_bases = build_profile([conic], (1,), 4, with_bases=True)
    assert with_bases == _generic_profile([conic], (1,), 4, with_bases=True)
    both = build_profile([conic, line], (1, Fraction(1, 2)), 4)
    assert both == _generic_profile([conic, line], (1, Fraction(1, 2)), 4)
    # a line is a complete intersection too, but normalize takes it first
    assert build_profile([line], (1,), 4).jumps == ((0, 15), (1, 10), (2, 6),
                                                    (3, 3), (4, 1))


def test_adapted_basis_on_conic_keeps_its_bases(no_classifier, capsys):
    conic = COMPLETE_INTERSECTIONS["conic"][0]
    code = main(["adapted-basis", "--space", "P2", "--ideals", CONIC,
                 "--weights", "1", "--N", "4", "--output", "json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    oracle = adapted_basis(_generic_profile([conic], (1,), 4, with_bases=True))
    assert [row["element"] for row in got] == \
        [f.to_string() for f in oracle.elements]
    assert [row["mu"] for row in got] == [str(m) for m in oracle.mu_values]
