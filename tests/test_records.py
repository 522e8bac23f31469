"""The records the library returns are plain classes with hand-written
constructors.  What they keep of value semantics, and the field order the
command line emits through `vars()`, is pinned here."""

import pytest

from diophkit import beta, experiments, filtration, graded
from diophkit.heights import PLACE_INF, Place, PlaceSet


def sub(label, gens, nvars=3):
    return graded.Subscheme.from_strings(label, gens, nvars=nvars)


class TestValueTypes:
    def test_place_equality_and_hash(self):
        assert Place(3) == Place(3) and Place(3) != Place(5)
        assert Place() == PLACE_INF != Place(2)
        assert Place(2) != 2
        assert hash(Place(7)) == hash(Place(7))
        assert len({Place(2), Place(2), Place(), PLACE_INF}) == 2

    def test_place_sort_order(self):
        assert sorted([Place(5), Place(2), PLACE_INF, Place(3)]) == \
            [PLACE_INF, Place(2), Place(3), Place(5)]

    def test_place_set_hash(self):
        a = PlaceSet.from_string("inf,3,2")
        b = PlaceSet([Place(2), PLACE_INF, Place(3)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PlaceSet.from_string("inf,2")

    def test_hashed_place_rejects_assignment(self):
        place = Place(2)
        with pytest.raises(AttributeError):
            place.p = 3
        with pytest.raises(AttributeError):
            PLACE_INF.label = "inf"
        assert place.p == 2 and PLACE_INF.p is None

    def test_subscheme_json_round_trip(self):
        for Y in (sub("L", ["x0 + x1"]), sub("C", ["x0*x1 - x2^2", "x0"]),
                  sub("P", ["x0", "x1 - 1/2*x3"], 4)):
            assert graded.Subscheme.from_json(Y.to_json()) == Y
        assert sub("L", ["x0"]) != sub("M", ["x0"])
        assert sub("L", ["x0"]) != sub("L", ["x1"])

    def test_default_height_floor(self):
        assert experiments.InequalityConfig.min_height_norm == 10
        assert experiments.four_lines_config().min_height_norm == 10


class TestEmittedFieldOrder:
    """`cli` writes `vars(record)`, so the key order of each record's
    `__dict__` is the column order of its csv and the key order of its json."""

    def test_beta_records(self):
        Y = sub("P", ["x0", "x1"])
        assert list(vars(beta.beta_truncated(Y, 1, 2))) == \
            ["N", "numerator", "denominator", "value", "terms"]
        assert list(vars(beta.beta_blowup_crosscheck(Y, 1, 2))) == \
            ["terms", "blowup_terms", "value"]
        assert list(vars(beta.beta_convergence(Y, 1, 2)[0])) == \
            ["N", "numerator", "denominator", "value", "min_so_far"]

    def test_position_report(self):
        rep = graded.check_general_position([sub("A", ["x0"]), sub("B", ["x1"])])
        assert list(vars(rep)) == ["ok", "witness"]

    def test_bound_report(self):
        rep = filtration.concavity_bound([sub("A", ["x0"]), sub("B", ["x1"])],
                                         (1, 1), ("1/2", "1/2"), 2)
        assert list(vars(rep)) == ["lhs", "rhs", "per_subscheme", "hypotheses_met"]

    def test_four_lines_row(self):
        row = experiments.four_lines_table(1)[0]
        assert list(vars(row)) == ["l", "A_self", "A_dot_D", "xi", "beta",
                                   "epsilon", "seshadri_side", "beta_lower"]

    def test_scan_row_matches_csv_header(self):
        report = experiments.scan_inequality(experiments.four_lines_config(),
                                             bound=2, keep_rows=True)
        assert list(vars(report.rows[0])) == list(experiments._SCAN_COLUMNS)
        assert list(report.rows[0].to_json()) == list(experiments._SCAN_COLUMNS)


def test_profile_constructor_calls_post_init(monkeypatch):
    # the benchmark tracer times profile checks by rebinding __post_init__
    calls = []
    check = filtration.FiltrationProfile.__post_init__
    monkeypatch.setattr(filtration.FiltrationProfile, "__post_init__",
                        lambda self: calls.append(check(self)))
    filtration.build_profile([sub("A", ["x0"])], (1,), 2)
    assert len(calls) == 1
