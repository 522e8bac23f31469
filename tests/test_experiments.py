"""Point enumeration, the inequality scanner, and the four-line preset."""

import ast
import csv
import io
import itertools
import json
import math
import operator
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophkit import experiments
from diophkit.cli import main
from diophkit.experiments import (
    ConfigError,
    FourLinesRow,
    InequalityConfig,
    ScanReport,
    ScanRow,
    four_lines,
    four_lines_config,
    four_lines_exclusions,
    four_lines_table,
    sample_points,
    scan_inequality,
    _scan_source,
)
from diophkit.graded import Subscheme
from diophkit.heights import PLACE_INF, Place, PlaceSet, ProjectivePoint, weil_norm
from diophkit.polynomials import HomogeneousForm, monomial_exponents


GOLDEN = Path(__file__).parent / "golden"


def sub(label, gens, nvars):
    return Subscheme.from_strings(label, gens, nvars=nvars)


def brute_points(n, bound):
    """Canonical representatives reached from the full coordinate box."""
    seen = set()
    for tup in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        if any(tup):
            seen.add(ProjectivePoint(tup).coords)
    return seen


class TestSamplePoints:
    def test_line_counts(self):
        assert len(sample_points(1, 1)) == 4
        assert len(sample_points(1, 2)) == 8

    def test_plane_count(self):
        assert len(sample_points(2, 2)) == 49

    def test_matches_canonicalization(self):
        for n, bound in ((1, 3), (2, 2), (3, 2)):
            pts = sample_points(n, bound)
            assert len(set(pts)) == len(pts)
            assert set(pts) == brute_points(n, bound)

    def test_canonical_and_ordered(self):
        pts = sample_points(2, 2)
        assert pts == sorted(pts)
        for tup in pts:
            assert math.gcd(*tup) == 1
            assert next(c for c in tup if c != 0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_points(0, 3)
        with pytest.raises(ValueError):
            sample_points(1, 0)
        # bool is a subclass of int, and True is not a dimension or bound
        with pytest.raises(ValueError):
            sample_points(True, 2)
        with pytest.raises(ValueError):
            sample_points(2, True)


def simple_config(**overrides):
    kw = dict(
        subschemes=(sub("H", ["x0"], 2),),
        betas=(Fraction(1, 3),),
        places=PlaceSet.from_string("inf,2,3,5"),
        epsilon=Fraction(1, 2),
    )
    kw.update(overrides)
    return InequalityConfig(**kw)


class TestConfigValidation:
    def test_accepts_simple(self):
        cfg = simple_config()
        assert cfg.nvars == 2
        assert cfg.min_height_norm == 10

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            simple_config(subschemes=())
        with pytest.raises(ConfigError):
            simple_config(betas=(Fraction(1, 3), Fraction(1, 3)))
        with pytest.raises(ConfigError):
            simple_config(betas=(Fraction(-1, 3),))
        with pytest.raises(ConfigError):
            simple_config(epsilon=0)
        with pytest.raises(ConfigError):
            simple_config(exclusions=(sub("Z", ["x0"], 3),))
        with pytest.raises(ConfigError):
            simple_config(min_height_norm=0)
        with pytest.raises(ConfigError):
            InequalityConfig(
                subschemes=(sub("A", ["x0"], 2), sub("B", ["x0"], 3)),
                betas=(1, 1), places=PlaceSet.from_string("inf"),
                epsilon=1)
        # a place set without inf, as Places or as bare primes
        with pytest.raises(ConfigError, match="infinite place"):
            simple_config(places=(Place(2),))
        with pytest.raises(ConfigError, match="infinite place"):
            simple_config(places=[2, 3])

    def test_places_are_a_place_set(self):
        cfg = simple_config(places=[3, None, 2])
        assert cfg.places == PlaceSet.from_string("inf,2,3")
        assert cfg.to_json()["places"] == ["inf", "2", "3"]
        assert scan_inequality(cfg, bound=3).to_json() == \
            scan_inequality(simple_config(places=PlaceSet.from_string("inf,2,3")),
                            bound=3).to_json()

    def test_rejects_booleans(self):
        with pytest.raises(ConfigError):
            simple_config(min_height_norm=True)
        with pytest.raises(ConfigError):
            simple_config(betas=(True,))
        with pytest.raises(ConfigError):
            simple_config(epsilon=True)
        data = simple_config().to_json()
        data["min_height_norm"] = True
        with pytest.raises(ConfigError):
            InequalityConfig.from_json(data)
        # JSON true is not read as the weight or slack 1
        for key, value in (("betas", [True]), ("epsilon", True)):
            data = simple_config().to_json()
            data[key] = value
            with pytest.raises(ConfigError, match="not booleans"):
                InequalityConfig.from_json(data)

    # a value that cannot be read names its key, whatever its parser raises
    @pytest.mark.parametrize("key,value,message", [
        ("epsilon", "1/0", "'1/0' has a zero denominator"),
        ("betas", ["x"], "Invalid literal for Fraction: 'x'"),
        ("places", ["inf", "4"], "not a place: '4'"),
        ("subschemes", [{"label": "H", "nvars": 2, "generators": ["x0 +"]}],
         "dangling sign at end of input"),
    ], ids=["zero-denominator", "not-a-number", "not-a-place", "bad-generator"])
    def test_bad_value_names_its_key(self, key, value, message):
        data = simple_config().to_json()
        data[key] = value
        with pytest.raises(ConfigError) as info:
            InequalityConfig.from_json(data)
        assert str(info.value) == "bad %r in configuration: %s" % (key, message)

    def test_json_round_trip(self):
        cfg = four_lines_config()
        blob = json.dumps(cfg.to_json())
        again = InequalityConfig.from_json(json.loads(blob))
        assert again.to_json() == cfg.to_json()

    def test_json_without_floor_uses_field_default(self):
        data = simple_config().to_json()
        del data["min_height_norm"]
        assert InequalityConfig.from_json(data).min_height_norm == 10


class TestScanBasics:
    def test_counters_must_add_up(self):
        with pytest.raises(ValueError):
            ScanReport(total=5, skipped=1, excluded=1, evaluated=2,
                       zero_height=0, low_height_hits=0, violations=())

    def test_needs_bound_or_points(self):
        with pytest.raises(ValueError):
            scan_inequality(simple_config())
        with pytest.raises(ValueError):
            scan_inequality(simple_config(), bound=0)
        with pytest.raises(ValueError):
            scan_inequality(simple_config(), bound=True)

    def test_single_hyperplane_clean(self):
        cfg = simple_config()
        report = scan_inequality(cfg, bound=3)
        pts = sample_points(1, 3)
        assert report.total == len(pts)
        assert report.skipped == sum(
            1 for t in pts if cfg.subschemes[0].vanishes_at(t))
        assert report.excluded == 0
        assert report.clean and report.low_height_hits == 0

    def test_zero_height_counter(self):
        report = scan_inequality(simple_config(), bound=1)
        # (0,1) is on the hyperplane; the three unit points remain
        assert report.total == 4
        assert report.skipped == 1
        assert report.evaluated == report.zero_height == 3

    def test_explicit_point_list(self):
        report = scan_inequality(simple_config(),
                                 points=[(1, 2), (1, 3), (0, 1)])
        assert report.total == 3
        assert report.skipped == 1 and report.evaluated == 2

    def test_explicit_points_are_canonicalized(self):
        cfg = four_lines_config()
        want = scan_inequality(cfg, points=[(1, 2, 3)], keep_rows=True)
        assert want.rows[0].point == "1:2:3"
        assert want.rows[0].height_norm == 3
        for raw in [(2, 4, 6), (-1, -2, -3), (Fraction(1, 2), 1, Fraction(3, 2)),
                    ProjectivePoint((2, 4, 6))]:
            got = scan_inequality(cfg, points=[raw], keep_rows=True)
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_explicit_points_of_p0(self, keep_rows):
        # the one point of P^0 is a line with an empty prefix
        cfg = simple_config(subschemes=(sub("A", ["2*x0"], 1),),
                            min_height_norm=1)
        points = [(3,), (-2,), (Fraction(1, 2),)]
        got = scan_inequality(cfg, points=points, keep_rows=keep_rows)
        want = reference_scan(cfg, points, keep_rows=keep_rows)
        assert got.to_json() == want.to_json()
        assert got.evaluated == got.zero_height == 3
        assert_csv_form(cfg, want, points=points, keep_rows=keep_rows)

    def test_explicit_points_rejected(self):
        with pytest.raises(ValueError):
            scan_inequality(simple_config(), points=[(0, 0)])
        with pytest.raises(ValueError):
            scan_inequality(simple_config(), points=[(1, 2, 3)])

    def test_keep_rows(self, capsys, tmp_path):
        config = simple_config()
        report = scan_inequality(config, bound=2, keep_rows=True)
        assert len(report.rows) == report.evaluated
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json()))
        code = main(["scan", "--config", str(path), "--bound", "2",
                     "--keep-rows", "--output", "csv"])
        assert code == (3 if report.violations else 0)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == \
            "point,height_norm,proximities,lhs_log,rhs_log,ratio,violated"
        assert len(lines) == 1 + len(report.rows)

    def test_report_json_round_trip(self):
        # reports are written, never read back: the JSON text holds the
        # report's to_json unchanged
        data = scan_inequality(simple_config(), bound=2, keep_rows=True).to_json()
        assert json.loads(json.dumps(data)) == data

    def test_csv_form_has_no_json(self):
        report = scan_inequality(four_lines_config(), bound=2, keep_rows=True,
                                 csv_rows=True)
        with pytest.raises(ValueError, match="holds csv lines"):
            report.to_json()

    def test_bound_and_points_together(self):
        with pytest.raises(ValueError, match="not both"):
            scan_inequality(four_lines_config(), bound=3, points=[(1, 2, 3)])


class TestScanViolations:
    """An overweight configuration must trip the scanner, split by the
    height floor."""

    def make(self):
        return simple_config(betas=(Fraction(5),))

    def test_violations_found_and_split(self):
        report = scan_inequality(self.make(), bound=12)
        assert report.violations
        assert report.low_height_hits > 0
        assert all(r.violated for r in report.violations)
        assert all(r.height_norm >= 10 for r in report.violations)
        assert not report.clean

    def test_decision_is_exact(self):
        # recompute one flagged row by hand
        cfg = self.make()
        report = scan_inequality(cfg, bound=12)
        row = report.violations[0]
        P = ProjectivePoint.from_string(row.point)
        q = Fraction(1)
        for v in cfg.places:
            q *= weil_norm(cfg.subschemes[0], P, v)
        lhs = q ** 10  # d = 2, beta d = 10
        rhs = Fraction(row.height_norm) ** 3  # (1 + 1/2) d = 3
        assert lhs > rhs


def reference_points(n, bound):
    """The sample by filtering the whole coordinate box."""
    return [tup for tup in itertools.product(range(-bound, bound + 1),
                                             repeat=n + 1)
            if next((c for c in tup if c != 0), 0) > 0 and math.gcd(*tup) == 1]


def reference_scan(config, points, keep_rows=False):
    """The Fraction scanner: each generator evaluated through
    Subscheme.vanishes_at and again through weil_norm at every place, the
    inequality decided by comparing Fractions."""
    one_plus_eps = 1 + config.epsilon
    d = math.lcm(one_plus_eps.denominator,
                 *(b.denominator for b in config.betas))
    exps = [int(d * b) for b in config.betas]
    rhs_exp = int(d * one_plus_eps)
    total = skipped = excluded = evaluated = zero_height = 0
    violations, low_hits = [], []
    rows = [] if keep_rows else None
    best = best_ratio = None
    for tup in points:
        total += 1
        P = ProjectivePoint(tup)
        if any(Y.vanishes_at(P.coords) for Y in config.subschemes):
            skipped += 1
            continue
        if any(Z.vanishes_at(P.coords) for Z in config.exclusions):
            excluded += 1
            continue
        evaluated += 1
        H = max(abs(c) for c in P.coords)
        zero_height += H == 1
        lhs_exact = Fraction(1)
        lhs_log = 0.0
        proxim = []
        for Y, e, b in zip(config.subschemes, exps, config.betas):
            q = Fraction(1)
            for place in config.places:
                q *= weil_norm(Y, P, place)
            lhs_exact *= q ** e
            proxim.append(math.log(q))
            lhs_log += float(b) * proxim[-1]
        violated = lhs_exact > Fraction(H) ** rhs_exp
        rhs_log = float(one_plus_eps) * math.log(H)
        ratio = lhs_log / rhs_log if H > 1 else None
        row = ScanRow(str(P), H, tuple(proxim), lhs_log, rhs_log, ratio,
                      violated)
        if violated:
            (violations if H >= config.min_height_norm else low_hits).append(row)
        if ratio is not None and (best_ratio is None or ratio > best_ratio):
            best, best_ratio = row, ratio
        if keep_rows:
            rows.append(row)
    return ScanReport(total, skipped, excluded, evaluated, zero_height,
                      len(low_hits), tuple(violations), best,
                      None if rows is None else tuple(rows))


DIFFERENTIAL_CASES = {
    # primes 2 and 3 divide coefficient denominators; 7 divides none
    "fractional": (dict(
        subschemes=(sub("Q", ["1/2*x0^2 + 3/4*x1^2 - x2^2"], 3),
                    sub("L", ["2/3*x1 - x2"], 3)),
        betas=(Fraction(1, 4), Fraction(1, 3)),
        places=PlaceSet.from_string("inf,2,3,7")), 6),
    "multi_generator": (dict(
        subschemes=(sub("P", ["x0 - x2", "x1 - 2*x2"], 3),
                    sub("C", ["x0*x1 - 5/3*x2^2", "3/10*x0^2 + x1*x2"], 3),
                    sub("H", ["x0 + x1 - x2"], 3)),
        betas=(Fraction(1, 2), Fraction(1, 5), Fraction(1, 3)),
        places=PlaceSet.from_string("inf,2,3,5")), 5),
    "exclusions_p3": (dict(
        subschemes=(sub("A", ["x0 + x1 + x2 + x3"], 4),
                    sub("M", ["x0 - 1/2*x3", "x1 + x2"], 4)),
        betas=(Fraction(1, 3), Fraction(1, 2)),
        places=PlaceSet.from_string("inf,2,5"),
        exclusions=(sub("E", ["x0 - x1"], 4),
                    sub("F", ["x2", "x3 - 3*x1"], 4))), 2),
    # the paper's four lines with their exclusions: each hyperplane value
    # recurs at many points of one height
    "four_lines": (dict(
        subschemes=four_lines(), betas=(Fraction(1, 3),) * 4,
        exclusions=four_lines_exclusions()), 8),
    # c = 14 but c' = 7 for the line, c = 21 but c' = 7 for the point: the
    # prime 7 of the denominators lies outside S
    "denominator_outside_s": (dict(
        subschemes=(sub("H", ["3/14*x0 - x1 + 5/2*x2"], 3),
                    sub("P", ["x0 - 2/7*x2", "x1 + 1/3*x2"], 3)),
        betas=(Fraction(2, 3), Fraction(1, 2)),
        places=PlaceSet.from_string("inf,2,3")), 6),
    # memoized beyond hyperplanes: degrees 2 and 1 + 1 stay below n = 3,
    # and the two-form line is keyed by the tuple of its values; c' = 5
    # for the quadric certifies H = 3 but not H <= 2, so both kinds of
    # height read the memos
    "quadric_line_p3": (dict(
        subschemes=(sub("Q", ["x0*x3 - 3/2*x1*x2 + 1/5*x2^2"], 4),
                    sub("L", ["x0 - 1/3*x3", "1/2*x1 + x2"], 4),
                    sub("A", ["x0 + x1 - 2*x2 + x3"], 4)),
        betas=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)),
        places=PlaceSet.from_string("inf,2,3"), epsilon=Fraction(1)), 3),
    # generators of degrees 1 and 2: the archimedean minimum is taken by
    # cross-multiplying c' H^deg against |G(x)|; c' = 2 certifies H = 8 but
    # no lower height, so both paths compare them
    "mixed_degrees": (dict(
        subschemes=(sub("T", ["x0 - 1/2*x2", "x1^2 - x0*x2"], 3),
                    sub("H", ["x0 + x1 - x2"], 3)),
        betas=(Fraction(1, 2), Fraction(1, 3)),
        places=PlaceSet.from_string("inf,3,5")), 8),
    # a single cubic, whose degree is not below n, is not memoized
    "cubic": (dict(
        subschemes=(sub("K", ["x0^3 + 2*x1^2*x2 - 3/2*x2^3"], 3),
                    sub("L", ["x0 - x1"], 3)),
        betas=(Fraction(1, 4), Fraction(1, 3)),
        places=PlaceSet.from_string("inf,2,3")), 6),
    # exclusions of two generators each, the points 1:1:0 and 2:1:-1
    "point_exclusions": (dict(
        subschemes=(sub("L", ["x0 + x1 + x2"], 3),
                    sub("C", ["x0*x1 - x2^2"], 3)),
        betas=(Fraction(1, 3), Fraction(1, 4)),
        places=PlaceSet.from_string("inf,2,5"),
        exclusions=(sub("E", ["x0 - x1", "x2"], 3),
                    sub("F", ["x0 - 2*x1", "x1 + x2"], 3))), 6),
    # P^1, where a line has no middle coordinates, with no finite place
    "p1": (dict(
        subschemes=(sub("A", ["x0"], 2), sub("B", ["x0 - 3*x1"], 2),
                    sub("Q", ["x0^2 + x1^2"], 2)),
        betas=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)),
        places=PlaceSet.from_string("inf"),
        exclusions=(sub("Z", ["x0 + x1"], 2),)), 14),
    # violations on both sides of the height floor
    "overweight": (dict(
        subschemes=(sub("L", ["x0 - 3/2*x1"], 2),),
        betas=(Fraction(5),),
        places=PlaceSet.from_string("inf,2,3,5")), 14),
}


def csv_line(row):
    """The line csv.writer writes for a row's cells: each float as
    "%.12g", the ratio of a height-1 row empty and violated as 0 or 1."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([
        row.point, row.height_norm,
        ";".join("%.12g" % q for q in row.proximities), "%.12g" % row.lhs_log,
        "%.12g" % row.rhs_log, "" if row.ratio is None else "%.12g" % row.ratio,
        int(row.violated)])
    return out.getvalue()


def assert_csv_form(cfg, want, **kw):
    """The csv form of a scan has want's counters, and its violations and
    kept rows are the csv lines of want's; it reports no best row."""
    got = scan_inequality(cfg, csv_rows=True, **kw)
    for key in ("total", "skipped", "excluded", "evaluated", "zero_height",
                "low_height_hits"):
        assert getattr(got, key) == getattr(want, key)
    assert got.violations == tuple(map(csv_line, want.violations))
    assert got.rows == (None if want.rows is None
                        else tuple(map(csv_line, want.rows)))
    assert got.max_ratio_row is None


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_kernel_matches_fraction_scanner(self, name, keep_rows):
        kw, bound = DIFFERENTIAL_CASES[name]
        cfg = simple_config(**kw)
        got = scan_inequality(cfg, bound=bound, keep_rows=keep_rows)
        want = reference_scan(cfg, reference_points(cfg.nvars - 1, bound),
                              keep_rows=keep_rows)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_csv_form_matches_fraction_scanner(self, name, keep_rows):
        kw, bound = DIFFERENTIAL_CASES[name]
        cfg = simple_config(**kw)
        want = reference_scan(cfg, reference_points(cfg.nvars - 1, bound),
                              keep_rows=keep_rows)
        assert_csv_form(cfg, want, bound=bound, keep_rows=keep_rows)

    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_explicit_points_with_duplicates(self, keep_rows):
        kw, _ = DIFFERENTIAL_CASES["multi_generator"]
        cfg = simple_config(**kw)
        points = [(1, 2, 3), (2, 4, 6), (-1, -2, -3), (3, -1, 2), (3, -1, 2),
                  (0, 0, -5), (0, 0, 1), (Fraction(1, 2), 1, Fraction(3, 2)),
                  (-4, 2, 2), (2, 4, 2), (5, -7, 11), (-5, 7, -11)]
        got = scan_inequality(cfg, points=points, keep_rows=keep_rows)
        want = reference_scan(cfg, points, keep_rows=keep_rows)
        assert got.to_json() == want.to_json()
        assert_csv_form(cfg, want, points=points, keep_rows=keep_rows)

    @pytest.mark.parametrize("name,memoized", [
        ("fractional", [False, True]),
        ("multi_generator", [False, False, True]),
        ("quadric_line_p3", [True, True, True]),
    ])
    def test_memo_rule(self, name, memoized):
        """A Y_i is memoized per height when it is one linear form or the
        degrees of its generators sum below n: not the conic or the point
        of P^2, but the quadric, the line and the plane of P^3."""
        cfg = simple_config(**DIFFERENTIAL_CASES[name][0])
        source = _scan_source(cfg, [1] * len(cfg.subschemes), 2)
        assert ["m%d.get(" % i in source
                for i in range(len(cfg.subschemes))] == memoized

    def test_overweight_case_splits_at_the_floor(self):
        kw, bound = DIFFERENTIAL_CASES["overweight"]
        report = scan_inequality(simple_config(**kw), bound=bound)
        assert report.violations and report.low_height_hits > 0


def kernel_source(cfg, csv_rows=False):
    """The scan function's text for cfg, with the exponents d beta_i and
    d (1 + epsilon) that scan_inequality passes."""
    one_plus_eps = 1 + cfg.epsilon
    d = math.lcm(one_plus_eps.denominator, *(b.denominator for b in cfg.betas))
    return _scan_source(cfg, [int(d * b) for b in cfg.betas],
                        int(d * one_plus_eps), csv_rows)


# the benchmark's scan shapes, each with the memo rule's verdict per Y_i:
# the four lines; a conic, a line and a point of the plane; two planes, a
# quadric and a line of space
KERNEL_SHAPES = {
    "four_lines": (four_lines_config(), [True] * 4),
    "plane": (simple_config(
        subschemes=(sub("C", ["x0^2 + x1^2 - x2^2"], 3),
                    sub("L", ["x0 + 2*x1 - x2"], 3),
                    sub("P", ["x0 - x2", "x1 - x2"], 3)),
        betas=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 3)),
        places=PlaceSet.from_string("inf,2,3,5,7")), [False, True, False]),
    "space": (simple_config(
        subschemes=(sub("A", ["x0 + x1 + x2 + x3"], 4),
                    sub("B", ["x0 - x1 + 2*x2"], 4),
                    sub("Q", ["x0*x3 - x1*x2"], 4),
                    sub("M", ["x0 - x3", "x1 + x2"], 4)),
        betas=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4)),
        places=PlaceSet.from_string("inf,2,3")), [True] * 4),
}


class TestKernelSource:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    def test_only_integers_and_indices_are_written(self, name):
        """The scan function's text, in both forms, holds no weight: the
        only float literal in it is the 0.0 that starts the sum of logs,
        and the weights come in as values."""
        cfg = simple_config(**DIFFERENTIAL_CASES[name][0])
        for source in (kernel_source(cfg), kernel_source(cfg, csv_rows=True)):
            assert re.findall(r"\b\d+\.\d*", source) == ["0.0"]
            assert "1/" not in source and "Fraction" not in source

    @pytest.mark.parametrize("name", sorted(KERNEL_SHAPES))
    def test_one_block_per_subscheme(self, name):
        """Every height runs the same block per Y_i, in both forms, so a
        memo is read in one place; the height certificate only skips the
        comparison, which alone raises the factors of an unmemoized Y_i."""
        cfg, memoized = KERNEL_SHAPES[name]
        for source in (kernel_source(cfg), kernel_source(cfg, csv_rows=True)):
            assert "if certified:" not in source
            assert [source.count("m%d.get(" % i)
                    for i in range(len(cfg.subschemes))] == list(map(int, memoized))
            lines = [line.strip() for line in source.splitlines()]
            compare = [line for line in lines if line.startswith("violated = ")]
            assert len(compare) == 1
            assert compare[0].startswith("violated = not certified and ")
            raised = [line for line in lines
                      if re.search(r"\b[nd]\d+ \*\*", line)]
            assert raised == (compare if not all(memoized) else [])

    @pytest.mark.parametrize("name", sorted(KERNEL_SHAPES))
    def test_calls_only_builtins_and_arguments(self, name):
        """Per value the kernel calls builtins, its log and gcd arguments
        and ScanRow, in both forms: the S-free part is a gcd, not a helper.
        Method calls such as .get and .append are not names."""
        cfg, _ = KERNEL_SHAPES[name]
        for source in (kernel_source(cfg), kernel_source(cfg, csv_rows=True)):
            called = {node.func.id for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)}
            assert called <= {"abs", "gcd", "log", "max", "len", "str",
                              "ScanRow"}


def height_exponents(cfg):
    """(c_prod, deg_exp, rhs_exp) of the scan's per-height certificate:
    a height H is certified when c_prod H^deg_exp <= H^rhs_exp."""
    one_plus_eps = 1 + cfg.epsilon
    d = math.lcm(one_plus_eps.denominator, *(b.denominator for b in cfg.betas))
    c_prod, deg_exp = 1, 0
    for Y, b in zip(cfg.subschemes, cfg.betas):
        coeffs = [v for g in Y.generators for v in g.terms.values()]
        c = math.lcm(*(v.denominator for v in coeffs))
        for v in cfg.places:
            if not v.is_infinite:
                while c % v.p == 0:
                    c //= v.p
        c_prod *= c ** int(d * b)
        deg_exp += int(d * b) * max(g.degree for g in Y.generators)
    return c_prod, deg_exp, int(d * one_plus_eps)


class TestHeightCertificate:
    """A height H where c_prod H^deg_exp <= H^(d (1+eps)) is decided once,
    without comparing products; every other height takes the exact path."""

    def check(self, cfg, bound):
        for keep_rows in (False, True):
            got = scan_inequality(cfg, bound=bound, keep_rows=keep_rows)
            want = reference_scan(cfg, reference_points(cfg.nvars - 1, bound),
                                  keep_rows=keep_rows)
            assert got.to_json() == want.to_json()
        return got

    def test_low_heights_exact_high_heights_certified(self):
        # c' = 2 for the first line, since 2 is not in S; delta = 7/6 - 3/2 < 0
        cfg = simple_config(
            subschemes=(sub("A", ["1/2*x0 + x1"], 3), sub("B", ["x2"], 3),
                        sub("C", ["x0 - x1 + x2"], 3)),
            betas=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
            places=PlaceSet.from_string("inf,3"), min_height_norm=1)
        c_prod, deg_exp, rhs_exp = height_exponents(cfg)
        assert (c_prod, deg_exp, rhs_exp) == (8, 7, 9)
        certified = [H for H in range(1, 7) if c_prod * H ** deg_exp <= H ** rhs_exp]
        assert certified == [3, 4, 5, 6]
        report = self.check(cfg, 6)
        assert report.violations
        assert {r.height_norm for r in report.violations} <= {1, 2}
        assert max(r.height_norm for r in report.rows) == 6

    def test_positive_delta_takes_the_exact_path(self):
        # sum_i beta_i deg Y_i = 4/3 > 1 + 1/4: only H = 1 is certified
        cfg = four_lines_config(epsilon=Fraction(1, 4), min_height_norm=1)
        c_prod, deg_exp, rhs_exp = height_exponents(cfg)
        assert deg_exp > rhs_exp and c_prod == 1
        report = self.check(cfg, 9)
        assert len(report.violations) > 100

    def test_bound_uses_the_largest_generator_degree(self):
        # on x0 = x2 the linear generator vanishes and the quadric decides,
        # so Q reaches H^2 / |x1^2 - x2^2|': at 1:2:1, Q^2 = 16 > 2^3
        cfg = simple_config(subschemes=(sub("Y", ["x0 - x2", "x1^2 - x2^2"], 3),),
                            betas=(Fraction(1),),
                            places=PlaceSet.from_string("inf,3,5"),
                            min_height_norm=1)
        assert height_exponents(cfg) == (1, 4, 3)
        report = self.check(cfg, 6)
        assert "1:2:1" in [r.point for r in report.violations]

    @pytest.mark.parametrize("beta", [Fraction(1), Fraction(2)])
    def test_hyperplane_values_of_both_signs(self, beta):
        # at H = 5, x0 - 2*x1 is 1 at 5:2:t and -1 at 3:2:5; beta = 1 is
        # certified at every height, beta = 2 at none above 1
        cfg = simple_config(subschemes=(sub("L", ["x0 - 2*x1"], 3),),
                            betas=(beta,), min_height_norm=1)
        H = 5
        values = {p[0] - 2 * p[1] for p in reference_points(2, H)
                  if max(map(abs, p)) == H}
        assert {1, -1} <= values
        report = self.check(cfg, H)
        assert bool(report.violations) == (beta == 2)


def s_free_by_division(v, rad):
    """|v| with every prime dividing rad removed, dividing out gcds until
    none is left: the reference for the kernel's one gcd."""
    v = abs(v)
    g = math.gcd(v, rad)
    while g > 1:
        v //= g
        g = math.gcd(v, g)
    return v


RADICALS = st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])).map(math.prod)


class TestSFreePart:
    """The kernel takes |v|' as |v| // gcd(v, rad^k), k the bit length of
    a bound B >= |v|: 2^k > |v|, so k exceeds ord_p v for every p of S."""

    @given(bound=st.integers(1, 10 ** 40), rad=RADICALS, data=st.data())
    def test_one_gcd_matches_division(self, bound, rad, data):
        v = data.draw(st.integers(-bound, bound).filter(bool), label="v")
        assert abs(v) // math.gcd(v, rad ** bound.bit_length()) == \
            s_free_by_division(v, rad)

    # |v| itself is the tightest bound: 2^a 3^b 5^c 7^d times a cofactor
    # outside the places, up to 10^40
    @given(rad=RADICALS, data=st.data())
    def test_exact_powers_at_the_bit_length_boundary(self, rad, data):
        v = data.draw(st.sampled_from([1, 11, 13, 143]), label="cofactor")
        for p in (2, 3, 5, 7):
            e = data.draw(st.integers(0, 133), label="ord_%d" % p)
            while v * p ** e > 10 ** 40:
                e -= 1
            v *= p ** e
        v *= data.draw(st.sampled_from([1, -1]), label="sign")
        assert abs(v) // math.gcd(v, rad ** abs(v).bit_length()) == \
            s_free_by_division(v, rad)

    def test_kernel_matches_heights_on_high_valuations(self):
        """c' = 11, 13 and 13 with four finite places; the points are the
        sample's points of height 12 and points whose values carry high
        powers of 2, 3, 5 and 7."""
        cfg = simple_config(
            subschemes=(sub("Q", ["4/11*x0^2 - 9*x1*x2 + 1/6*x2^2"], 3),
                        sub("P", ["x0 - 8*x2", "1/13*x1 + 1/9*x2"], 3),
                        sub("L", ["16*x0 - 27*x1 + 1/13*x2"], 3)),
            betas=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)),
            places=PlaceSet.from_string("inf,2,3,5,7"), min_height_norm=1)
        c_prod, _, _ = height_exponents(cfg)
        assert c_prod == 11 ** 3 * 13 ** 4 * 13 ** 6
        points = [pt for pt in reference_points(2, 12)
                  if max(map(abs, pt)) == 12]
        points += [(8, 0, 1), (8 * 7 ** 5, 3 ** 9, 7 ** 5), (27, 16, 0),
                   (2 ** 12, 3 ** 8, 5 ** 5), (0, 5 ** 6, 7 ** 4),
                   (6 ** 7, 2 ** 9, 3 ** 4)]
        want = reference_scan(cfg, points, keep_rows=True)
        got = scan_inequality(cfg, points=points, keep_rows=True)
        assert got.to_json() == want.to_json()
        assert_csv_form(cfg, want, points=points, keep_rows=True)


class FloatDecision(AssertionError):
    pass


class OpaqueFloat:
    """A float that does arithmetic and %g formatting but raises on any
    comparison and on bool, so nothing can decide by it."""

    def __init__(self, x):
        self.x = float(x)

    def __float__(self):
        return self.x

    def __neg__(self):
        return OpaqueFloat(-self.x)

    def _decide(self, *_):
        raise FloatDecision("a float decided something")

    __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _decide


for _name, _op in [("add", operator.add), ("sub", operator.sub),
                   ("mul", operator.mul), ("truediv", operator.truediv)]:
    setattr(OpaqueFloat, "__%s__" % _name,
            lambda self, other, op=_op: OpaqueFloat(op(self.x, float(other))))
    setattr(OpaqueFloat, "__r%s__" % _name,
            lambda self, other, op=_op: OpaqueFloat(op(float(other), self.x)))


def opaque_floats(monkeypatch):
    """Make experiments' logs and float weights OpaqueFloats."""
    monkeypatch.setattr(experiments, "math", types.SimpleNamespace(
        log=lambda x: OpaqueFloat(math.log(x)), gcd=math.gcd, lcm=math.lcm,
        prod=math.prod))
    monkeypatch.setattr(experiments, "float", OpaqueFloat, raising=False)


class TestFloatAudit:
    """With the kernel's logs and weights opaque, a scan that finishes
    lets no float decide anything (ROADMAP item 20's audit, for the scan
    kernel)."""

    @pytest.mark.parametrize("name,bound", [
        ("four_lines", 8), ("overweight_config.json", 14),
        ("plane_rows_config.json", 5)])
    def test_csv_form_decides_in_integers(self, monkeypatch, name, bound):
        if name == "four_lines":
            cfg = four_lines_config()
        else:
            with open(GOLDEN / name) as fh:
                cfg = InequalityConfig.from_json(json.load(fh))
        want = scan_inequality(cfg, bound=bound, keep_rows=True, csv_rows=True)
        opaque_floats(monkeypatch)
        got = scan_inequality(cfg, bound=bound, keep_rows=True, csv_rows=True)
        assert (got.rows, got.violations) == (want.rows, want.violations)
        assert got.low_height_hits == want.low_height_hits

    @pytest.mark.xfail(strict=True, raises=FloatDecision,
                       reason="better compares float ratios to pick the max "
                       "row (ROADMAP item 20)")
    def test_json_form_decides_in_integers(self, monkeypatch):
        opaque_floats(monkeypatch)
        scan_inequality(four_lines_config(), bound=3)


# the scan walks the sample a line at a time, each form a polynomial in
# the last coordinate t: forms free of t are constant on a line, pure
# powers of t vanish only at t = 0, and P^1 has no middle coordinates
@st.composite
def line_forms(draw, nvars):
    degree = draw(st.integers(1, 3))
    exps = monomial_exponents(degree, nvars)
    shape = draw(st.sampled_from(["any", "free of t", "power of t"]))
    if shape == "free of t":
        exps = [e for e in exps if e[-1] == 0]
    elif shape == "power of t":
        exps = [e for e in exps if e[-1] == degree]
    support = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3,
                            unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3,
                          max_denominator=3).filter(bool)
    return HomogeneousForm(nvars, degree,
                           {e: draw(coeffs) for e in support})


@st.composite
def line_configs(draw):
    nvars = draw(st.integers(2, 4))

    def subschemes(label, count):
        return tuple(Subscheme("%s%d" % (label, i),
                               draw(st.lists(line_forms(nvars), min_size=1,
                                             max_size=2)))
                     for i in range(count))

    subs = subschemes("Y", draw(st.integers(1, 3)))
    betas = draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=2,
                                       max_denominator=4),
                          min_size=len(subs), max_size=len(subs)))
    return InequalityConfig(
        subschemes=subs, betas=betas,
        places=PlaceSet.from_string(draw(st.sampled_from(
            ["inf", "inf,2", "inf,2,3", "inf,3,5,7"]))),
        epsilon=draw(st.fractions(min_value=Fraction(1, 10), max_value=2,
                                  max_denominator=10)),
        exclusions=subschemes("Z", draw(st.integers(0, 2))),
        min_height_norm=draw(st.sampled_from([1, 3, 10])))


class TestLineWalk:
    # from bound 6 on, a lead such as 6 has middles sharing only some of
    # its primes with it
    @pytest.mark.parametrize("n,bound", [(n, b) for n in (1, 2, 3)
                                         for b in (1, 2, 3, 4, 5)]
                             + [(2, 7), (3, 6)])
    def test_sample_matches_the_box(self, n, bound):
        pts = sample_points(n, bound)
        assert pts == reference_points(n, bound)
        # 0:...:0:1 is a line of length one, and the first point
        assert pts[0] == (0,) * n + (1,)

    # the Fraction scanner takes about 3 s for P^3 at bound 5, so P^3
    # stops at bound 3
    @settings(max_examples=40)
    @given(cfg=line_configs(), data=st.data())
    def test_scan_matches_fraction_scanner(self, cfg, data):
        n = cfg.nvars - 1
        bound = data.draw(st.integers(1, 5 if n < 3 else 3), label="bound")
        reference = reference_scan(cfg, reference_points(n, bound),
                                   keep_rows=True)
        want = reference.to_json()
        assert scan_inequality(cfg, bound=bound,
                               keep_rows=True).to_json() == want
        assert_csv_form(cfg, reference, bound=bound, keep_rows=True)
        # without rows the report is the same, less its rows
        del want["rows"]
        assert scan_inequality(cfg, bound=bound).to_json() == want


class TestFourLinesScan:
    def test_moderate_bound_clean(self):
        cfg = four_lines_config()
        pts = sample_points(2, 4)
        report = scan_inequality(cfg, points=pts, keep_rows=True)
        assert report.total == len(pts) == 289
        on_lines = [t for t in pts
                    if any(Y.vanishes_at(t) for Y in cfg.subschemes)]
        on_diag = [t for t in pts if t not in on_lines and
                   any(Z.vanishes_at(t) for Z in cfg.exclusions)]
        assert report.skipped == len(on_lines)
        assert report.excluded == len(on_diag)
        assert report.evaluated == len(pts) - len(on_lines) - len(on_diag)
        assert report.clean

    def test_max_ratio_row_is_argmax(self):
        report = scan_inequality(four_lines_config(), bound=4,
                                 keep_rows=True)
        with_ratio = [r for r in report.rows if r.ratio is not None]
        best = max(with_ratio, key=lambda r: r.ratio)
        assert report.max_ratio_row == best
        assert report.max_ratio_row.ratio < 1

    @pytest.mark.xfail(strict=True, reason="the max row is picked by float "
                       "rounding among exact ties (ROADMAP item 20)")
    def test_max_ratio_row_is_the_first_exact_maximum(self):
        """Where all four line values are S-units, every Q_i = H and the
        ratio is exactly (4/3) / (3/2) = 8/9, the largest the four lines
        reach at bound 3; the strict maximum keeps the first such row in
        scan order.  Decided here in integers alone."""
        cfg = four_lines_config()

        def s_unit(v):
            v = abs(v)
            for p in (2, 3, 5):
                while v % p == 0:
                    v //= p
            return v == 1

        first = next(
            pt for pt in sample_points(2, 3)
            if max(map(abs, pt)) > 1
            and not any(Z.vanishes_at(pt) for Z in cfg.exclusions)
            and all(v and s_unit(v) for v in
                    (pt[0], pt[1], pt[2], pt[0] + pt[1] + pt[2])))
        best = scan_inequality(cfg, bound=3).max_ratio_row
        assert best.ratio == pytest.approx(8 / 9, abs=1e-15)
        assert (best.point, best.height_norm) == \
            (":".join(map(str, first)), max(map(abs, first)))

    def test_preset_shape(self):
        cfg = four_lines_config()
        assert len(four_lines()) == 4
        assert len(four_lines_exclusions()) == 3
        assert cfg.betas == (Fraction(1, 3),) * 4
        assert cfg.epsilon == Fraction(1, 2)
        assert cfg.min_height_norm == 10
        assert [str(p) for p in cfg.places] == ["inf", "2", "3", "5"]


class TestFourLinesTable:
    def test_rows_follow_closed_forms(self):
        rows = four_lines_table(10)
        assert [r.l for r in rows] == list(range(1, 11))
        for r in rows:
            l = r.l
            assert r.A_self == 6 * l * l + 6 * l + 1
            assert r.A_dot_D == 2 * l + 1
            assert r.xi == Fraction(6 * l * l + 6 * l + 1, 2 * (2 * l + 1))
            assert r.beta == Fraction(6 * l * l + 6 * l + 1, 8 * l + 4)
            assert r.epsilon == l
            assert r.seshadri_side == Fraction(l, 3)
            assert r.beta_lower == Fraction(3 * l, 4)
            assert r.beta >= r.beta_lower
            assert r.beta > r.seshadri_side

    def test_csv(self, capsys):
        assert main(["example5", "--l-max", "2", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == \
            "l,A_self,A_dot_D,xi,beta,epsilon,seshadri_side,beta_lower"
        assert lines[1] == "1,13,3,13/6,13/12,1,1/3,3/4"
        assert lines[2] == "2,37,5,37/10,37/20,2,2/3,3/2"

    def test_validation(self):
        with pytest.raises(ValueError):
            four_lines_table(0)
        with pytest.raises(ValueError):
            four_lines_table(True)
