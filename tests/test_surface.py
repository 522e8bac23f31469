"""Intersection theory on blow-ups of the plane at up to three points.

The section-count oracle: h^0(aH - sum b_i E_i) equals the number of
degree-a monomials in three variables whose multiplicity at the i-th
coordinate point is at least b_i.  Coordinate points are projectively a
general triple, so this covers every class the model accepts, including
the special systems where naive conditions undercount.
"""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diophkit.surface import (
    NotNefError,
    PicardClass,
    SurfaceError,
    SurfaceModel,
    UnsupportedClassError,
    beta_closed_form,
    beta_surface_truncated,
    compare_beta_seshadri,
    format_class,
    h0_terms,
    parse_class,
    strict_transform_line,
    three_point_blowup,
    weighted_lines_class,
)


def oracle_h0(a, mults):
    """Plane curves of degree a with multiplicity >= b_i at the coordinate
    point p_i, counted monomially.  b_i <= 0 imposes nothing."""
    if a < 0:
        return 0
    count = 0
    for alpha in itertools.product(range(a + 1), repeat=2):
        a1, a2 = alpha
        a0 = a - a1 - a2
        if a0 < 0:
            continue
        mult = (a1 + a2, a0 + a2, a0 + a1)  # at (1:0:0), (0:1:0), (0:0:1)
        if all(m >= b for m, b in zip(mult, mults)):
            count += 1
    return count


class TestPicardClass:
    def test_parse_and_format_round_trip(self):
        for text in ["3H - E1 - 2E2", "H", "4H - E1 - E2 - E3",
                     "7/2H - 1/2E1", "-H + E1", "2E2 - E1"]:
            D = parse_class(text)
            assert parse_class(format_class(D), k=D.k) == D

    def test_zero_class(self):
        D = parse_class("H") - parse_class("H")
        assert D.is_zero and format_class(D) == "0"

    def test_parse_rejects_garbage(self):
        for bad in ["", "H + ", "3G", "E0", "H - - E1", "xH"]:
            with pytest.raises(SurfaceError):
                parse_class(bad)

    def test_arithmetic(self):
        A = parse_class("3H - E1", k=2)
        B = parse_class("H - E2", k=2)
        assert format_class(A - B) == "2H - E1 + E2"
        assert format_class(A * 2) == "6H - 2E1"

    def test_dot_signature(self):
        H = parse_class("H", k=3)
        E1 = parse_class("E1", k=3)
        assert H.dot(H) == 1
        assert E1.dot(E1) == -1
        assert H.dot(E1) == 0


class TestModelBasics:
    def test_blowup_count_cap(self):
        with pytest.raises(SurfaceError):
            SurfaceModel(4)

    def test_canonical_class(self):
        model = SurfaceModel(3)
        assert model.canonical == parse_class("-3H + E1 + E2 + E3")

    def test_chi_structure_sheaf(self):
        for k in range(4):
            model = SurfaceModel(k)
            zero = model.H - model.H
            assert model.chi(zero) == 1

    def test_is_nef_with_witness(self):
        model = SurfaceModel(1)
        ok, witness = model.is_nef(parse_class("H - E1", k=1))
        assert ok and witness is None
        ok, witness = model.is_nef(parse_class("H - 2E1", k=1))
        assert not ok and witness == parse_class("H - E1", k=1)
        assert parse_class("H - 2E1", k=1).dot(witness) < 0

    def test_is_ample(self):
        model = SurfaceModel(3)
        assert model.is_ample(parse_class("4H - E1 - E2 - E3"))
        assert not model.is_ample(parse_class("H - E1", k=3))

    def test_intersect_checks_width(self):
        model = SurfaceModel(1)
        with pytest.raises(SurfaceError):
            model.intersect(parse_class("H - E1 - E2"), model.H)


class TestZariskiH0:
    def test_plane_sections(self):
        model = SurfaceModel(1)
        for N in range(7):
            assert model.zariski_h0(N * model.H) == math.comb(N + 2, 2)

    def test_oracle_sweep_k1(self):
        model = SurfaceModel(1)
        for a in range(-1, 8):
            for b in range(-2, a + 4):
                D = PicardClass(Fraction(a), (Fraction(-b),))
                assert model.zariski_h0(D) == oracle_h0(a, (b, 0, 0)), (a, b)

    def test_oracle_sweep_k2(self):
        model = SurfaceModel(2)
        for a in range(0, 7):
            for b1, b2 in itertools.product(range(-1, 5), repeat=2):
                D = PicardClass(Fraction(a), (Fraction(-b1), Fraction(-b2)))
                got = model.zariski_h0(D)
                want = oracle_h0(a, (b1, b2, 0))
                assert got == want, (a, b1, b2, got, want)

    def test_oracle_sweep_k3(self):
        model = SurfaceModel(3)
        for a in range(0, 7):
            for bs in itertools.product(range(-1, 4), repeat=3):
                D = PicardClass(Fraction(a), tuple(Fraction(-b) for b in bs))
                got = model.zariski_h0(D)
                want = oracle_h0(a, bs)
                assert got == want, (a, bs, got, want)

    def test_special_system_double_points(self):
        # two double points of a conic force the double line; naive
        # conditions would predict zero sections
        model = SurfaceModel(2)
        D = parse_class("2H - 2E1 - 2E2")
        assert model.zariski_h0(D) == 1

    def test_classes_far_outside_the_effective_cone(self):
        # the sweep reaches D.ample_probe = -18 (-6H - 6E1 on k = 1), far
        # outside the effective cone
        assert SurfaceModel(1).zariski_h0(parse_class("-6H - 6E1")) == 0
        for k in range(4):
            model = SurfaceModel(k)
            for a in range(-6, 7):
                for e in itertools.product((-6, -3, 0, 3, 6), repeat=k):
                    mults = tuple(-c for c in e) + (0,) * (3 - k)
                    D = PicardClass(a, e)
                    assert model.zariski_h0(D) == oracle_h0(a, mults), (a, e)

    def test_exceptional_curve_sections(self):
        model = SurfaceModel(3)
        assert model.zariski_h0(parse_class("E1", k=3)) == 1
        assert model.zariski_h0(model.E(1) + model.E(2)) == 1

    def test_rejects_non_integral(self):
        model = SurfaceModel(1)
        with pytest.raises(UnsupportedClassError):
            model.zariski_h0(parse_class("1/2H", k=1))


class TestSeshadri:
    def test_weighted_lines_threshold(self):
        model = three_point_blowup()
        for l in range(1, 11):
            A = weighted_lines_class(l)
            assert model.seshadri(A, strict_transform_line(1)) == l

    def test_report_certificates(self):
        model = three_point_blowup()
        for l in (1, 4, 10):
            rep = model.seshadri_report(weighted_lines_class(l),
                                        strict_transform_line(1))
            assert rep.gamma == l
            assert rep.nef_at_gamma
            assert model.E(1) in rep.tight
            assert rep.fail_gamma == Fraction(l) + Fraction(1, 100)
            assert rep.fail_witness is not None
            bad = weighted_lines_class(l) - rep.fail_gamma * \
                strict_transform_line(1)
            assert bad.dot(rep.fail_witness) < 0

    def test_point_blowup_lines(self):
        model = SurfaceModel(1)
        assert model.seshadri(parse_class("2H", k=1), model.E(1)) == 2

    def test_unbounded_direction_returns_inf(self):
        model = SurfaceModel(1)
        zero = model.H - model.H
        gamma = model.seshadri(model.H, zero)
        assert isinstance(gamma, float) and math.isinf(gamma)


class TestClosedForm:
    def test_weighted_lines_values(self):
        model = three_point_blowup()
        for l in range(1, 11):
            A = weighted_lines_class(l)
            D = strict_transform_line(1)
            rep = beta_closed_form(model, A, D)
            assert rep.A_self == 6 * l * l + 6 * l + 1
            assert rep.A_dot_D == 2 * l + 1
            assert rep.xi == Fraction(rep.A_self, 2 * (2 * l + 1))
            assert rep.beta == Fraction(6 * l * l + 6 * l + 1, 8 * l + 4)

    def test_requires_square_zero(self):
        model = SurfaceModel(1)
        with pytest.raises(SurfaceError):
            beta_closed_form(model, parse_class("2H", k=1), model.H)

    def test_requires_nef_reference(self):
        model = three_point_blowup()
        # A.D > 0 and D^2 = 0 hold, but A fails nef on H - E1 - E2
        bad = parse_class("H - 2E2", k=3)
        with pytest.raises(NotNefError):
            beta_closed_form(model, bad, strict_transform_line(1))

    def test_requires_positive_pairing(self):
        model = three_point_blowup()
        with pytest.raises(UnsupportedClassError):
            beta_closed_form(model, parse_class("H - 2E1", k=3),
                             strict_transform_line(1))


class TestTruncatedBeta:
    def test_plane_self_ratio_exact_at_triangular_levels(self):
        # sum_m C(N-m+2,2) telescopes to C(N+2,3): the ratio is exactly 1/3
        # whenever 3 divides N(N+3), in particular at these levels
        model = SurfaceModel(1)
        for N in (1, 2, 5, 9):
            assert beta_surface_truncated(model, model.H, model.H, N) == \
                Fraction(1, 3)

    def test_weighted_lines_frozen_values(self):
        model = three_point_blowup()
        A = weighted_lines_class(1)
        D = strict_transform_line(1)
        frozen = {2: Fraction(10, 9), 4: Fraction(139, 123),
                  6: Fraction(149, 131)}
        for N, want in frozen.items():
            assert beta_surface_truncated(model, A, D, N) == want

    def test_terms_positive_and_truncated(self):
        model = three_point_blowup()
        terms = h0_terms(model, weighted_lines_class(1),
                         strict_transform_line(1), 2)
        assert all(t > 0 for t in terms)
        assert terms[0] > terms[-1]

    def test_terms_end_when_D_meets_one_nef_ray(self):
        # D.H = D.(H - E_i) = 0, but D.(2H - E1 - E2 - E3) = 2
        model = three_point_blowup()
        D = parse_class("-2H + 2E1 + 2E2 + 2E3")
        assert h0_terms(model, model.H, D, 1) == (1,)

    def test_min_so_far_monotone_toward_closed_form(self):
        model = three_point_blowup()
        A = weighted_lines_class(1)
        D = strict_transform_line(1)
        closed = beta_closed_form(model, A, D).beta
        best = None
        for N in range(1, 13):
            value = beta_surface_truncated(model, A, D, N)
            best = value if best is None else min(best, value)
            assert best >= closed
        assert best - closed < Fraction(1, 6)


class TestComparison:
    def test_codimension_weighted_inequality_strict(self):
        model = three_point_blowup()
        for l in range(1, 11):
            rep = compare_beta_seshadri(model, weighted_lines_class(l),
                                        strict_transform_line(1), r=1, n=2)
            assert rep.epsilon == l
            assert rep.seshadri_side == Fraction(l, 3)
            assert rep.beta > rep.seshadri_side
            assert rep.holds

    def test_beta_dominates_three_quarters(self):
        model = three_point_blowup()
        for l in range(1, 11):
            rep = compare_beta_seshadri(model, weighted_lines_class(l),
                                        strict_transform_line(1), r=1, n=2)
            assert rep.beta >= Fraction(3 * l, 4)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    """The command line in a fresh interpreter, stopped after 60 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "diophkit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestBetaSurfaceCommand:
    # -D pseudo-effective: no term h^0(N A - m D) is ever 0, so the terms
    # are refused up front; in a subprocess, since a missing guard loops
    @pytest.mark.parametrize("A,D,k", [("H", "-E1", "1"), ("2H - E1", "E1 - H", "1"),
                                       ("H", "-H", "3"), ("H", "0", "0")])
    def test_anti_effective_D_is_an_error(self, A, D, k):
        proc = run_cli("beta-surface", "--A", A, "--D=" + D, "--k", k, "--N", "2")
        assert proc.returncode == 1
        assert "pseudo-effective" in proc.stderr

    def test_D_with_zero_probe_degree(self):
        proc = run_cli("beta-surface", "--A", "4H - E1", "--D", "H - 2E1",
                       "--N", "1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "terms = 10,6,3,1"
