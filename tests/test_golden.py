"""Frozen CLI output: stdout must match the recorded files byte for byte.

The scan files under tests/golden/ were recorded from the Fraction-based
scanner before the integer kernel replaced it; the beta, filtration,
adapted-basis and concavity files were recorded from the generic
(rank-based) path before linear subschemes in general position were sent
to the coordinate-monomial path; the four-line and mixed-degree files were
recorded from the per-candidate rank sweep before the one-pass generic
profile replaced it; the triangle and tied-weight common bases were recorded
from the table of intersection ranks before the Bruhat-cell construction
replaced it; the height, weil, check-position, seshadri, beta-surface and
example5 files, one per --output format, were recorded before the command
line front end moved its imports into the subcommands; the conic,
plane-and-quadric and conic-concavity files were recorded from the
elimination path before complete intersections were counted in closed
form; the remaining beta (--N, --crosscheck, --n-max), filtration,
adapted-basis (one and two weightings), concavity-test and four-line scan
files, one per --output format, were recorded while each subcommand still
wrote its three formats by hand, before one emitter rendered them; the
plane keep-rows and overweight scan files were recorded from the scan
kernel that evaluated each generator separately and reduced every norm by
the minimum over generators, before one evaluation pass and the S-free
norm of one generator replaced it; the four-line filtration at N = 8 and
common basis at N = 4 were recorded from Fraction generator products,
substituted monomial images and a Fraction inverse, before integer rows
replaced them.  A
change that moves a single byte of these outputs changes behaviour, not
just speed.  Regenerate one only for
a deliberate, documented output change, e.g.

    python -m diophkit scan --four-lines --bound 10 --output json \
        > tests/golden/scan_four_lines_b10.json
"""

from pathlib import Path

import pytest

from diophkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# three lines in general position in the plane, none a coordinate line
LINES = "x0 + x1;x1 + x2;x0 + x2"
# the paper's four lines x0, x1, x2, x0 + x1 + x2 after a change of
# coordinates: a dependent family, so only the generic path can take it
FOUR_LINES = "2*x0 + 2*x1 + x2;x1 - 2*x2;x1 + x2;2*x0 + 4*x1"

CASES = [
    ("scan_four_lines_b10.json",
     ["scan", "--four-lines", "--bound", "10", "--output", "json"]),
    # P^3: a quadric and a line with fractional coefficients (primes 2, 3
    # and 5 divide their denominators), a plane and an exclusion
    ("scan_space_rows_b2.csv",
     ["scan", "--config", str(GOLDEN / "space_rows_config.json"),
      "--bound", "2", "--keep-rows", "--output", "csv"]),
    # P^2: a conic, a point cut by two lines and a line, with primes
    # outside S (11 and 13) in their denominators; every row is kept
    ("scan_plane_rows_b5.csv",
     ["scan", "--config", str(GOLDEN / "plane_rows_config.json"),
      "--bound", "5", "--keep-rows", "--output", "csv"]),
    # a reduced point of P^3 cut by tilted planes, one with a fractional
    # coefficient
    ("beta_tilted_point_p3.json",
     ["beta", "--space", "P3", "--ideal", "x0 + x3,x1 - 2*x3,x2 + 1/2*x3",
      "--N", "4", "--output", "json"]),
    ("beta_tilted_line_p3.csv",
     ["beta", "--space", "P3", "--ideal", "x0 - x1,x2 + x3",
      "--n-max", "4", "--output", "csv"]),
    ("beta_crosscheck_p2.json",
     ["beta", "--space", "P2", "--ideal", "x0 + x1,x1 - x2", "--N", "5",
      "--crosscheck", "--output", "json"]),
    ("filtration_general_lines.json",
     ["filtration", "--space", "P2", "--ideals", "x0 + x1;x1 + x2;x0 + 2/3*x2",
      "--weights", "1,1/2,1/3", "--N", "4", "--output", "json"]),
    ("adapted_basis_lines.json",
     ["adapted-basis", "--space", "P2", "--ideals", LINES,
      "--weights", "1,1/2,1/3", "--N", "3", "--output", "json"]),
    ("adapted_basis_lines_two.json",
     ["adapted-basis", "--space", "P2", "--ideals", LINES,
      "--weights", "1,1/2,1/3", "--weights2", "1/3,1/2,1", "--N", "3",
      "--output", "json"]),
    ("concavity_lines.json",
     ["concavity-test", "--space", "P2", "--ideals", LINES,
      "--betas", "1/3,1/3,1/3", "--weights", "1,1,1", "--N", "4",
      "--output", "json"]),
    ("filtration_four_lines.json",
     ["filtration", "--space", "P2", "--ideals", FOUR_LINES,
      "--weights", "1,1/2,1/3,1/5", "--N", "3", "--output", "json"]),
    ("adapted_basis_four_lines_two.json",
     ["adapted-basis", "--space", "P2", "--ideals", FOUR_LINES,
      "--weights", "1,1/2,1/3,1/5", "--weights2", "1/5,1/3,1/2,1", "--N", "2",
      "--output", "json"]),
    # the same four lines at desk size: many generator products per level,
    # and a common basis whose f-coordinates need fractions
    ("filtration_four_lines_n8.json",
     ["filtration", "--space", "P2", "--ideals", FOUR_LINES,
      "--weights", "1,1/2,1/3,1/5", "--N", "8", "--output", "json"]),
    ("adapted_basis_four_lines_two_n4.json",
     ["adapted-basis", "--space", "P2", "--ideals", FOUR_LINES,
      "--weights", "1,1/2,1/3,1/5", "--weights2", "1/5,1/3,1/2,1", "--N", "4",
      "--output", "json"]),
    # the coordinate triangle: both bases are monomial rows already
    ("adapted_basis_triangle_two.json",
     ["adapted-basis", "--space", "P2", "--ideals", "x0;x1;x2",
      "--weights", "1,1/2,1/3", "--weights2", "1/3,1/2,1", "--N", "4",
      "--output", "json"]),
    # tied weights: the first filtration has fewer jumps than the width
    ("adapted_basis_lines_tied.json",
     ["adapted-basis", "--space", "P2", "--ideals", LINES,
      "--weights", "1,1,1", "--weights2", "1,1/2,1/3", "--N", "4",
      "--output", "json"]),
    # a conic and a line in one subscheme: generators of mixed degree
    ("filtration_mixed_degree.json",
     ["filtration", "--space", "P2", "--ideals", "x0^2 + x1*x2,x1 + x2;x0 - x2",
      "--weights", "1,1/2", "--N", "3", "--output", "json"]),
    # complete intersections: a conic (one generator) and a conic curve in
    # P^3 cut by a plane and a quadric cone
    ("beta_conic_p2.json",
     ["beta", "--space", "P2", "--ideal", "6*x0*x1 + x1^2 - 8*x1*x2 + 4*x2^2",
      "--degree", "2", "--N", "8", "--output", "json"]),
    ("beta_line_quadric_p3.csv",
     ["beta", "--space", "P3", "--ideal", "x0 + x1,x2^2 - x0*x3",
      "--n-max", "4", "--output", "csv"]),
    # each subscheme's own right-hand side is an ideal-power profile, so the
    # conic's is counted in closed form
    ("concavity_conic_lines.json",
     ["concavity-test", "--space", "P2", "--ideals", "x0^2 + x1*x2;x0 + x1;x1 + x2",
      "--betas", "1/4,1/4,1/2", "--weights", "1,1,1", "--N", "4",
      "--output", "json"]),
]

# subcommands frozen in every --output format they accept; example5 writes
# csv for text as well
FORMATS = {"text": "txt", "csv": "csv", "json": "json"}
EVERY_FORMAT = [
    # a point given in non-canonical rational coordinates
    ("height_point", ["height", "--point", "1/2:3:-4/3"]),
    # every place of the set contributes: the generator values are 12 and 6
    ("weil_places", ["weil", "--space", "P2", "--ideal", "x0 + x1,x2 - 1/2*x0",
                     "--point", "2:10:7", "--places", "inf,2,3"]),
    ("check_position_ok", ["check-position", "--space", "P2",
                           "--ideals", "x0;x1;x2"]),
    # x0, x1 and x0 + x1 meet in a point of the plane
    ("check_position_violated", ["check-position", "--space", "P2",
                                 "--ideals", "x0;x1;x2;x0 + x1"]),
    ("seshadri_two_points", ["seshadri", "--A", "3H - E1 - E2",
                             "--D", "H - E1 - E2"]),
    ("beta_surface_three_points", ["beta-surface", "--A", "4H - E1 - E2 - E3",
                                   "--D", "H - E1", "--N", "4"]),
    ("example5_l5", ["example5", "--l-max", "5"]),
    # one invocation per remaining mode
    ("beta_point_p2", ["beta", "--space", "P2", "--ideal", "x0 + x1,x1 - x2",
                       "--N", "3"]),
    ("beta_crosscheck_point_p2", ["beta", "--space", "P2", "--ideal",
                                  "x0 + x1,x1 - x2", "--N", "3", "--crosscheck"]),
    ("beta_convergence_conic_p2", ["beta", "--space", "P2", "--ideal",
                                   "x0^2 + x1*x2", "--degree", "2",
                                   "--n-max", "3"]),
    ("filtration_lines", ["filtration", "--space", "P2", "--ideals", LINES,
                          "--weights", "1,1/2,1/3", "--N", "3"]),
    ("adapted_basis_lines_one", ["adapted-basis", "--space", "P2",
                                 "--ideals", LINES, "--weights", "1,1/2,1/3",
                                 "--N", "2"]),
    ("adapted_basis_lines_pair", ["adapted-basis", "--space", "P2",
                                  "--ideals", LINES, "--weights", "1,1/2,1/3",
                                  "--weights2", "1/3,1/2,1", "--N", "2"]),
    # two lines through a point: the hypotheses hold
    ("concavity_two_lines", ["concavity-test", "--space", "P2",
                             "--ideals", "x0 + x1;x1 - x2", "--betas", "1/2,1/4",
                             "--weights", "1,2", "--N", "4"]),
    # no violations, so the csv is the header alone
    ("scan_four_lines_b3", ["scan", "--four-lines", "--bound", "3"]),
]
CASES += [("%s.%s" % (stem, ext), argv + ["--output", fmt])
          for stem, argv in EVERY_FORMAT for fmt, ext in FORMATS.items()]

# a line of P^1 with weight 5: violations on both sides of the height
# floor, so the scan exits 3
OVERWEIGHT = ["scan", "--config", str(GOLDEN / "overweight_config.json"),
              "--bound", "14"]
CASES += [("scan_overweight_b14.txt", OVERWEIGHT + ["--output", "text"]),
          ("scan_overweight_b14.json", OVERWEIGHT + ["--output", "json"])]
EXIT_CODES = {"scan_overweight_b14.txt": 3, "scan_overweight_b14.json": 3}


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(name, 0)
    assert out.encode() == (GOLDEN / name).read_bytes()
