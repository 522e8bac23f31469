"""Frozen CLI output: stdout must match the recorded files byte for byte.

The scan files under tests/golden/ were recorded from the Fraction-based
scanner before the integer kernel replaced it; the beta, filtration,
adapted-basis and concavity files were recorded from the generic
(rank-based) path before linear subschemes in general position were sent
to the coordinate-monomial path; the four-line and mixed-degree files were
recorded from the per-candidate rank sweep before the one-pass generic
profile replaced it; the triangle and tied-weight common bases were recorded
from the table of intersection ranks before the Bruhat-cell construction
replaced it.  A change that moves a single byte of
these outputs changes behaviour, not just speed.  Regenerate one only for
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
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
