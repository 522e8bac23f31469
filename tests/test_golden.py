"""Frozen CLI output: stdout must match the recorded files byte for byte.

The files under tests/golden/ were recorded from the Fraction-based
scanner before the integer kernel replaced it; a change that moves a
single byte of these outputs changes behaviour, not just speed.
Regenerate one only for a deliberate, documented output change, e.g.

    python -m diophkit scan --four-lines --bound 10 --output json \
        > tests/golden/scan_four_lines_b10.json
"""

from pathlib import Path

import pytest

from diophkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("scan_four_lines_b10.json",
     ["scan", "--four-lines", "--bound", "10", "--output", "json"]),
    # P^3: a quadric and a line with fractional coefficients (primes 2, 3
    # and 5 divide their denominators), a plane and an exclusion
    ("scan_space_rows_b2.csv",
     ["scan", "--config", str(GOLDEN / "space_rows_config.json"),
      "--bound", "2", "--keep-rows", "--output", "csv"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
