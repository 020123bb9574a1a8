"""scripts/value_census.py: the exhaustive value histogram of n x n sign boards."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "value_census.py"


def census(max_n: int) -> str:
    return subprocess.run([sys.executable, str(SCRIPT), "--max-n", str(max_n)],
                          capture_output=True, text=True, check=True).stdout


def test_census_output_bytes():
    digest = hashlib.sha256(census(4).encode("ascii")).hexdigest()
    assert digest == "2902b707d36bbca20438c4724e4a844e10d8ec1053f95773751ca16433216573"


def test_census_columns_line_up_at_n_5():
    # n = 5 counts reach 12410880, one digit wider than any count at n <= 4
    text = census(5)
    rows = [line for line in text.splitlines() if line.startswith("  value ")]
    assert " 12410880 boards" in text and len(rows) > 8
    columns = {tuple(m.start() for m in re.finditer(r"[:(%)]|boards", row)) for row in rows}
    assert len(columns) == 1, rows


@pytest.mark.parametrize("max_n, message", [
    ("1", "--max-n 1: must be >= 2"),
    ("0", "--max-n 0: must be >= 2"),
    ("7", "--max-n 7: value_census(2, 7): 2**42 assignments exceed the 2**30 budget"),
], ids=["below-2", "zero", "over-budget"])
def test_census_refuses_bad_max_n(max_n, message):
    done = subprocess.run([sys.executable, str(SCRIPT), "--max-n", max_n], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"value_census.py: error: {message}\n")
