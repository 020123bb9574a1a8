"""scripts/value_census.py: the exhaustive value histogram of n x n sign boards."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

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
