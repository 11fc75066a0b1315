"""Every narrative script under demos/ runs to completion and prints the
bytes pinned below."""

import hashlib

import pytest
from _support import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 prefixes of each demo's stdout; demo 06 prints the report lines of
# run_grid_suite(6), so the grid verifier's instance counts are pinned too
DEMO_DIGESTS = {
    "01_constant_field.py": "cd32de13e86a9ee1",
    "02_tower_derivations.py": "ce8100106140880d",
    "03_operators.py": "73f6b580ccbdc9c1",
    "04_independence.py": "83a281a47c4a8c92",
    "05_series.py": "e8e458f66c254b7c",
    "06_grid.py": "0aa06d1662968cbe",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    done = run_python([str(demo)], timeout=120, cwd=ROOT)
    assert "Traceback" not in done.stdout + done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest()[:16] == DEMO_DIGESTS[demo.name]
