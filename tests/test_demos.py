"""Every narrative script under demos/ runs to completion."""

import pytest
from _support import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    done = run_python([str(demo)], timeout=120, cwd=ROOT)
    assert "Traceback" not in done.stdout + done.stderr
