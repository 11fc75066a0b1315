"""Run the mutant registry of ``mutants.py``:

    python tests/run_mutants.py

The repository is copied, without ``.git`` and caches, to a temporary
directory.  The named tests of all mutants must pass there unmutated
first.  Then each mutant is applied to the copy, its tests run with
``pytest -x -q`` and the copy's ``src`` first on PYTHONPATH, and the
file is restored.  A mutant is killed when its tests
fail (pytest exit status 1); it survives when they pass; any other status,
or no single match of its text, is an error.  One line per mutant, then
the counts and the time.  Exit status 0 exactly when every mutant is
killed.  Standard library only; pytest runs in a child interpreter.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks", "*.egg-info"
)
TIMEOUT_S = 600  # per pytest run; a mutant that hangs its tests is an error, not a kill


def _pytest(copy: Path, test_ids) -> int | None:
    """pytest's exit status on test_ids in copy, None past TIMEOUT_S.  No
    bytecode is written: a mutant of the same size and second as its
    original would otherwise reuse a stale .pyc."""
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_ids]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def _run(copy: Path, mutant) -> str:
    """Apply one mutant to copy, run its tests, restore the file; the outcome."""
    _, file, old, new, test_ids = mutant
    target = copy / file
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"error ({text.count(old)} matches)"
    target.write_text(text.replace(old, new), encoding="utf-8")
    try:
        status = _pytest(copy, test_ids)
    finally:
        target.write_text(text, encoding="utf-8")
    if status in (0, 1):
        return ("survived", "killed")[status]
    return "error (timeout)" if status is None else f"error (pytest exit {status})"


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        status = _pytest(copy, sorted({t for m in MUTANTS for t in m[4]}))
        if status != 0:
            print(f"the mutants' tests fail unmutated (pytest exit {status}); nothing to measure")
            return 2
        outcomes = []
        for mutant in MUTANTS:
            began = time.perf_counter()
            outcomes.append(_run(copy, mutant))
            print(f"{outcomes[-1]:<10} {time.perf_counter() - began:6.1f} s  {mutant[0]}", flush=True)
    killed, survived = outcomes.count("killed"), outcomes.count("survived")
    errors = len(outcomes) - killed - survived
    total = time.perf_counter() - start
    print(f"{killed} killed, {survived} survived, {errors} errors of {len(MUTANTS)} mutants in {total:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
