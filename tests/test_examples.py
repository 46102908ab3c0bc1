"""Smoke tests for every script in ``examples/``.

The examples are documentation that executes; when library internals
move, nothing else runs them, so without these tests they rot
silently.  Each script is run in a subprocess at
``REPRO_EXAMPLE_SCALE=tiny`` (the knob every example honours) and must
exit 0 with non-trivial output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))

# A phrase each demo must print — a cheap guard that the script not
# only exited 0 but actually reached its conclusion.
EXPECTED_PHRASES = {
    "quickstart.py": "restored",
}


def test_every_example_is_covered():
    """A new example must declare its expected output phrase here."""
    assert {script.name for script in EXAMPLE_SCRIPTS} == set(EXPECTED_PHRASES)


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS, ids=lambda s: s.name)
def test_example_runs_clean(script: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_EXAMPLE_SCALE"] = "tiny"
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} failed:\n{completed.stdout[-1500:]}\n{completed.stderr[-1500:]}"
    )
    assert EXPECTED_PHRASES[script.name] in completed.stdout
