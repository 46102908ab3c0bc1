"""The names the end-to-end benchmark instruments must keep resolving.

``e2ebench/launch.py`` traces a run by wrapping named classes, methods
and functions of ``src/`` in place.  A refactor that renames one of them
breaks the traced benchmark; this check makes tier-1 catch it, not only
the benchmark's own self-test job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_launcher_installs_every_hook():
    # A fresh interpreter: installing the hooks rebinds library names,
    # which must not leak into the rest of the suite.
    script = (
        "import sys; sys.path.insert(0, 'e2ebench'); import launch; "
        "launch.install(launch.Tracer()); print('installed')"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
