"""The names the end-to-end benchmark instruments must keep resolving.

``e2ebench/launch.py`` traces a run by wrapping named classes, methods
and functions of ``src/`` in place.  A refactor that renames one of them
breaks the traced benchmark; this check makes tier-1 catch it, not only
the benchmark's own self-test job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's tiny figure5-threshold run (e2ebench/run.py).
_TINY_SWEEP = [
    "--set", "inbox_size=200", "--set", "corpus_ham=150", "--set", "corpus_spam=150",
    "--set", "folds=2", "--set", "attack_fractions=(0.0, 0.05)",
]


def test_launcher_installs_every_hook(tmp_path):
    # A fresh interpreter: installing the hooks rebinds library names,
    # which must not leak into the rest of the suite.  The traced run
    # then proves the rebound names are the ones the run calls.
    argv = ["run-scenario", "figure5-threshold", *_TINY_SWEEP, "--out", str(tmp_path)]
    script = (
        "import json, sys; sys.path.insert(0, 'e2ebench'); import launch; "
        "import repro.cli; tracer = launch.Tracer(); launch.install(tracer); "
        f"status = repro.cli.main({argv!r}); "
        "print(json.dumps({'status': status, 'calls': tracer.report()['calls']}))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["status"] == 0
    for span in ("scenarios.prepare", "threshold.fit", "classifier.score_ids"):
        assert report["calls"].get(span, 0) >= 1, (span, report["calls"])
    assert (tmp_path / "figure5-threshold.json").exists()
