"""The names the end-to-end benchmark instruments must keep resolving.

``e2ebench/launch.py`` traces a run by wrapping named classes, methods
and functions of ``src/`` in place.  A refactor that renames one of them
breaks the traced benchmark; this check makes tier-1 catch it, not only
the benchmark's own self-test job.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_kept_kernel_names_resolve():
    # e2ebench/run.py records kernel_name() in every run's host key, and
    # e2ebench/launch.py and serve_session.py import the alias and the
    # factory; the one classifier answers to all three.
    from repro.spambayes import ndkernel
    from repro.spambayes.classifier import Classifier

    assert ndkernel.kernel_name() == "nd"
    assert ndkernel.NDClassifier is Classifier
    assert type(ndkernel.create_classifier()) is Classifier


# Every (module, class, attribute) that ``launch.install`` patches with
# ``_patch``: it reads ``cls.__dict__[attr]``, so an inherited or
# renamed method breaks the traced run.
_PATCHED_METHODS = [
    ("repro.corpus.trec", "TrecStyleCorpus", "generate"),
    ("repro.spambayes.tokenizer", "Tokenizer", "tokenize"),
    ("repro.spambayes.token_table", "TokenTable", "encode_unique"),
    ("repro.spambayes.token_table", "TokenTable", "text_order_ranks"),
    *(
        ("repro.spambayes.classifier", "Classifier", attr)
        for attr in (
            "__init__", "learn", "learn_ids", "learn_many", "learn_repeated",
            "learn_ids_repeated", "score_many_ids", "score_workspace", "score_many",
        )
    ),
    *(
        ("repro.defenses.roni", "RoniDefense", attr)
        for attr in ("measure_tokens", "measure_ids", "measure_batch", "measure", "measure_many")
    ),
    ("repro.defenses.threshold", "DynamicThresholdDefense", "fit"),
    ("repro.defenses.threshold", "DynamicThresholdDefense", "fit_from_scores"),
    ("repro.engine.runner", "WorkerPool", "__init__"),
    ("repro.engine.runner", "ParallelRunner", "map"),
    ("repro.engine.supervise", "SuperviseStats", "bump"),
    ("repro.experiments.results", "ReplicatedRecord", "pool"),
    ("repro.stream.profile", "PhaseTimer", "finish"),
    ("repro.serve.batcher", "MicroBatcher", "submit"),
    ("repro.serve.service", "FilterService", "_score_batch"),
    ("repro.serve.service", "FilterService", "_apply_learn"),
]

# Module functions it rebinds by name (``_patch_function`` or a plain
# assignment).
_PATCHED_FUNCTIONS = [
    ("repro.scenarios.protocols", "prepare_inbox"),
    ("repro.experiments.results", "save_record"),
    ("repro.engine.runner", "_tiny_map_ships"),
]


@pytest.mark.parametrize(
    "module, owner, attr", _PATCHED_METHODS, ids=[f"{o}.{a}" for _, o, a in _PATCHED_METHODS]
)
def test_patched_method_is_defined_on_its_class(module, owner, attr):
    cls = getattr(importlib.import_module(module), owner)
    assert attr in cls.__dict__, f"{owner}.{attr} is not defined on {owner} itself"
    assert callable(getattr(cls, attr))


@pytest.mark.parametrize(
    "module, name", _PATCHED_FUNCTIONS, ids=[f"{m}.{n}" for m, n in _PATCHED_FUNCTIONS]
)
def test_patched_function_is_defined_in_its_module(module, name):
    loaded = importlib.import_module(module)
    function = vars(loaded).get(name)
    assert callable(function), f"{module}.{name} is gone"
    assert function.__module__ == module, f"{module}.{name} is re-exported from {function.__module__}"
