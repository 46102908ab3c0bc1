"""Hash-seed determinism: the table layout contract, end to end.

Token sets are ``set``/``frozenset`` objects, and set iteration order
varies with ``PYTHONHASHSEED`` — so any code path that assigned IDs in
iteration order made the token table layout (and everything ID-keyed
downstream: count columns, snapshots, persisted dumps, encoded
arrays, grouping keys) differ between two runs of the *same* program.
These tests run identical work under several explicit hash seeds in
subprocesses and assert the observable state is identical, which is
the foundation the byte-identical-records guarantee stands on.  The
records themselves are pinned across hash seeds by the golden harness
(``tests/test_golden.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

HASH_SEEDS = ("0", "1", "2")


def _run_under_hash_seed(script: str, hash_seed: str) -> str:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


_TABLE_LAYOUT_SCRIPT = """
import json
from repro.spambayes.classifier import Classifier
from repro.spambayes.persistence import classifier_to_dict
from repro.spambayes.token_table import TokenTable

# encode_unique: one batch of brand-new tokens arriving as a set.
table = TokenTable()
first = table.encode_unique({"pear", "apple", "quince", "mango", "banana"})
second = table.encode_unique({"mango", "cherry", "apple", "date"})

# The string-facing training path interns through the same layer.
classifier = Classifier()
classifier.learn({"zeta", "alpha", "mu", "kappa"}, True)
classifier.learn_repeated({"mu", "omega", "beta"}, False, 3)
classifier.unlearn_repeated({"mu", "omega", "beta"}, False, 1)

print(json.dumps({
    "table": list(table),
    "first": list(first),
    "second": list(second),
    "classifier_table": list(classifier.table),
    "dump": classifier_to_dict(classifier),
}))
"""


@pytest.mark.slow
class TestTableLayoutAcrossHashSeeds:
    def test_same_encode_same_layout_and_dump_under_three_hash_seeds(self):
        outputs = [
            _run_under_hash_seed(_TABLE_LAYOUT_SCRIPT, seed) for seed in HASH_SEEDS
        ]
        parsed = [json.loads(output) for output in outputs]
        for other in parsed[1:]:
            assert other == parsed[0]
        # And the layout is the documented one: batch arrival order,
        # sorted within each batch.
        assert parsed[0]["table"] == [
            "apple", "banana", "mango", "pear", "quince", "cherry", "date",
        ]

    def test_save_classifier_dumps_identical_across_hash_seeds(self, tmp_path):
        script = f"""
import pathlib
from repro.spambayes.classifier import Classifier
from repro.spambayes.persistence import save_classifier

classifier = Classifier()
classifier.learn({{"cash", "offer", "prize", "winner"}}, True)
classifier.learn({{"meeting", "agenda", "notes"}}, False)
out = pathlib.Path(r"{tmp_path}") / ("dump-" + __import__("os").environ["PYTHONHASHSEED"] + ".json")
save_classifier(classifier, out)
print(out)
"""
        paths = [
            Path(_run_under_hash_seed(script, seed).strip()) for seed in HASH_SEEDS
        ]
        blobs = [path.read_bytes() for path in paths]
        assert blobs[1] == blobs[0]
        assert blobs[2] == blobs[0]
