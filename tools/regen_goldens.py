#!/usr/bin/env python3
"""Golden records: write them, check them, replay them in any cell.

``tests/golden/`` holds one record per registered scenario, two
replicated records and a serve golden (see its README).  A scenario
golden says how it was produced and holds the ``--out`` artifact of
``repro run-scenario`` / ``repro replicate``: ``record`` is the artifact
parsed back and ``sha256`` pins its bytes.

    PYTHONPATH=src python tools/regen_goldens.py          # rewrite (make goldens)
    PYTHONPATH=src python tools/regen_goldens.py --check  # compare, write nothing

Both run at one fixed cell: the memory store, one worker,
``PYTHONHASHSEED=0``, whatever ``REPRO_STORE`` or ``REPRO_WORKERS`` the
calling shell sets.  ``--check`` names each mismatching entry and the
first JSON path where it differs; it is not store or worker coverage.
``tests/test_golden.py`` replays the goldens across the determinism
matrix (stores, workers, hash seeds, faults) through :func:`render` and
:func:`compare`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
FIXED_HASH_SEED = "0"

# Small enough for tier-1, large enough that every pool stays reachable
# at workers 2 and 3: three folds, repetitions, token-shift targets, RONI
# batches and caught spam (of six), two replicas.
_SWEEP = {"inbox_size": 90, "folds": 3, "corpus_ham": 60, "corpus_spam": 60,
          "attack_fractions": (0.0, 0.05)}
_FOCUSED = {"inbox_size": 60, "n_targets": 2, "repetitions": 3, "attack_count": 8,
            "corpus_ham": 60, "corpus_spam": 60}
_RONI = {"pool_size": 80, "n_nonattack_spam": 3, "repetitions_per_variant": 3,
         "informed_budget": 60, "corpus_ham": 80, "corpus_spam": 80}
_STREAM = {"ticks": 3, "ham_per_tick": 12, "spam_per_tick": 12, "attack_start_tick": 2,
           "attack_per_tick": 4, "test_size": 24}
_RAMP = {**_STREAM, "ramp_ticks": 2}
# The RONI gate opens once the accepted history seats one default
# 20 + 50 calibration (35 ham): two warm ticks, attacked on the third.
_STREAM_RONI = {**_STREAM, "ham_per_tick": 18, "spam_per_tick": 18, "attack_start_tick": 3}

ENTRIES: dict[str, dict[str, Any]] = {
    "figure1-dictionary": {"overrides": _SWEEP},
    "figure2-focused-knowledge": {"overrides": {**_FOCUSED, "guess_probabilities": (0.1, 0.9)}},
    "figure3-focused-size": {"overrides": {**_FOCUSED, "size_sweep_fractions": (0.0, 0.05, 0.1)}},
    "figure4-token-shift": {"overrides": {
        "inbox_size": 60, "n_targets": 3, "attack_count": 8, "corpus_ham": 60, "corpus_spam": 60}},
    "roni-defense": {"overrides": _RONI},
    "figure5-threshold": {"overrides": {**_SWEEP, "quantiles": (0.1,)}},
    "table1-parameters": {"overrides": {}},
    "goodword-evasion": {"overrides": {
        "inbox_size": 80, "n_test_spam": 6, "word_budgets": (0, 10, 50),
        "oracle_candidates": 200, "corpus_ham": 60, "corpus_spam": 60}},
    "aspell-vs-threshold": {"overrides": {**_SWEEP, "quantiles": (0.1,)}},
    "dictionary-vs-none": {"overrides": _SWEEP},
    "focused-vs-roni": {"overrides": _RONI},
    "stream-dictionary-ramp": {"overrides": _RAMP},
    "stream-dictionary-vs-roni": {"overrides": _STREAM_RONI},
    "stream-focused-vs-roni": {"overrides": _STREAM_RONI},
    "stream-usenet-burst": {"overrides": _RAMP},
    "stream-threshold-over-time": {"overrides": _STREAM},
    "stream-clean-control": {"overrides": {**_STREAM, "attack_per_tick": 0}},
    "replicate-dictionary-vs-none": {"scenario": "dictionary-vs-none", "seeds": 2, "overrides": _SWEEP},
    "replicate-stream-dictionary-ramp": {"scenario": "stream-dictionary-ramp", "seeds": 2, "overrides": _RAMP},
}
"""Entry -> how to produce its record (``scenario`` defaults to the
entry name; ``seeds`` makes it a ``repro replicate`` entry)."""

SERVE = "serve"
SERVE_WORKLOAD = {
    "corpus": {"n_ham": 120, "n_spam": 120, "profile": "tiny", "seed": 42},
    "split": {"seed": 2008, "stream": "serve-differential", "inbox": 60, "train": 40},
}
"""The serve golden: library scores for the score half of this split
after training on the train half."""


def golden_spec(name: str) -> dict[str, Any]:
    """The self-description a scenario golden carries."""
    entry = ENTRIES[name]
    spec = {"entry": name, "command": "replicate" if "seeds" in entry else "run-scenario",
            "scenario": entry.get("scenario", name), "seed": 0}
    if "seeds" in entry:
        spec["seeds"] = entry["seeds"]
    spec["overrides"] = {k: list(v) if isinstance(v, tuple) else v
                         for k, v in entry["overrides"].items()}
    return spec


def golden_path(name: str, golden_dir: Path = GOLDEN_DIR) -> Path:
    return golden_dir / f"{name}.json"


def load_golden(name: str, golden_dir: Path = GOLDEN_DIR) -> dict[str, Any]:
    return json.loads(golden_path(name, golden_dir).read_text(encoding="utf-8"))


def render(golden: dict[str, Any], workers: int = 1) -> bytes:
    """Run the golden's ``repro`` command in-process; its ``--out`` bytes."""
    from repro.cli import main

    replicate = golden["command"] == "replicate"
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        out = Path(tmp) / "record.json" if replicate else Path(tmp)
        argv = [golden["command"], golden["scenario"], "--seed", str(golden["seed"]),
                "--workers", str(workers), "--out", str(out)]
        if "seeds" in golden:
            argv += ["--seeds", str(golden["seeds"])]
        for key, value in golden["overrides"].items():
            argv += ["--set", f"{key}={tuple(value) if isinstance(value, list) else value!r}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            if main(argv) != 0:
                raise RuntimeError(f"{golden['entry']}: {stderr.getvalue().strip()}")
        return (out if replicate else out / f"{golden['scenario']}.json").read_bytes()


def serve_workload() -> tuple[list[tuple[list[str], bool]], list[list[str]]]:
    """The serve golden's (train, score) token lists, as sent on the wire."""
    from repro.corpus.trec import TrecStyleCorpus
    from repro.corpus.vocabulary import TINY_PROFILE
    from repro.rng import SeedSpawner

    corpus, split = SERVE_WORKLOAD["corpus"], SERVE_WORKLOAD["split"]
    dataset = TrecStyleCorpus.generate(n_ham=corpus["n_ham"], n_spam=corpus["n_spam"],
                                       profile=TINY_PROFILE, seed=corpus["seed"]).dataset
    inbox = dataset.sample_inbox(split["inbox"], 0.5, SeedSpawner(split["seed"]).rng(split["stream"]))
    # Sorted lists: tokens() is a frozenset and JSON needs a sequence.
    train = [(sorted(m.tokens()), m.is_spam) for m in inbox[: split["train"]]]
    return train, [sorted(m.tokens()) for m in inbox[split["train"]:]]


def library_scores(train, score) -> list[float]:
    from repro.spambayes.ndkernel import create_classifier

    classifier = create_classifier()
    for tokens, is_spam in train:
        classifier.learn(tokens, is_spam)
    return classifier.score_many(score)


def first_difference(expected: Any, actual: Any, path: str = "$") -> str | None:
    """The first JSON path where two parsed documents differ, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict) and list(expected) == list(actual):
        pairs = [(f"{path}.{key}", expected[key], actual[key]) for key in expected]
    elif isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        pairs = [(f"{path}[{i}]", left, right) for i, (left, right) in enumerate(zip(expected, actual))]
    elif type(expected) is type(actual) and expected == actual:
        return None
    else:
        return f"{path}: expected {json.dumps(expected)[:80]}, got {json.dumps(actual)[:80]}"
    return next(filter(None, (first_difference(e, a, p) for p, e, a in pairs)), None)


def compare(golden: dict[str, Any], artifact: bytes) -> str | None:
    """None when ``artifact`` is the golden's bytes, else the entry and
    the first JSON path where the records differ."""
    if hashlib.sha256(artifact).hexdigest() == golden["sha256"]:
        return None
    where = first_difference(golden["record"], json.loads(artifact)) or "$ (formatting)"
    return f"{golden['entry']}: record differs from golden at {where}"


def compare_scores(golden: dict[str, Any], scores: list[float]) -> str | None:
    where = first_difference(golden["scores"], scores, "$.scores")
    return where and f"{golden['entry']}: {where}"


FIXED_CELL = "memory store, one worker"
"""The cell :func:`build_golden` renders in, as ``--check`` reports it."""


def build_golden(name: str) -> dict[str, Any]:
    """One golden, rendered at the fixed cell's store and worker count
    under this process's hash seed (:func:`main` pins that)."""
    with mock.patch.dict(os.environ, REPRO_STORE="memory"):
        if name == SERVE:
            return {"entry": name, **SERVE_WORKLOAD, "scores": library_scores(*serve_workload())}
        golden = golden_spec(name)
        artifact = render(golden)
    record = json.loads(artifact)
    if json.dumps(record, indent=2).encode() != artifact:
        raise RuntimeError(f"{name}: the parsed record does not re-render to the artifact")
    return {**golden, "sha256": hashlib.sha256(artifact).hexdigest(), "record": record}


def golden_text(golden: dict[str, Any]) -> str:
    return json.dumps(golden, indent=2) + "\n"


def check(names: list[str], golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """Every mismatch between the goldens on disk and a fresh render."""
    problems = []
    for name in names:
        stored = load_golden(name, golden_dir)
        fresh = build_golden(name)
        if name == SERVE:
            problems.append(compare_scores(stored, fresh["scores"]))
            continue
        spec = golden_spec(name)
        problems.append(
            f"{name}: golden describes a different run than {spec}"
            if {key: stored.get(key) for key in spec} != spec
            else compare(stored, json.dumps(fresh["record"], indent=2).encode())
            # A record edited by hand no longer matches its own hash.
            or compare(fresh, json.dumps(stored["record"], indent=2).encode())
        )
    return [problem for problem in problems if problem]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write or check tests/golden/.")
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare at the fixed cell ({FIXED_CELL}); write nothing")
    parser.add_argument("entries", nargs="*", help="entries to regenerate (default all)")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != FIXED_HASH_SEED:
        # Only a fresh interpreter can pin string hashing.
        env = {**os.environ, "PYTHONHASHSEED": FIXED_HASH_SEED}
        forwarded = sys.argv[1:] if argv is None else argv
        return subprocess.run([sys.executable, __file__, *forwarded], env=env).returncode
    os.environ.pop("REPRO_FAULTS", None)  # the fixed cell runs fault-free
    names = args.entries or [*ENTRIES, SERVE]
    unknown = set(names) - {*ENTRIES, SERVE}
    if unknown:
        parser.error(f"unknown entries: {sorted(unknown)}")
    if args.check:
        problems = check(names)
        summary = f"{len(names) - len(problems)}/{len(names)} goldens match ({FIXED_CELL})"
        print("\n".join(problems + [summary]))
        return 1 if problems else 0
    for name in names:
        golden_path(name).write_text(golden_text(build_golden(name)), encoding="utf-8")
        print(f"wrote {golden_path(name).relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
