"""Saving and restoring trained classifier state.

The on-disk format is a single JSON document (optionally gzipped when
the path ends in ``.gz``, matched case-insensitively):

.. code-block:: json

    {
      "format": "repro-spambayes-v1",
      "nspam": 123,
      "nham": 456,
      "options": {"ham_cutoff": 0.15, ...},
      "words": {"token": [spamcount, hamcount], ...}
    }

JSON keeps the dump greppable and diff-able — handy when inspecting
exactly which tokens an attack poisoned — at the cost of some size,
which gzip recovers.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.errors import PersistenceError, TrainingError
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions
from repro.storage.io import read_payload_text, write_payload_text

__all__ = ["classifier_to_dict", "classifier_from_dict", "save_classifier", "load_classifier"]

_FORMAT = "repro-spambayes-v1"


def classifier_to_dict(classifier: Classifier) -> dict[str, Any]:
    """Serialize a classifier (state + options) to plain data.

    The dump is storage-agnostic: the interned token-ID core writes the
    same ``token -> [spamcount, hamcount]`` mapping (tokens sorted) the
    dict-keyed core always produced, so dumps are interchangeable
    between the two and stable across table layouts.
    """
    words: dict[str, list[int]] = {}
    for token in sorted(classifier.iter_vocabulary()):
        record = classifier.word_info(token)
        words[token] = [record.spamcount, record.hamcount]
    return {
        "format": _FORMAT,
        "nspam": classifier.nspam,
        "nham": classifier.nham,
        "options": asdict(classifier.options),
        "words": words,
    }


def classifier_from_dict(data: dict[str, Any]) -> Classifier:
    """Rebuild a classifier from :func:`classifier_to_dict` output.

    Restores through :meth:`Classifier.from_token_counts`, the
    supported bulk-load constructor, so a loaded classifier carries the
    same vocabulary count and memo state a trained one does — it can
    keep training, snapshot, and bulk-score exactly like the classifier
    that was saved.
    """
    if data.get("format") != _FORMAT:
        raise PersistenceError(
            f"unsupported classifier dump format: {data.get('format')!r}"
        )
    try:
        options = ClassifierOptions(**data["options"])
        nspam = int(data["nspam"])
        nham = int(data["nham"])
        counts = [
            (token, int(pair[0]), int(pair[1]))
            for token, pair in data["words"].items()
        ]
        return Classifier.from_token_counts(
            counts, nspam=nspam, nham=nham, options=options
        )
    except (KeyError, TypeError, ValueError, OverflowError, TrainingError) as exc:
        raise PersistenceError(f"corrupt classifier dump: {exc}") from exc


def save_classifier(classifier: Classifier, path: str | Path) -> None:
    """Write ``classifier`` to ``path`` (gzipped when it ends in .gz).

    Gzip-by-suffix (case-insensitive, on save *and* load — a dump
    written to ``model.json.GZ`` must come back through the same
    codec) and atomic replacement both live in
    :mod:`repro.storage.io`, shared with every other save path.
    """
    path = Path(path)
    payload = json.dumps(classifier_to_dict(classifier), separators=(",", ":"))
    try:
        write_payload_text(path, payload)
    except OSError as exc:
        raise PersistenceError(f"cannot write classifier to {path}: {exc}") from exc


def load_classifier(path: str | Path) -> Classifier:
    """Read a classifier previously written by :func:`save_classifier`."""
    path = Path(path)
    try:
        data = json.loads(read_payload_text(path))
    except OSError as exc:
        raise PersistenceError(f"cannot read classifier from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"classifier dump at {path} is not valid JSON: {exc}") from exc
    return classifier_from_dict(data)
