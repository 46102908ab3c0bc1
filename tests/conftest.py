"""Shared fixtures.

Corpus generation is deterministic, so the expensive fixtures are
session-scoped: every test that asks for ``small_corpus`` sees the
exact same object, and mutating tests must copy what they touch.

``REPRO_WORKERS`` sets the worker count the experiment-running tests
pass to their configs, so CI can run the identical suite once
sequentially and once through the process fan-out.  Results are bit-identical at any value — that is the
engine's contract — so the assertions never change, only which code
path proves them.
"""

from __future__ import annotations

import os

import pytest

from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE, SMALL_PROFILE, Vocabulary
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import SpamFilter

SUITE_WORKERS = int(os.environ.get("REPRO_WORKERS", "1") or "1")
"""Worker processes for experiment-running tests (env REPRO_WORKERS)."""


@pytest.fixture(scope="session")
def suite_workers() -> int:
    """The REPRO_WORKERS-resolved worker count for experiment configs."""
    return SUITE_WORKERS


@pytest.fixture(scope="session")
def tiny_vocabulary() -> Vocabulary:
    """A few hundred words; enough structure for unit tests."""
    return Vocabulary.build(TINY_PROFILE, seed=42)


@pytest.fixture(scope="session")
def tiny_corpus() -> TrecStyleCorpus:
    """120 ham / 120 spam over the tiny vocabulary."""
    return TrecStyleCorpus.generate(n_ham=120, n_spam=120, profile=TINY_PROFILE, seed=42)


@pytest.fixture(scope="session")
def small_corpus() -> TrecStyleCorpus:
    """500 ham / 500 spam over the 1/10-paper-scale vocabulary.

    Used by integration tests that need realistic dictionary overlap
    and Zipf tails.  Read-only: never train *into* its messages.
    """
    return TrecStyleCorpus.generate(n_ham=500, n_spam=500, profile=SMALL_PROFILE, seed=7)


@pytest.fixture(scope="session")
def trained_small_filter(small_corpus) -> SpamFilter:
    """A filter trained on a 400-message inbox of ``small_corpus``.

    Session-scoped and therefore read-only; tests that need to mutate
    training state must take a ``.copy()``.
    """
    rng = SeedSpawner(99).rng("trained-filter-inbox")
    inbox = small_corpus.dataset.sample_inbox(400, 0.5, rng)
    spam_filter = SpamFilter()
    for message in inbox:
        spam_filter.classifier.learn(message.tokens(), message.is_spam)
    return spam_filter


@pytest.fixture()
def empty_classifier() -> Classifier:
    return Classifier()
