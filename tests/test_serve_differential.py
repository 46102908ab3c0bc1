"""Serve differentials: a mutating session over the wire equals the
same library call sequence, score for score.

The daemon's whole value rests on one equivalence: a score obtained
over the socket is the *same float* ``Classifier.score`` returns for
the same message against the same training state.  JSON round-trips
IEEE doubles exactly (``float(repr(x)) == x``), so the comparison below
is ``==`` on floats, not approx.  Scores after a fixed training set —
unbatched, coalesced and pooled, under each kernel and store — are
pinned by the serve golden in ``tests/test_golden.py``.
"""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.rng import SeedSpawner
from repro.serve import ServeClient, ServeConfig
from harness import serve_in_thread
from repro.spambayes import ndkernel
from repro.storage import STORE_DIR_ENV, STORE_ENV

STORES = ("memory", "disk")


@pytest.fixture(autouse=True)
def _rooted_store_dir(tmp_path, monkeypatch):
    # Root any disk backend this test lazily creates under pytest's
    # tmp tree.  (The backend is cached per process, so only the first
    # disk-using test in a session actually picks the root.)
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))


@pytest.fixture(scope="module")
def workload(tiny_corpus):
    """A deterministic train/score split of the tiny corpus.

    Token lists (sorted — ``tokens()`` is a frozenset and JSON needs a
    sequence) rather than message objects, because that is exactly
    what crosses the wire.
    """
    rng = SeedSpawner(2008).rng("serve-differential")
    inbox = tiny_corpus.dataset.sample_inbox(60, 0.5, rng)
    train = [(sorted(m.tokens()), m.is_spam) for m in inbox[:40]]
    score = [sorted(m.tokens()) for m in inbox[40:]]
    return train, score


class TestMutationSequenceMatchesLibrary:
    @pytest.mark.parametrize("store", STORES)
    def test_train_score_feedback_score(self, tmp_path, workload, store):
        """An interleaved train -> score -> feedback -> score session
        equals the identical library call sequence, state for state."""
        train, score = workload
        probe = score[0]
        with mock.patch.dict(os.environ, {STORE_ENV: store}):
            classifier = ndkernel.create_classifier()
            expected = []
            for index, (tokens, is_spam) in enumerate(train):
                classifier.learn(tokens, is_spam)
                if index % 7 == 0:
                    expected.append(classifier.score(probe))
            classifier.learn(probe, True)  # the feedback correction
            expected.append(classifier.score(probe))

            config = ServeConfig(
                socket_path=str(tmp_path / "serve.sock"), batch_window_ms=0.0
            )
            with serve_in_thread(config) as service:
                with ServeClient(service.address) as client:
                    served = []
                    for index, (tokens, is_spam) in enumerate(train):
                        reply = client.train(tokens, is_spam)
                        assert reply["seq"] == index + 1
                        if index % 7 == 0:
                            served.append(client.score(probe))
                    client.feedback(probe, True)
                    served.append(client.score(probe))
        assert served == expected

    def test_model_seq_tracks_training_state(self, tmp_path, workload):
        """Every score reply names the exact mutation count it was
        computed under — the stamp the replay proof keys on."""
        train, score = workload
        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=0.0
        )
        with serve_in_thread(config) as service:
            with ServeClient(service.address) as client:
                for count, (tokens, is_spam) in enumerate(train[:5], start=1):
                    client.train(tokens, is_spam)
                    reply = client.request("score", tokens=list(score[0]))
                    assert reply["model_seq"] == count
