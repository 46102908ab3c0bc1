"""Fault injection against the serving layer.

The daemon inherits PR 7's supervision contract: with
``REPRO_FAULTS=crash:p=...`` ambient, worker processes scoring a batch
die mid-chunk, the supervised pool respawns and retries them, and
after the retry budget the batch degrades to inline scoring — all
invisible to clients, who receive exactly the floats the clean
reference produces.  Faults only fire inside marked worker processes
(:func:`repro.engine.faults.mark_worker_process`), so the library
reference computed in this test process is clean by construction even
while the env var is set.
"""

from __future__ import annotations

import pytest

from repro.rng import SeedSpawner
from repro.serve import ServeClient, ServeConfig
from harness import serve_in_thread
from repro.spambayes import ndkernel
from repro.storage import STORE_DIR_ENV


@pytest.fixture(autouse=True)
def _rooted_store_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))


@pytest.fixture(scope="module")
def workload(tiny_corpus):
    rng = SeedSpawner(777).rng("serve-faults")
    inbox = tiny_corpus.dataset.sample_inbox(70, 0.5, rng)
    train = [(sorted(m.tokens()), m.is_spam) for m in inbox[:30]]
    score = [sorted(m.tokens()) for m in inbox[30:]]
    return train, score


def _clean_reference(train, score):
    classifier = ndkernel.create_classifier()
    for tokens, is_spam in train:
        classifier.learn(tokens, is_spam)
    return classifier.score_many(score)


def _serve_under_faults(tmp_path, train, score):
    config = ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        batch_window_ms=10.0,
        workers=2,
    )
    with serve_in_thread(config) as service:
        with ServeClient(service.address) as client:
            for tokens, is_spam in train:
                client.train(tokens, is_spam)
            ids = [client.send("score", tokens=tokens) for tokens in score]
            served = [client.recv(request_id)["score"] for request_id in ids]
            stats = client.stats()
    return served, stats


class TestCrashInjection:
    def test_scores_identical_under_ambient_crashes(
        self, tmp_path, monkeypatch, workload
    ):
        """``crash:p=0.2``: enough worker deaths to exercise respawn
        and retry, zero effect on the bytes clients receive."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=0.2,seed=7")
        train, score = workload
        expected = _clean_reference(train, score)
        served, stats = _serve_under_faults(tmp_path, train, score)
        assert served == expected
        # The suite proves nothing if injection silently stopped
        # firing: supervision must have actually recovered something.
        supervision = stats["supervision"]
        assert supervision["crashes"] > 0
        assert supervision["respawns"] > 0

    def test_scores_identical_when_every_attempt_crashes(
        self, tmp_path, monkeypatch, workload
    ):
        """``crash:p=1``: the retry budget always exhausts and every
        batch degrades to inline scoring in the daemon — the terminal
        recovery path — still byte-identical, daemon still alive."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=1,seed=3")
        train, score = workload
        probes = score[:8]
        expected = _clean_reference(train, probes)
        served, stats = _serve_under_faults(tmp_path, train, probes)
        assert served == expected
        supervision = stats["supervision"]
        assert supervision["degraded_chunks"] > 0
        assert supervision["crashes"] > 0

    def test_supervision_counters_surface_in_stats(
        self, tmp_path, monkeypatch, workload
    ):
        """Ops-facing observability: a pooled daemon reports the full
        supervision ledger over the wire."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=0.2,seed=7")
        train, score = workload
        _, stats = _serve_under_faults(tmp_path, train, score[:10])
        assert set(stats["supervision"]) == {
            "crashes",
            "timeouts",
            "respawns",
            "retried_chunks",
            "degraded_chunks",
        }

    def test_inline_daemon_ignores_fault_plan(
        self, tmp_path, monkeypatch, workload
    ):
        """``workers=1`` scoring never enters a worker process, so the
        ambient plan cannot touch it — the clean-reference arm the
        differential above leans on, pinned explicitly."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=1,seed=3")
        train, score = workload
        probes = score[:5]
        expected = _clean_reference(train, probes)
        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"), batch_window_ms=0.0
        )
        with serve_in_thread(config) as service:
            with ServeClient(service.address) as client:
                for tokens, is_spam in train:
                    client.train(tokens, is_spam)
                served = [client.score(tokens) for tokens in probes]
                assert "supervision" not in client.stats()
        assert served == expected
