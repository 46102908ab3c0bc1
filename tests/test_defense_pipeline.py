"""Tests for the end-to-end defended training pipelines."""

from __future__ import annotations

import pytest

from repro.attacks.dictionary import UsenetDictionaryAttack
from repro.defenses.pipeline import train_with_dynamic_threshold, train_with_roni
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.rng import SeedSpawner


@pytest.fixture(scope="module")
def pool(small_corpus):
    return small_corpus.dataset.sample_inbox(200, 0.5, SeedSpawner(41).rng("pool"))


class TestTrainWithRoni:
    def test_attack_messages_rejected_normal_accepted(self, small_corpus, pool):
        attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        batch = attack.generate(3, SeedSpawner(42).rng("a"))
        attack_messages = attack_messages_as_dataset(batch)
        pool_ids = {m.msgid for m in pool}
        incoming_normal = [
            m for m in small_corpus.dataset if m.msgid not in pool_ids
        ][:10]
        incoming = attack_messages + incoming_normal
        spam_filter, report = train_with_roni(
            pool, incoming, SeedSpawner(43).rng("roni")
        )
        rejected_ids = {m.msgid for m in report.rejected}
        assert {m.msgid for m in attack_messages} <= rejected_ids
        assert not (rejected_ids & {m.msgid for m in incoming_normal})
        assert report.rejection_rate == pytest.approx(3 / 13)
        # The filter trained on pool + accepted only.
        expected = len(pool) + len(report.accepted)
        assert spam_filter.classifier.nspam + spam_filter.classifier.nham == expected

    def test_verdicts_recorded_per_message(self, small_corpus, pool):
        pool_ids = {m.msgid for m in pool}
        incoming = [m for m in small_corpus.dataset if m.msgid not in pool_ids][:5]
        _, report = train_with_roni(pool, incoming, SeedSpawner(44).rng("roni"))
        assert set(report.verdicts) == {m.msgid for m in incoming}

    def test_empty_incoming(self, pool):
        spam_filter, report = train_with_roni(pool, [], SeedSpawner(45).rng("roni"))
        assert report.rejection_rate == 0.0
        assert spam_filter.classifier.nspam + spam_filter.classifier.nham == len(pool)


class TestTrainWithDynamicThreshold:
    def test_returns_filter_with_fitted_thresholds(self, pool):
        spam_filter, fit = train_with_dynamic_threshold(pool, SeedSpawner(46).rng("t"))
        assert spam_filter.ham_cutoff == fit.ham_cutoff
        assert spam_filter.spam_cutoff == fit.spam_cutoff

    def test_poisoned_training_moves_thresholds_up(self, small_corpus, pool):
        from repro.corpus.dataset import Dataset

        attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        batch = attack.generate(20, SeedSpawner(47).rng("a"))
        poisoned = Dataset(pool.messages + attack_messages_as_dataset(batch))
        clean_filter, clean_fit = train_with_dynamic_threshold(
            pool, SeedSpawner(48).rng("t")
        )
        _, poisoned_fit = train_with_dynamic_threshold(
            poisoned, SeedSpawner(48).rng("t")
        )
        assert poisoned_fit.ham_cutoff > clean_fit.ham_cutoff
