"""Tests for the RONI defense."""

from __future__ import annotations

import pytest

from repro.attacks.base import AttackBatch, AttackMessageGroup
from repro.attacks.dictionary import AspellDictionaryAttack, UsenetDictionaryAttack
from repro.corpus.dataset import (
    Dataset,
    AttackPayload,
    LabeledMessage,
    group_token_ids,
    train_grouped,
)
from repro.defenses.base_types import DefenseVerdict
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.errors import DefenseError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.token_table import TokenTable


def split(defense, candidates):
    """``(accepted, rejected)`` as the stream's RONI gate decides them:
    one :meth:`RoniDefense.measure_many` sweep, then the threshold."""
    accepted, rejected = [], []
    for message, measurement in zip(candidates, defense.measure_many(candidates)):
        (rejected if defense._verdict(measurement).rejected else accepted).append(message)
    return accepted, rejected


@pytest.fixture(scope="module")
def pool(small_corpus):
    return small_corpus.dataset.sample_inbox(200, 0.5, SeedSpawner(21).rng("roni-pool"))


@pytest.fixture(scope="module")
def defense(pool):
    return RoniDefense(pool, SeedSpawner(22).rng("roni"))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_size": 1},
            {"validation_size": 0},
            {"trials": 0},
            {"spam_fraction": 0.0},
            {"spam_fraction": 1.0},
            {"ham_as_ham_threshold": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(DefenseError):
            RoniConfig(**kwargs)

    def test_paper_defaults(self):
        config = RoniConfig()
        assert config.train_size == 20
        assert config.validation_size == 50
        assert config.trials == 5

    def test_pool_too_small_rejected(self, small_corpus):
        tiny_pool = small_corpus.dataset.subset(range(30))
        with pytest.raises(DefenseError):
            RoniDefense(tiny_pool, SeedSpawner(1).rng("x"))


class TestMeasurement:
    def test_attack_email_has_large_negative_impact(self, defense, small_corpus):
        attack = AspellDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        tokens = attack.generate(1, SeedSpawner(2).rng("a")).groups[0].training_tokens
        measurement = defense.measure_tokens(tokens, is_spam=True)
        assert measurement.ham_as_ham_decrease > 5.0

    def test_ordinary_spam_has_small_impact(self, defense, small_corpus):
        message = small_corpus.dataset.spam[3]
        measurement = defense.measure(message)
        assert measurement.ham_as_ham_decrease < 5.0

    def test_measurement_restores_baselines(self, defense, small_corpus):
        """Measuring twice must give identical results (state restored)."""
        message = small_corpus.dataset.spam[4]
        first = defense.measure(message)
        second = defense.measure(message)
        assert first == second

    def test_trials_recorded(self, defense, small_corpus):
        measurement = defense.measure(small_corpus.dataset.spam[5])
        assert measurement.trials == RoniConfig().trials


class TestVerdicts:
    def test_attack_rejected(self, defense, small_corpus):
        attack = AspellDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        tokens = attack.generate(1, SeedSpawner(3).rng("a")).groups[0].training_tokens
        verdict = defense._verdict(defense.measure_tokens(tokens, is_spam=True))
        assert verdict.rejected
        assert verdict.verdict is DefenseVerdict.REJECT

    def test_ordinary_messages_accepted(self, defense, small_corpus):
        for message in small_corpus.dataset.spam[6:10]:
            assert not defense._verdict(defense.measure(message)).rejected
        for message in small_corpus.dataset.ham[6:10]:
            assert not defense._verdict(defense.measure(message)).rejected

    def test_batch_split_rejects_only_the_attack(self, defense, small_corpus):
        attack = AspellDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        attack_message = LabeledMessage(
            AttackPayload(attack.generate(1, SeedSpawner(4).rng("a")), 0), True, "att"
        )
        candidates = [attack_message] + small_corpus.dataset.spam[11:14]
        accepted, rejected = split(defense, candidates)
        assert [m.msgid for m in rejected] == ["att"]
        assert len(accepted) == 3


class TestGatedTraining:
    """RONI screening a retraining batch: only accepted mail trains."""

    @pytest.fixture(scope="class")
    def gate(self, small_corpus):
        pool = small_corpus.dataset.sample_inbox(200, 0.5, SeedSpawner(41).rng("pool"))
        return pool, RoniDefense(pool, SeedSpawner(43).rng("roni"))

    def test_attack_messages_rejected_normal_accepted(self, small_corpus, gate):
        pool, defense = gate
        attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        attack_messages = attack_messages_as_dataset(
            attack.generate(3, SeedSpawner(42).rng("a"))
        )
        pool_ids = {m.msgid for m in pool}
        incoming_normal = [m for m in small_corpus.dataset if m.msgid not in pool_ids][:10]
        accepted, rejected = split(defense, attack_messages + incoming_normal)
        rejected_ids = {m.msgid for m in rejected}
        assert rejected_ids == {m.msgid for m in attack_messages}
        assert [m.msgid for m in accepted] == [m.msgid for m in incoming_normal]
        # The retrained filter sees the pool plus accepted mail only.
        classifier = Classifier()
        train_grouped(classifier, Dataset(pool.messages + accepted))
        assert classifier.nspam + classifier.nham == len(pool) + len(incoming_normal)

    def test_empty_incoming(self, gate):
        _, defense = gate
        assert split(defense, []) == ([], [])


class TestRepeatedCandidates:
    """Copies of one payload are encoded and measured once."""

    @staticmethod
    def _batch(small_corpus, pool):
        attack = AspellDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        copies = attack_messages_as_dataset(attack.generate(4, SeedSpawner(51).rng("a")))
        payload = copies[0].tokens()
        assert all(message.tokens() is payload for message in copies)
        # Two more payloads: an equal token set in a batch of its own,
        # and the same set trained as ham.
        [equal] = attack_messages_as_dataset(
            AttackBatch("equal-set", [AttackMessageGroup(frozenset(set(payload)), 1)])
        )
        as_ham = LabeledMessage(
            AttackPayload(AttackBatch("ham-label", [AttackMessageGroup(payload, 1)]), 0),
            False,
            "ham-label",
        )
        pool_ids = {m.msgid for m in pool}
        fresh = [m for m in small_corpus.dataset if m.msgid not in pool_ids][:4]
        # 4 copies + 1 equal set + 1 ham label + 4 ordinary messages.
        return fresh[:2] + copies[:2] + [equal, as_ham] + copies[2:] + fresh[2:]

    def test_measure_many_measures_each_group_once(self, monkeypatch, small_corpus, pool):
        batch = self._batch(small_corpus, pool)
        batched = RoniDefense(pool, SeedSpawner(52).rng("roni"))
        looped = RoniDefense(pool, SeedSpawner(52).rng("roni"))

        encoded = []
        original = TokenTable.encode_unique

        def counting(table, tokens):
            if table is batched.table:
                encoded.append(tokens)
            return original(table, tokens)

        monkeypatch.setattr(TokenTable, "encode_unique", counting)
        measurements = batched.measure_many(batch)
        monkeypatch.setattr(TokenTable, "encode_unique", original)

        # One encode per payload: the four copies share theirs, the
        # equal set and the ham-labelled copy bring one each.
        assert len(encoded) == 7
        # One group per distinct (label, token set): the equal set joins
        # the copies by its row; the ham label is its own group.
        groups, _ = group_token_ids(batch, batched.table)
        assert len(groups) == len({(m.is_spam, m.tokens()) for m in batch}) == 6
        verdicts = [looped._verdict(looped.measure(message)) for message in batch]
        assert measurements == [verdict.measurement for verdict in verdicts]
        assert verdicts[2].rejected

        # The per-message loop grew its table to the same layout.
        assert len(batched.table) == len(looped.table)
        everything = range(len(looped.table))
        assert batched.table.decode(everything) == looped.table.decode(everything)
