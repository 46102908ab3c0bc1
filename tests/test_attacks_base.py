"""Tests for AttackMessageGroup, AttackBatch and the attack contract."""

from __future__ import annotations

import pytest

from repro.attacks.base import AttackBatch, AttackMessageGroup
from repro.errors import AttackError
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email


class TestAttackMessageGroup:
    def test_invalid_count_rejected(self):
        with pytest.raises(AttackError):
            AttackMessageGroup(tokens=frozenset({"a"}), count=0)

    def test_training_tokens_merge_headers(self):
        group = AttackMessageGroup(
            tokens=frozenset({"a"}),
            count=1,
            header_tokens=frozenset({"subject:x"}),
        )
        assert group.training_tokens == {"a", "subject:x"}

    def test_training_tokens_without_headers_is_same_object(self):
        tokens = frozenset({"a", "b"})
        group = AttackMessageGroup(tokens=tokens, count=2)
        assert group.training_tokens is tokens


class TestAttackBatch:
    def _batch(self) -> AttackBatch:
        return AttackBatch(
            "test",
            [
                AttackMessageGroup(tokens=frozenset({"a", "b"}), count=3),
                AttackMessageGroup(
                    tokens=frozenset({"a", "c"}),
                    count=2,
                    header_tokens=frozenset({"subject:x"}),
                ),
            ],
        )

    def test_message_count(self):
        assert self._batch().message_count == 5
        assert len(self._batch()) == 5

    def test_distinct_tokens_union_of_payloads(self):
        assert self._batch().distinct_tokens == {"a", "b", "c"}

    def test_train_untrain_roundtrip(self):
        classifier = Classifier()
        classifier.learn({"base"}, False)
        batch = self._batch()
        batch.train_into(classifier)
        assert classifier.nspam == 5
        assert classifier.word_info("a").spamcount == 5
        assert classifier.word_info("subject:x").spamcount == 2
        batch.untrain_from(classifier)
        assert classifier.nspam == 0
        assert classifier.word_info("a") is None


class TestZeroCountGeneration:
    """The ``generate(0, rng)`` contract: an empty batch, never a
    zero-count :class:`AttackMessageGroup` (which count>=1 forbids).

    A sweep whose fractions include 0.0 — the clean-baseline point
    every figure carries — computes an attack count of zero, so every
    attack class must survive it.
    """

    def _attacks(self):
        from repro.attacks.dictionary import DictionaryAttack
        from repro.attacks.focused import FocusedAttack

        target = Email(body="quarterly review agenda", msgid="target-1")
        header_source = Email(body="", headers=[("From", "spam@x.biz")])
        return [
            DictionaryAttack({"a", "b"}, name="dict"),
            FocusedAttack(target, guess_probability=0.5),
            FocusedAttack(target, guess_probability=0.5, header_pool=[header_source]),
        ]

    def test_generate_zero_yields_empty_batch(self):
        rng = SeedSpawner(5).rng("zero-count")
        for attack in self._attacks():
            batch = attack.generate(0, rng)
            assert batch.message_count == 0
            assert batch.groups == []
            # Training an empty batch is a no-op, both payload paths.
            classifier = Classifier()
            classifier.learn({"base"}, False)
            batch.train_into(classifier)
            batch.train_into_ids(classifier)
            assert classifier.nspam == 0

    def test_negative_count_rejected(self):
        rng = SeedSpawner(5).rng("negative-count")
        for attack in self._attacks():
            with pytest.raises(AttackError):
                attack.generate(-1, rng)

    def test_advance_to_zero_is_noop_even_on_empty_batch(self):
        from repro.engine.sweep import IncrementalAttackTrainer
        from repro.attacks.dictionary import DictionaryAttack

        rng = SeedSpawner(5).rng("advance-zero")
        classifier = Classifier()
        classifier.learn({"base"}, False)
        empty = DictionaryAttack({"a", "b"}, name="dict").generate(0, rng)
        trainer = IncrementalAttackTrainer(classifier, empty)
        trainer.advance_to(0)  # must not raise "batch exhausted"
        assert trainer.trained == 0
        assert classifier.nspam == 0
        with pytest.raises(Exception):
            trainer.advance_to(1)  # exhaustion still detected past zero

    def test_zero_fraction_sweep_point_equals_unattacked_evaluation(self):
        import random

        from repro.corpus.trec import TrecStyleCorpus
        from repro.corpus.vocabulary import TINY_PROFILE
        from repro.engine.sweep import SweepSpec, run_attack_sweeps
        from repro.attacks.variants import build_attack_variants

        corpus = TrecStyleCorpus.generate(
            n_ham=120, n_spam=120, profile=TINY_PROFILE, seed=42
        )
        inbox = corpus.dataset.sample_inbox(100, 0.5, random.Random(1))
        attack = build_attack_variants(corpus, ("usenet",), seed=1)["usenet"]

        def sweep(fractions):
            return run_attack_sweeps(
                inbox,
                [(SweepSpec("u", attack, fractions), random.Random(2))],
                folds=2,
            )[0]

        attacked = sweep((0.0, 0.1))
        baseline_only = sweep((0.0,))
        assert attacked.points[0].attack_message_count == 0
        # The 0.0 point is the unattacked evaluation, bit for bit —
        # identical to a sweep that never generates a non-empty batch.
        assert (
            attacked.points[0].confusion.as_dict()
            == baseline_only.points[0].confusion.as_dict()
        )
        # And the attacked point actually differs (the sweep did work).
        assert (
            attacked.points[1].confusion.as_dict()
            != attacked.points[0].confusion.as_dict()
        )
