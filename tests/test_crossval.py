"""Tests for the cross-validated attack sweep machinery.

The key correctness property: the *incremental* contamination path
must produce bit-identical classifier state to training from scratch
at each fraction.
"""

from __future__ import annotations

import pytest

from repro.attacks.dictionary import DictionaryAttack
from repro.attacks.base import AttackBatch, AttackMessageGroup
from repro.corpus.dataset import Dataset, LabeledMessage, train_grouped
from repro.errors import ExperimentError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.engine.sweep import (
    IncrementalAttackTrainer,
    SweepSpec,
    attack_message_count,
    evaluate_dataset,
    run_attack_sweeps,
)
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email


def toy_dataset(n: int = 40) -> Dataset:
    messages = []
    for i in range(n // 2):
        messages.append(
            LabeledMessage(Email.build(body=f"meeting notes item{i}", msgid=f"h{i}"), False)
        )
        messages.append(
            LabeledMessage(Email.build(body=f"cheap offer deal{i}", msgid=f"s{i}"), True)
        )
    return Dataset(messages)


class TestAttackMessageCount:
    def test_paper_accounting(self):
        """1% of a 10,000-message training set = 101 attack messages."""
        assert attack_message_count(10_000, 0.01) == 101

    def test_zero_fraction(self):
        assert attack_message_count(1000, 0.0) == 0

    def test_ten_percent(self):
        assert attack_message_count(10_000, 0.10) == 1111

    def test_invalid_fraction(self):
        with pytest.raises(ExperimentError):
            attack_message_count(100, 1.0)
        with pytest.raises(ExperimentError):
            attack_message_count(100, -0.5)


class TestTrainGrouped:
    def test_equivalent_to_individual_learning(self):
        dataset = toy_dataset()
        grouped, individual = Classifier(), Classifier()
        train_grouped(grouped, dataset)
        for message in dataset:
            individual.learn(message.tokens(), message.is_spam)
        assert grouped.nspam == individual.nspam
        assert grouped.nham == individual.nham
        assert grouped.vocabulary_size == individual.vocabulary_size
        for token in individual.iter_vocabulary():
            assert grouped.word_info(token) == individual.word_info(token)

    def test_collapses_identical_messages(self):
        group = AttackMessageGroup(frozenset({"same", "tokens"}), 10)
        messages = attack_messages_as_dataset(AttackBatch("same", [group]))
        classifier = Classifier()
        train_grouped(classifier, Dataset(messages))
        assert classifier.nspam == 10
        assert classifier.word_info("same").spamcount == 10


class TestEvaluateDataset:
    def test_counts_sum_to_dataset(self):
        dataset = toy_dataset()
        classifier = Classifier()
        train_grouped(classifier, dataset)
        counts = evaluate_dataset(classifier, dataset)
        assert counts.total == len(dataset)

    def test_ham_only(self):
        dataset = toy_dataset()
        classifier = Classifier()
        train_grouped(classifier, dataset)
        counts = evaluate_dataset(classifier, dataset, ham_only=True)
        assert counts.spam_total == 0
        assert counts.ham_total == len(dataset.ham)

    def test_cutoff_override(self):
        dataset = toy_dataset()
        classifier = Classifier()
        train_grouped(classifier, dataset)
        strict = evaluate_dataset(classifier, dataset, cutoffs=(0.0, 1.0))
        # With θ0=0, only messages scoring exactly 0 can be ham.
        assert strict.ham_as_ham <= evaluate_dataset(classifier, dataset).ham_as_ham


class TestIncrementalTrainer:
    def test_matches_from_scratch_training(self):
        """Incremental contamination == retraining from scratch."""
        dataset = toy_dataset()
        attack = DictionaryAttack([f"atk{i}" for i in range(50)], name="t")
        rng = SeedSpawner(1).rng("x")
        batch = attack.generate(20, rng)

        incremental = Classifier()
        train_grouped(incremental, dataset)
        trainer = IncrementalAttackTrainer(incremental, batch)
        for target in (0, 5, 12, 20):
            trainer.advance_to(target)
            scratch = Classifier()
            train_grouped(scratch, dataset)
            scratch.learn_repeated(attack.tokens, True, target)
            assert incremental.nspam == scratch.nspam
            probe = {"atk0", "meeting", "cheap"}
            assert incremental.score(probe) == scratch.score(probe)

    def test_rejects_descending_targets(self):
        classifier = Classifier()
        batch = DictionaryAttack(["a"]).generate(5, SeedSpawner(1).rng("x"))
        trainer = IncrementalAttackTrainer(classifier, batch)
        trainer.advance_to(3)
        with pytest.raises(ExperimentError):
            trainer.advance_to(2)

    def test_rejects_overdraw(self):
        classifier = Classifier()
        batch = DictionaryAttack(["a"]).generate(5, SeedSpawner(1).rng("x"))
        trainer = IncrementalAttackTrainer(classifier, batch)
        with pytest.raises(ExperimentError):
            trainer.advance_to(6)


def sweep_points(dataset, attack, fractions, folds, rng):
    """One attack's K-fold contamination sweep, a point per fraction."""
    spec = SweepSpec(key="attack", attack=attack, fractions=fractions)
    (result,) = run_attack_sweeps(dataset, [(spec, rng)], folds)
    return result.points


class TestSweep:
    def test_sweep_shapes(self):
        dataset = toy_dataset(60)
        attack = DictionaryAttack({f"meeting", "notes"} | {f"w{i}" for i in range(20)})
        points = sweep_points(
            dataset, attack, (0.0, 0.05, 0.10), folds=3, rng=SeedSpawner(2).rng("s")
        )
        assert [p.attack_fraction for p in points] == [0.0, 0.05, 0.10]
        assert points[0].attack_message_count == 0
        # Every fold contributes every test message once.
        assert points[0].confusion.total == len(dataset)

    def test_contamination_hurts_ham(self):
        dataset = toy_dataset(60)
        # Attack includes the ham vocabulary -> ham rates must rise.
        attack = DictionaryAttack(
            {"meeting", "notes"} | {f"item{i}" for i in range(30)}
        )
        points = sweep_points(
            dataset, attack, (0.0, 0.2), folds=3, rng=SeedSpawner(3).rng("s")
        )
        assert (
            points[1].confusion.ham_misclassified_rate
            > points[0].confusion.ham_misclassified_rate
        )

    def test_unsorted_fractions_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(key="t", attack=DictionaryAttack(["a"]), fractions=(0.1, 0.05))

    def test_empty_fractions_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(key="t", attack=DictionaryAttack(["a"]), fractions=())
