"""Tests for the ham-labeled (Causative Integrity) attack extension."""

from __future__ import annotations

import pytest

from repro.attacks.hamlabeled import HAMLABELED_TAXONOMY, HamLabeledAttack
from repro.attacks.taxonomy import Influence, SecurityViolation
from repro.errors import AttackError
from repro.corpus.dataset import train_grouped
from repro.engine.sweep import evaluate_dataset
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier


class TestBasics:
    def test_taxonomy_causative_integrity(self):
        assert HAMLABELED_TAXONOMY.influence is Influence.CAUSATIVE
        assert HAMLABELED_TAXONOMY.violation is SecurityViolation.INTEGRITY

    def test_empty_words_rejected(self):
        with pytest.raises(AttackError):
            HamLabeledAttack([])

    def test_negative_count_rejected(self):
        with pytest.raises(AttackError):
            HamLabeledAttack(["a"]).generate(-1, SeedSpawner(1).rng("x"))

    def test_batch_trains_as_ham(self):
        classifier = Classifier()
        classifier.learn({"seed"}, True)
        attack = HamLabeledAttack(["w1", "w2"])
        batch = attack.generate(5, SeedSpawner(1).rng("x"))
        batch.train_into(classifier)
        assert classifier.nham == 5
        assert classifier.nspam == 1
        assert classifier.word_info("w1").hamcount == 5
        batch.untrain_from(classifier)
        assert classifier.nham == 0
        assert classifier.word_info("w1") is None

    def test_from_vocabulary_targets_spam_words(self, tiny_vocabulary):
        attack = HamLabeledAttack.from_vocabulary(tiny_vocabulary)
        assert set(tiny_vocabulary.spam_shared) <= attack.tokens
        assert set(tiny_vocabulary.spam_unlisted) <= attack.tokens
        assert not (set(tiny_vocabulary.ham_topic) & attack.tokens)


class TestIntegrityDamage:
    def test_whitewashing_creates_false_negatives(self, small_corpus):
        """The paper's Section 2.2 conjecture, demonstrated: ham-labeled
        contamination lets spam through."""
        rng = SeedSpawner(61).rng("inbox")
        inbox = small_corpus.dataset.sample_inbox(600, 0.5, rng)
        inbox_ids = {m.msgid for m in inbox}
        test = [m for m in small_corpus.dataset if m.msgid not in inbox_ids][:200]

        classifier = Classifier()
        train_grouped(classifier, inbox)
        clean = evaluate_dataset(classifier, test)

        attack = HamLabeledAttack.from_vocabulary(small_corpus.vocabulary)
        batch = attack.generate(60, SeedSpawner(62).rng("a"))  # ~10% control
        batch.train_into(classifier)
        poisoned = evaluate_dataset(classifier, test)

        # Spam detection degrades (false negatives / unsure rise) while
        # ham is *not* pushed toward spam (this is an Integrity attack).
        assert poisoned.spam_as_spam_rate < clean.spam_as_spam_rate
        assert poisoned.ham_as_spam_rate <= clean.ham_as_spam_rate + 0.02
