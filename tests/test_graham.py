"""Tests for the Graham-combining classifier."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spambayes.graham import GRAHAM_OPTIONS, GrahamClassifier


def train_basic(classifier) -> None:
    for _ in range(10):
        classifier.learn({"cash", "shared"}, True)
        classifier.learn({"meeting", "shared"}, False)


class TestTokenProbability:
    def test_unknown_token_is_point_four(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        assert classifier.spam_prob("never-seen") == 0.4

    def test_clamping(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        assert classifier.spam_prob("cash") == 0.99
        assert classifier.spam_prob("meeting") == 0.01

    def test_ham_counts_double(self):
        classifier = GrahamClassifier()
        # Token in 1 of 2 spam and 1 of 2 ham: b=0.5, g=2*0.5=1.0 ->
        # p = 0.5/1.5 = 1/3.
        classifier.learn({"w"}, True)
        classifier.learn({"x"}, True)
        classifier.learn({"w"}, False)
        classifier.learn({"y"}, False)
        assert classifier.spam_prob("w") == pytest.approx(1 / 3)

    def test_empty_classifier_prior(self):
        assert GrahamClassifier().spam_prob("anything") == 0.4


class TestCombining:
    def test_fifteen_discriminators(self):
        assert GRAHAM_OPTIONS.max_discriminators == 15
        classifier = GrahamClassifier()
        spam_tokens = {f"s{i}" for i in range(40)}
        for _ in range(5):
            classifier.learn(spam_tokens, True)
            classifier.learn({"h"}, False)
        assert len(classifier.significant_tokens(spam_tokens)) == 15

    def test_scores_are_extreme(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        assert classifier.score({"cash"}) > 0.95
        assert classifier.score({"meeting"}) < 0.05

    def test_empty_message_is_half(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        assert classifier.score([]) == 0.5

    def test_long_clue_lists_do_not_underflow(self):
        classifier = GrahamClassifier(
            GRAHAM_OPTIONS.with_cutoffs(0.15, 0.9).__class__(
                unknown_word_prob=0.4,
                unknown_word_strength=0.0,
                minimum_prob_strength=0.0,
                max_discriminators=5_000,
            )
        )
        tokens = {f"s{i}" for i in range(2_000)}
        for _ in range(3):
            classifier.learn(tokens, True)
            classifier.learn({"h"}, False)
        assert classifier.score(tokens) == pytest.approx(1.0)

    @given(
        messages=st.lists(
            st.tuples(
                st.sets(st.sampled_from([f"t{i}" for i in range(20)]), min_size=1, max_size=6),
                st.booleans(),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_score_bounds_property(self, messages):
        classifier = GrahamClassifier()
        for tokens, is_spam in messages:
            classifier.learn(tokens, is_spam)
        assert 0.0 <= classifier.score({"t0", "t1", "t2"}) <= 1.0


class TestSharedMachinery:
    def test_learn_unlearn_roundtrip(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        before = classifier.score({"cash", "meeting"})
        classifier.learn({"cash", "new"}, True)
        classifier.unlearn({"cash", "new"}, True)
        assert classifier.score({"cash", "meeting"}) == before

    def test_copy_preserves_type(self):
        classifier = GrahamClassifier()
        train_basic(classifier)
        clone = classifier.copy()
        assert isinstance(clone, GrahamClassifier)
        assert clone.score({"cash"}) == classifier.score({"cash"})

    def test_dictionary_attack_poisons_graham_too(self, small_corpus):
        """The attack is combiner-independent: Graham scoring collapses
        under the same contamination."""
        from repro.attacks.dictionary import UsenetDictionaryAttack
        from repro.corpus.dataset import train_grouped
        from repro.engine.sweep import evaluate_dataset
        from repro.rng import SeedSpawner

        rng = SeedSpawner(77).rng("inbox")
        inbox = small_corpus.dataset.sample_inbox(600, 0.5, rng)
        inbox_ids = {m.msgid for m in inbox}
        test = [m for m in small_corpus.dataset if m.msgid not in inbox_ids][:150]
        classifier = GrahamClassifier()
        train_grouped(classifier, inbox)
        clean = evaluate_dataset(classifier, test)
        attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        attack.generate(30, SeedSpawner(78).rng("a")).train_into(classifier)
        poisoned = evaluate_dataset(classifier, test)
        assert clean.ham_as_spam_rate < 0.1
        assert poisoned.ham_as_spam_rate > clean.ham_as_spam_rate + 0.3
