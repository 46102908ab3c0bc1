"""Tests for the Robinson/Fisher classifier (Equations 1-4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions


def train_basic(classifier: Classifier) -> None:
    """10 spam with 'cash', 10 ham with 'meeting', both with 'shared'."""
    for _ in range(10):
        classifier.learn({"cash", "shared"}, is_spam=True)
        classifier.learn({"meeting", "shared"}, is_spam=False)


def unsmoothed() -> Classifier:
    """A classifier with s = 0, so f(w) of Equation 2 is PS(w) of
    Equation 1."""
    return Classifier(ClassifierOptions(unknown_word_strength=0.0))


class TestEquations:
    def test_raw_score_equation_1(self):
        # NS=3, NH=2; token in 2 spam, 1 ham:
        # PS = NH*NS(w) / (NH*NS(w) + NS*NH(w)) = 2*2 / (2*2 + 3*1) = 4/7
        c = unsmoothed()
        c.learn({"w"}, True)
        c.learn({"w"}, True)
        c.learn({"x"}, True)
        c.learn({"w"}, False)
        c.learn({"y"}, False)
        assert c.spam_prob("w") == pytest.approx(4 / 7)

    def test_smoothed_score_equation_2(self, empty_classifier):
        # One spam message containing w: PS(w)=1, N(w)=1, s=0.45, x=0.5
        # f(w) = (0.45*0.5 + 1*1.0) / (0.45 + 1) = 1.225/1.45
        c = empty_classifier
        c.learn({"w"}, True)
        c.learn({"other"}, False)
        assert c.spam_prob("w") == pytest.approx((0.45 * 0.5 + 1.0) / 1.45)

    def test_unknown_token_scores_prior(self, empty_classifier):
        train_basic(empty_classifier)
        assert empty_classifier.spam_prob("never-seen") == 0.5

    def test_balanced_token_scores_near_half(self, empty_classifier):
        train_basic(empty_classifier)
        assert empty_classifier.spam_prob("shared") == pytest.approx(0.5, abs=0.01)

    def test_class_size_normalization(self):
        # Token in 1 of 1 spam and 2 of 10 ham: spam ratio 1.0 vs ham
        # ratio 0.2 -> PS = 1/(1+0.2) ~ 0.833 despite more ham copies.
        c = unsmoothed()
        c.learn({"w"}, True)
        for i in range(10):
            c.learn({"w"} if i < 2 else {"z"}, False)
        assert c.spam_prob("w") == pytest.approx(1.0 / 1.2)

    def test_empty_message_scores_half(self, empty_classifier):
        train_basic(empty_classifier)
        assert empty_classifier.score([]) == 0.5

    def test_spammy_message_scores_high(self, empty_classifier):
        train_basic(empty_classifier)
        assert empty_classifier.score({"cash"}) > 0.9

    def test_hammy_message_scores_low(self, empty_classifier):
        train_basic(empty_classifier)
        assert empty_classifier.score({"meeting"}) < 0.1

    def test_score_bounds(self, empty_classifier):
        train_basic(empty_classifier)
        for tokens in ({"cash"}, {"meeting"}, {"cash", "meeting"}, {"nothing"}):
            assert 0.0 <= empty_classifier.score(tokens) <= 1.0


class TestDeltaSelection:
    def test_weak_tokens_excluded(self, empty_classifier):
        train_basic(empty_classifier)
        significant = empty_classifier.significant_tokens({"shared", "cash"})
        tokens = [ts.token for ts in significant]
        assert "cash" in tokens
        assert "shared" not in tokens  # |0.5 - 0.5| < 0.1

    def test_cap_at_max_discriminators(self):
        options = ClassifierOptions(max_discriminators=5)
        c = Classifier(options)
        spam_tokens = {f"s{i}" for i in range(20)}
        for _ in range(5):
            c.learn(spam_tokens, True)
            c.learn({"h"}, False)
        significant = c.significant_tokens(spam_tokens)
        assert len(significant) == 5

    def test_strongest_kept_deterministic_ties(self, empty_classifier):
        options = ClassifierOptions(max_discriminators=2)
        c = Classifier(options)
        for _ in range(5):
            c.learn({"aaa", "bbb", "ccc"}, True)
            c.learn({"hhh"}, False)
        picked = [ts.token for ts in c.significant_tokens({"aaa", "bbb", "ccc"})]
        # Equal strength: ties broken alphabetically.
        assert picked == ["aaa", "bbb"]

    def test_duplicates_collapse(self, empty_classifier):
        train_basic(empty_classifier)
        once = empty_classifier.score(["cash"])
        many = empty_classifier.score(["cash"] * 50)
        assert once == many


class TestLearnUnlearn:
    def test_learn_increments_counts(self, empty_classifier):
        empty_classifier.learn({"a", "b"}, True)
        assert empty_classifier.nspam == 1
        assert empty_classifier.word_info("a").spamcount == 1

    def test_unlearn_restores_exact_state(self, empty_classifier):
        c = empty_classifier
        train_basic(c)
        before_vocab = {t: (c.word_info(t).spamcount, c.word_info(t).hamcount)
                        for t in c.iter_vocabulary()}
        before = (c.nspam, c.nham, before_vocab)
        c.learn({"cash", "new-token"}, True)
        c.unlearn_repeated({"cash", "new-token"}, True, 1)
        after_vocab = {t: (c.word_info(t).spamcount, c.word_info(t).hamcount)
                       for t in c.iter_vocabulary()}
        assert (c.nspam, c.nham, after_vocab) == before

    def test_unlearn_unknown_message_rejected(self, empty_classifier):
        empty_classifier.learn({"a"}, True)
        with pytest.raises(TrainingError):
            empty_classifier.unlearn_repeated({"b"}, True, 1)

    def test_unlearn_wrong_label_rejected(self, empty_classifier):
        empty_classifier.learn({"a"}, True)
        with pytest.raises(TrainingError):
            empty_classifier.unlearn_repeated({"a"}, False, 1)

    def test_failed_unlearn_leaves_state_untouched(self, empty_classifier):
        c = empty_classifier
        c.learn({"a", "b"}, True)
        with pytest.raises(TrainingError):
            c.unlearn_repeated({"a", "zzz"}, True, 1)
        assert c.nspam == 1
        assert c.word_info("a").spamcount == 1

    def test_unlearn_with_no_messages_rejected(self, empty_classifier):
        with pytest.raises(TrainingError):
            empty_classifier.unlearn_repeated({"a"}, True, 1)

    def test_pruning_empty_records(self, empty_classifier):
        c = empty_classifier
        c.learn({"a"}, True)
        c.unlearn_repeated({"a"}, True, 1)
        assert c.word_info("a") is None
        assert c.vocabulary_size == 0


class TestLearnRepeated:
    def test_equivalent_to_loop(self):
        a, b = Classifier(), Classifier()
        tokens = {"x", "y", "z"}
        for _ in range(7):
            a.learn(tokens, True)
        b.learn_repeated(tokens, True, 7)
        assert a.nspam == b.nspam
        for token in tokens:
            assert a.word_info(token).spamcount == b.word_info(token).spamcount

    def test_zero_count_is_noop(self, empty_classifier):
        empty_classifier.learn_repeated({"x"}, True, 0)
        assert empty_classifier.nspam == 0
        assert empty_classifier.vocabulary_size == 0

    def test_negative_count_rejected(self, empty_classifier):
        with pytest.raises(TrainingError):
            empty_classifier.learn_repeated({"x"}, True, -1)

    def test_unlearn_repeated_roundtrip(self, empty_classifier):
        c = empty_classifier
        train_basic(c)
        c.learn_repeated({"cash", "w"}, True, 5)
        c.unlearn_repeated({"cash", "w"}, True, 5)
        assert c.nspam == 10
        assert c.word_info("w") is None
        assert c.word_info("cash").spamcount == 10

    def test_unlearn_repeated_overdraw_rejected(self, empty_classifier):
        empty_classifier.learn_repeated({"x"}, True, 3)
        with pytest.raises(TrainingError):
            empty_classifier.unlearn_repeated({"x"}, True, 4)


class TestCopy:
    def test_copy_is_independent(self, empty_classifier):
        train_basic(empty_classifier)
        clone = empty_classifier.copy()
        clone.learn({"cash"}, True)
        assert clone.nspam == empty_classifier.nspam + 1
        assert (
            clone.word_info("cash").spamcount
            == empty_classifier.word_info("cash").spamcount + 1
        )

    def test_copy_scores_match(self, empty_classifier):
        train_basic(empty_classifier)
        clone = empty_classifier.copy()
        assert clone.score({"cash", "meeting"}) == empty_classifier.score(
            {"cash", "meeting"}
        )


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

tokens_strategy = st.sets(st.sampled_from([f"t{i}" for i in range(30)]), min_size=1, max_size=10)


@given(
    messages=st.lists(
        st.tuples(tokens_strategy, st.booleans()), min_size=1, max_size=30
    ),
    query=tokens_strategy,
)
@settings(max_examples=50, deadline=None)
def test_score_always_in_unit_interval(messages, query):
    classifier = Classifier()
    for tokens, is_spam in messages:
        classifier.learn(tokens, is_spam)
    assert 0.0 <= classifier.score(query) <= 1.0


@given(
    base=st.lists(st.tuples(tokens_strategy, st.booleans()), min_size=1, max_size=20),
    extra=st.lists(st.tuples(tokens_strategy, st.booleans()), min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_learn_unlearn_roundtrip_property(base, extra):
    """Learning then unlearning any batch restores exact counts."""
    classifier = Classifier()
    for tokens, is_spam in base:
        classifier.learn(tokens, is_spam)
    snapshot = {
        token: (classifier.word_info(token).spamcount, classifier.word_info(token).hamcount)
        for token in classifier.iter_vocabulary()
    }
    counts = (classifier.nspam, classifier.nham)
    for tokens, is_spam in extra:
        classifier.learn(tokens, is_spam)
    for tokens, is_spam in reversed(extra):
        classifier.unlearn_repeated(tokens, is_spam, 1)
    assert (classifier.nspam, classifier.nham) == counts
    restored = {
        token: (classifier.word_info(token).spamcount, classifier.word_info(token).hamcount)
        for token in classifier.iter_vocabulary()
    }
    assert restored == snapshot


@given(
    spam_trainings=st.integers(min_value=1, max_value=20),
    query_extra=st.sets(st.sampled_from(["s0", "s1", "s2", "s3"]), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_adding_spammy_tokens_never_lowers_score(spam_trainings, query_extra):
    """Monotonicity (Section 3.4): a superset of spam-scored tokens
    scores at least as high."""
    classifier = Classifier()
    spam_tokens = {"s0", "s1", "s2", "s3"}
    for _ in range(spam_trainings):
        classifier.learn(spam_tokens, True)
        classifier.learn({"h0", "h1"}, False)
    base_query = {"h0"}
    base = classifier.score(base_query)
    extended = classifier.score(base_query | query_extra)
    assert extended >= base - 1e-9
