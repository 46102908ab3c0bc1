"""Tests for the SpamFilter facade and threshold logic."""

from __future__ import annotations

import pytest

from repro.spambayes.filter import Label, SpamFilter
from repro.spambayes.message import Email
from repro.spambayes.options import ClassifierOptions


def train_toy(spam_filter: SpamFilter, repetitions: int = 15) -> None:
    for i in range(repetitions):
        spam_filter.train(
            Email.build(body="cheap pills winner lottery cash", msgid=f"s{i}"), True
        )
        spam_filter.train(
            Email.build(body="project meeting budget review notes", msgid=f"h{i}"), False
        )


class TestThresholds:
    def test_label_boundaries_inclusive(self):
        spam_filter = SpamFilter()
        assert spam_filter.label_for_score(0.15) is Label.HAM
        assert spam_filter.label_for_score(0.150001) is Label.UNSURE
        assert spam_filter.label_for_score(0.9) is Label.UNSURE
        assert spam_filter.label_for_score(0.900001) is Label.SPAM
        assert spam_filter.label_for_score(0.0) is Label.HAM
        assert spam_filter.label_for_score(1.0) is Label.SPAM

    def test_paper_defaults(self):
        spam_filter = SpamFilter()
        assert spam_filter.ham_cutoff == 0.15
        assert spam_filter.spam_cutoff == 0.90

    def test_custom_options(self):
        options = ClassifierOptions(ham_cutoff=0.2, spam_cutoff=0.8)
        spam_filter = SpamFilter(options=options)
        assert spam_filter.label_for_score(0.85) is Label.SPAM


class TestClassification:
    def test_three_way_labels(self):
        spam_filter = SpamFilter()
        train_toy(spam_filter)
        assert spam_filter.classify(Email.build(body="cheap pills lottery")).label is Label.SPAM
        assert spam_filter.classify(Email.build(body="project meeting notes")).label is Label.HAM
        assert spam_filter.classify(Email.build(body="unrelated gibberish words")).label is Label.UNSURE

    def test_evidence_returned_on_request(self):
        spam_filter = SpamFilter()
        train_toy(spam_filter)
        result = spam_filter.classify(Email.build(body="cheap pills"), with_evidence=True)
        assert result.evidence
        assert all(0.0 <= ts.spam_prob <= 1.0 for ts in result.evidence)
        tokens = {ts.token for ts in result.evidence}
        assert "cheap" in tokens

    def test_no_evidence_by_default(self):
        spam_filter = SpamFilter()
        train_toy(spam_filter)
        assert spam_filter.classify(Email.build(body="cheap")).evidence == ()


    def test_label_is_the_thresholded_score(self):
        spam_filter = SpamFilter()
        train_toy(spam_filter)
        for body in ("cheap pills", "meeting notes", "cheap meeting", ""):
            result = spam_filter.classify(Email.build(body=body))
            assert result.score == spam_filter.score(Email.build(body=body))
            assert result.label is spam_filter.label_for_score(result.score)

    def test_cutoffs_move_labels_not_scores(self):
        """θ0/θ1 change only the decision; the learner scores the same."""
        default = SpamFilter()
        narrow = SpamFilter(options=ClassifierOptions().with_cutoffs(0.05, 0.06))
        train_toy(default)
        train_toy(narrow)
        probe = Email.build(body="cheap meeting budget")
        assert narrow.score(probe) == default.score(probe)
        assert narrow.ham_cutoff == 0.05 and narrow.spam_cutoff == 0.06
        assert narrow.options is narrow.classifier.options

    def test_classified_message_is_immutable(self):
        result = SpamFilter().classify(Email.build(body="anything"))
        with pytest.raises(AttributeError):
            result.score = 0.0


class TestTrainUntrain:
    def test_train_counts_each_message_once(self):
        spam_filter = SpamFilter()
        for i in range(5):
            spam_filter.train(Email.build(body=f"word{i} filler text", msgid=str(i)), True)
        spam_filter.train(Email.build(body="filler", msgid="h"), False)
        assert (spam_filter.classifier.nspam, spam_filter.classifier.nham) == (5, 1)
        assert spam_filter.classifier.word_info("filler").spamcount == 5

    def test_copy_independent(self):
        spam_filter = SpamFilter()
        train_toy(spam_filter)
        clone = spam_filter.copy()
        clone.train(Email.build(body="extra spam words", msgid="e"), True)
        assert clone.classifier.nspam == spam_filter.classifier.nspam + 1
