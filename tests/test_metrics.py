"""Tests for the three-way confusion matrix."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metrics import ConfusionCounts
from repro.spambayes.filter import Label


class TestRecording:
    def test_record_each_cell(self):
        counts = ConfusionCounts()
        counts.record(False, Label.HAM)
        counts.record(False, Label.UNSURE)
        counts.record(False, Label.SPAM)
        counts.record(True, Label.HAM)
        counts.record(True, Label.UNSURE)
        counts.record(True, Label.SPAM)
        assert counts.as_dict() == {
            "ham_as_ham": 1,
            "ham_as_unsure": 1,
            "ham_as_spam": 1,
            "spam_as_ham": 1,
            "spam_as_unsure": 1,
            "spam_as_spam": 1,
        }

    def test_merge(self):
        a = ConfusionCounts(ham_as_ham=2, spam_as_spam=3)
        b = ConfusionCounts(ham_as_ham=1, ham_as_spam=4)
        a.merge(b)
        assert a.ham_as_ham == 3
        assert a.ham_as_spam == 4
        assert a.spam_as_spam == 3

    def test_pooled(self):
        parts = [ConfusionCounts(ham_as_ham=1), ConfusionCounts(ham_as_unsure=2)]
        pooled = ConfusionCounts.pooled(parts)
        assert pooled.ham_total == 3

    def test_dict_roundtrip(self):
        counts = ConfusionCounts(ham_as_spam=5, spam_as_unsure=7)
        assert ConfusionCounts.from_dict(counts.as_dict()) == counts


class TestRates:
    def test_paper_rates(self):
        counts = ConfusionCounts(
            ham_as_ham=60, ham_as_unsure=30, ham_as_spam=10,
            spam_as_ham=5, spam_as_unsure=15, spam_as_spam=80,
        )
        assert counts.ham_as_spam_rate == pytest.approx(0.10)
        assert counts.ham_misclassified_rate == pytest.approx(0.40)
        assert counts.spam_as_spam_rate == pytest.approx(0.80)
        assert counts.spam_as_unsure_rate == pytest.approx(0.15)
        assert counts.errors == 200 - 60 - 80

    def test_empty_rates_are_zero(self):
        counts = ConfusionCounts()
        assert counts.ham_as_spam_rate == 0.0
        assert counts.ham_misclassified_rate == 0.0
        assert counts.spam_as_spam_rate == 0.0


@given(
    cells=st.lists(
        st.tuples(st.booleans(), st.sampled_from(list(Label))), max_size=200
    )
)
@settings(max_examples=50)
def test_conservation_and_bounds(cells):
    counts = ConfusionCounts()
    for is_spam, label in cells:
        counts.record(is_spam, label)
    assert counts.total == len(cells)
    assert counts.ham_total + counts.spam_total == counts.total
    for rate in (
        counts.ham_as_spam_rate,
        counts.ham_misclassified_rate,
        counts.spam_as_spam_rate,
        counts.spam_as_unsure_rate,
    ):
        assert 0.0 <= rate <= 1.0
    assert counts.ham_as_spam_rate <= counts.ham_misclassified_rate
