"""Tests for integration seams between components.

Covers combinations the per-module tests don't: alternative classifier
inside the SpamFilter facade, RONI warm-up in a weekly stream,
defended filters over Graham scoring, and chart rendering edge cases.
"""

from __future__ import annotations

import pytest

from repro.analysis.plots import ascii_bar_chart, ascii_line_chart, ascii_scatter
from repro.rng import SeedSpawner
from repro.spambayes.filter import Label, SpamFilter
from repro.spambayes.graham import GrahamClassifier
from repro.spambayes.message import Email
from repro.spambayes.persistence import classifier_from_dict, classifier_to_dict
from repro.stream import StreamRunner, StreamSpec


class TestGrahamInsideFilterFacade:
    @pytest.fixture()
    def graham_filter(self) -> SpamFilter:
        spam_filter = SpamFilter(classifier=GrahamClassifier())
        for i in range(15):
            spam_filter.train(
                Email.build(body="cheap pills lottery winner", msgid=f"s{i}"), True
            )
            spam_filter.train(
                Email.build(body="meeting agenda budget notes", msgid=f"h{i}"), False
            )
        return spam_filter

    def test_classification_works(self, graham_filter):
        assert graham_filter.classify(Email.build(body="cheap lottery")).label is Label.SPAM
        assert graham_filter.classify(Email.build(body="meeting notes")).label is Label.HAM

    def test_graham_options_flow_through(self, graham_filter):
        assert graham_filter.options.max_discriminators == 15
        assert graham_filter.options.unknown_word_prob == 0.4

    def test_set_thresholds_on_graham(self, graham_filter):
        graham_filter.set_thresholds(0.3, 0.7)
        assert graham_filter.ham_cutoff == 0.3
        # Thresholds moved without disturbing Graham scoring behaviour.
        assert graham_filter.classifier.spam_prob("never-seen") == 0.4

    def test_copy_keeps_subclass(self, graham_filter):
        clone = graham_filter.copy()
        assert isinstance(clone.classifier, GrahamClassifier)

    def test_graham_state_persists_via_dict(self, graham_filter):
        data = classifier_to_dict(graham_filter.classifier)
        # Base-class restore yields the same counts; scoring semantics
        # then depend on the class the caller rebuilds into.
        restored = classifier_from_dict(data)
        assert restored.nspam == graham_filter.classifier.nspam
        assert restored.word_info("cheap") == graham_filter.classifier.word_info("cheap")


@pytest.mark.slow
class TestRetrainingWarmup:
    def test_roni_without_history_trains_everything(self):
        """With the attack arriving before RONI has enough accepted
        history to calibrate (week 1), the gate must fail open and the
        attack trains — a documented limitation, not a crash."""
        spec = StreamSpec(
            ticks=2,
            ham_per_tick=20,
            spam_per_tick=20,
            attack_start_tick=1,
            attack_per_tick=5,
            defense="roni",
            test_size=60,
            seed=23,
        )
        result = StreamRunner(spec).run()
        week1 = result.outcome(1)
        assert week1.attack_trained == week1.attack_sent
        assert week1.attack_rejected == 0

    def test_roni_calibrates_from_week_two(self):
        spec = StreamSpec(
            ticks=3,
            ham_per_tick=60,
            spam_per_tick=60,
            attack_start_tick=2,
            attack_per_tick=5,
            defense="roni",
            test_size=60,
            seed=24,
        )
        result = StreamRunner(spec).run()
        assert result.outcome(2).attack_rejected == 5


class TestChartEdgeCases:
    def test_line_chart_single_point(self):
        chart = ascii_line_chart({"one": [(5.0, 0.5)]})
        assert "o=one" in chart

    def test_line_chart_flat_autorange(self):
        chart = ascii_line_chart({"flat": [(0, 3.0), (1, 3.0)]}, y_range=None)
        assert "flat" in chart

    def test_bar_chart_unknown_segment_uses_initial(self):
        chart = ascii_bar_chart({"g": {"custom": 1.0}})
        assert "c" in chart

    def test_scatter_extreme_points(self):
        chart = ascii_scatter([(0.0, 0.0, True), (1.0, 1.0, False)])
        assert "x" in chart
        assert "o" in chart

    def test_line_chart_many_series_cycles_markers(self):
        series = {f"s{i}": [(0, 0.1 * i), (1, 0.1 * i)] for i in range(10)}
        chart = ascii_line_chart(series)
        assert "legend" in chart
