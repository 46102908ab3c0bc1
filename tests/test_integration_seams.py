"""Tests for integration seams between components.

Covers combinations the per-module tests don't: RONI warm-up in a
weekly stream and chart rendering edge cases.
"""

from __future__ import annotations

import pytest

from repro.analysis.plots import ascii_bar_chart, ascii_line_chart, ascii_scatter
from repro.stream import StreamRunner, StreamSpec


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
