"""Tests for the reporting/rendering layer."""

from __future__ import annotations

import pytest

from repro.engine.sweep import AttackSweepPoint
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.reporting import format_table, render_table1
from repro.experiments.results import CurvePoint
from repro.scenarios.dictionary_exp import (
    DictionaryExperimentConfig,
    DictionaryExperimentResult,
    render_dictionary_result,
)
from repro.scenarios.focused_exp import (
    FocusedExperimentConfig,
    FocusedKnowledgeResult,
    FocusedSizeResult,
    render_focused_knowledge_result,
    render_focused_size_result,
)
from repro.scenarios.roni_exp import RoniExperimentConfig, RoniExperimentResult, render_roni_result
from repro.scenarios.threshold_exp import (
    ThresholdExperimentConfig,
    ThresholdExperimentResult,
    render_threshold_result,
)


class TestFormatTable:
    def test_columns_padded(self):
        table = format_table(["a", "long header"], [["x", "1"], ["yy", "22"]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:3])

    def test_values_stringified(self):
        table = format_table(["n"], [[42], [3.5]])
        assert "42" in table
        assert "3.5" in table


class TestRenderTable1:
    def test_contains_all_experiments(self):
        table = render_table1()
        for name in ("Dictionary Attack", "Focused Attack", "RONI Defense", "Threshold Defense"):
            assert name in table

    def test_contains_paper_values(self):
        table = render_table1()
        assert "2,000, 10,000" in table
        assert "5 repetitions" in table


def _confusion(ham_as_spam=10, ham_as_unsure=20, ham_as_ham=70) -> ConfusionCounts:
    return ConfusionCounts(
        ham_as_ham=ham_as_ham,
        ham_as_unsure=ham_as_unsure,
        ham_as_spam=ham_as_spam,
        spam_as_spam=90,
        spam_as_unsure=10,
    )


class TestRenderDictionary:
    def test_table_and_chart(self):
        config = DictionaryExperimentConfig(
            inbox_size=100, folds=2, corpus_ham=100, corpus_spam=100,
            attack_fractions=(0.0, 0.01),
        )
        result = DictionaryExperimentResult(config=config)
        result.sweeps["usenet"] = [
            AttackSweepPoint(0.0, 0, _confusion(0, 0, 100)),
            AttackSweepPoint(0.01, 1, _confusion()),
        ]
        text = render_dictionary_result(result)
        assert "usenet" in text
        assert "1.0%" in text
        assert "Figure 1" in text
        assert "legend" in text


class TestRenderFocused:
    def test_knowledge_render(self):
        config = FocusedExperimentConfig(corpus_ham=700, corpus_spam=700)
        result = FocusedKnowledgeResult(config=config)
        result.label_counts = {
            0.1: {"ham": 8, "unsure": 2, "spam": 0},
            0.9: {"ham": 0, "unsure": 2, "spam": 8},
        }
        text = render_focused_knowledge_result(result)
        assert "p=0.1" in text
        assert "p=0.9" in text
        assert "Figure 2" in text

    def test_size_render(self):
        config = FocusedExperimentConfig(corpus_ham=700, corpus_spam=700)
        result = FocusedSizeResult(config=config)
        result.points = [CurvePoint(0.0, 0.0, 0.0), CurvePoint(0.1, 0.2, 0.8)]
        text = render_focused_size_result(result)
        assert "Figure 3" in text
        assert "10.0%" in text


class TestRenderRoni:
    def test_summary_lines(self):
        config = RoniExperimentConfig(corpus_ham=400, corpus_spam=400)
        result = RoniExperimentResult(config=config)
        result.attack_impacts = {"usenet": [10.0, 12.0], "aspell": [9.0, 11.0]}
        result.nonattack_spam_impacts = [0.5, 1.0, -0.2]
        text = render_roni_result(result)
        assert "SEPARABLE" in text
        assert "detection 100%" in text
        assert "attack:usenet" in text
        assert "non-attack spam" in text

    def test_not_separable_reported(self):
        config = RoniExperimentConfig(corpus_ham=400, corpus_spam=400)
        result = RoniExperimentResult(config=config)
        result.attack_impacts = {"usenet": [2.0]}
        result.nonattack_spam_impacts = [3.0]
        assert "NOT separable" in render_roni_result(result)


class TestRenderThreshold:
    def test_arms_and_fits(self):
        config = ThresholdExperimentConfig(corpus_ham=700, corpus_spam=700)
        result = ThresholdExperimentResult(config=config)
        result.series = {
            "no-defense": [CurvePoint(0.0, 0.0, 0.0), CurvePoint(0.05, 0.5, 0.9)],
            "threshold-0.05": [CurvePoint(0.0, 0.0, 0.0), CurvePoint(0.05, 0.0, 0.2, 0.4, 0.5)],
        }
        result.fitted_thresholds = {"threshold-0.05": [(0.05, 0.8, 0.95)]}
        text = render_threshold_result(result)
        assert "no-defense" in text
        assert "threshold-0.05" in text
        assert "Figure 5" in text
        assert "fitted thresholds" in text
        assert "θ=(0.800,0.950)" in text
