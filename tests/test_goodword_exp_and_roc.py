"""Tests for the good-word experiment driver and ROC analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.score_distributions import RocCurve, auc, roc_curve, score_histogram
from repro.errors import ExperimentError
from repro.scenarios import run_scenario
from repro.scenarios.goodword_exp import GoodWordExperimentConfig


class TestScoreHistogram:
    def test_bucketing(self):
        counts = score_histogram([0.0, 0.05, 0.15, 0.95, 1.0], bins=10)
        assert counts[0] == 2
        assert counts[1] == 1
        assert counts[9] == 2
        assert sum(counts) == 5

    def test_invalid_inputs(self):
        with pytest.raises(ExperimentError):
            score_histogram([0.5], bins=0)
        with pytest.raises(ExperimentError):
            score_histogram([1.5])


class TestRoc:
    def test_perfect_separation(self):
        curve = roc_curve([0.1, 0.2], [0.8, 0.9])
        assert curve.auc == pytest.approx(1.0)

    def test_no_separation(self):
        value = auc([0.5, 0.5], [0.5, 0.5])
        assert 0.4 <= value <= 0.6

    def test_inverted_scores(self):
        assert auc([0.9, 0.8], [0.1, 0.2]) == pytest.approx(0.0)

    def test_needs_both_classes(self):
        with pytest.raises(ExperimentError):
            roc_curve([], [0.5])
        with pytest.raises(ExperimentError):
            roc_curve([0.5], [])

    def test_curve_endpoints(self):
        curve = roc_curve([0.2, 0.4], [0.6, 0.8])
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_curve_monotone(self):
        curve = roc_curve([0.1, 0.3, 0.5], [0.4, 0.6, 0.9])
        xs = [x for x, _ in curve.points]
        ys = [y for _, y in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    @given(
        ham=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        spam=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=40)
    def test_auc_bounds_property(self, ham, spam):
        assert 0.0 <= auc(ham, spam) <= 1.0 + 1e-9


class TestGoodWordExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        config = GoodWordExperimentConfig(
            inbox_size=400,
            n_test_spam=25,
            word_budgets=(0, 20, 80, 300),
            corpus_ham=300,
            corpus_spam=400,
            seed=21,
        )
        return run_scenario("goodword-evasion", config=config).result

    def test_models_present(self, result):
        assert set(result.evasion) == {"common-word (blind)", "oracle (Lowd-Meek)"}

    def test_zero_budget_evades_nothing(self, result):
        for points in result.evasion.values():
            assert points[0] == (0, 0.0)

    def test_monotone_in_budget(self, result):
        for points in result.evasion.values():
            rates = [rate for _, rate in points]
            assert rates == sorted(rates)

    def test_oracle_dominates_blind(self, result):
        oracle = dict(result.evasion["oracle (Lowd-Meek)"])
        blind = dict(result.evasion["common-word (blind)"])
        for budget, oracle_rate in oracle.items():
            assert oracle_rate >= blind[budget] - 1e-9

    def test_medians_recorded(self, result):
        assert set(result.median_words_to_evade) == set(result.evasion)

    def test_record_roundtrip(self, result):
        record = result.to_record()
        assert record.experiment == "goodword-evasion-cost"
        assert len(record.series) == 2

    def test_invalid_config(self):
        with pytest.raises(ExperimentError):
            GoodWordExperimentConfig(word_budgets=(10, 5))
        with pytest.raises(ExperimentError):
            GoodWordExperimentConfig(n_test_spam=0)
