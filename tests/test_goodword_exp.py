"""Tests for the good-word experiment driver."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.scenarios import run_scenario
from repro.scenarios.goodword_exp import GoodWordExperimentConfig


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
