"""Integration tests: run each paper experiment at reduced scale and
assert the paper's shape claims (see repro.experiments.paper_targets).

These are the most important tests in the suite — they check that the
*system*, not just its parts, reproduces the published behaviour.
Sizes are tuned to run in a few seconds each.
"""

from __future__ import annotations

import pytest

from repro.scenarios import run_scenario
from repro.scenarios.dictionary_exp import DictionaryExperimentConfig
from repro.scenarios.focused_exp import FocusedExperimentConfig
from repro.scenarios.roni_exp import RoniExperimentConfig
from repro.scenarios.threshold_exp import ThresholdExperimentConfig


@pytest.fixture(scope="module")
def dictionary_result(suite_workers):
    config = DictionaryExperimentConfig(
        inbox_size=600,
        folds=2,
        corpus_ham=450,
        corpus_spam=450,
        attack_fractions=(0.0, 0.01, 0.05, 0.10),
        seed=5,
        workers=suite_workers,
    )
    return run_scenario("figure1-dictionary", config=config).result


@pytest.mark.slow
class TestFigure1Shape:
    def test_clean_baseline_is_accurate(self, dictionary_result):
        for points in dictionary_result.sweeps.values():
            baseline = points[0].confusion
            assert baseline.ham_misclassified_rate < 0.05

    def test_attack_ordering(self, dictionary_result):
        """Paper claim: optimal >= usenet >= aspell."""
        sweeps = dictionary_result.sweeps
        for index in range(1, 4):
            optimal = sweeps["optimal"][index].confusion.ham_misclassified_rate
            usenet = sweeps["usenet"][index].confusion.ham_misclassified_rate
            aspell = sweeps["aspell"][index].confusion.ham_misclassified_rate
            assert optimal >= usenet - 0.02
            assert usenet >= aspell - 0.02

    def test_unusable_at_one_percent(self, dictionary_result):
        """Paper claim: filter unusable with 1% control."""
        for points in dictionary_result.sweeps.values():
            at_one_percent = points[1].confusion
            assert at_one_percent.ham_misclassified_rate > 0.30

    def test_monotone_in_contamination(self, dictionary_result):
        for points in dictionary_result.sweeps.values():
            rates = [p.confusion.ham_misclassified_rate for p in points]
            for earlier, later in zip(rates, rates[1:]):
                assert later >= earlier - 0.02

    def test_solid_dominates_dashed(self, dictionary_result):
        for points in dictionary_result.sweeps.values():
            for point in points:
                assert (
                    point.confusion.ham_misclassified_rate
                    >= point.confusion.ham_as_spam_rate
                )

    def test_record_serialization(self, dictionary_result):
        record = dictionary_result.to_record()
        assert record.experiment == "figure1-dictionary"
        assert {s.name for s in record.series} == {"optimal", "usenet", "aspell"}


@pytest.fixture(scope="module")
def focused_config(suite_workers):
    return FocusedExperimentConfig(
        inbox_size=500,
        n_targets=8,
        repetitions=2,
        attack_count=30,  # 6% of the inbox, the paper's proportion
        corpus_ham=450,
        corpus_spam=450,
        size_sweep_fractions=(0.0, 0.01, 0.03, 0.06, 0.10),
        seed=5,
        workers=suite_workers,
    )


@pytest.mark.slow
class TestFigure2Shape:
    def test_success_monotone_in_knowledge(self, focused_config):
        result = run_scenario("figure2-focused-knowledge", config=focused_config).result
        success = [result.attack_success_rate(p) for p in (0.1, 0.3, 0.5, 0.9)]
        for earlier, later in zip(success, success[1:]):
            assert later >= earlier - 0.05
        # High knowledge must be very effective; low knowledge weak.
        assert success[-1] > 0.7
        assert success[0] < 0.7

    def test_targets_start_as_ham(self, focused_config):
        result = run_scenario("figure2-focused-knowledge", config=focused_config).result
        assert result.pre_attack_ham / result.total_targets > 0.8

    def test_label_counts_complete(self, focused_config):
        result = run_scenario("figure2-focused-knowledge", config=focused_config).result
        expected = focused_config.n_targets * focused_config.repetitions
        for probability in focused_config.guess_probabilities:
            assert sum(result.label_counts[probability].values()) == expected


@pytest.mark.slow
class TestFigure3Shape:
    def test_misclassification_monotone_in_size(self, focused_config):
        result = run_scenario("figure3-focused-size", config=focused_config).result
        rates = [p.ham_misclassified_rate for p in result.points]
        assert rates[0] < 0.1  # no attack, no effect
        for earlier, later in zip(rates, rates[1:]):
            assert later >= earlier - 0.05
        assert rates[-1] > 0.5

    def test_spam_rate_below_filtered_rate(self, focused_config):
        result = run_scenario("figure3-focused-size", config=focused_config).result
        for point in result.points:
            assert point.ham_as_spam_rate <= point.ham_misclassified_rate


@pytest.mark.slow
class TestRoniShape:
    @pytest.fixture(scope="class")
    def roni_result(self, suite_workers):
        config = RoniExperimentConfig(
            pool_size=160,
            n_nonattack_spam=20,
            repetitions_per_variant=2,
            corpus_ham=250,
            corpus_spam=250,
            seed=5,
            workers=suite_workers,
        )
        return run_scenario("roni-defense", config=config).result

    def test_separability(self, roni_result):
        assert roni_result.separable
        assert roni_result.min_attack_impact > roni_result.max_nonattack_impact

    def test_perfect_detection_at_threshold(self, roni_result):
        threshold = roni_result.config.roni.ham_as_ham_threshold
        assert roni_result.detection_rate(threshold) == 1.0
        assert roni_result.false_positive_rate(threshold) == 0.0

    def test_all_variants_measured(self, roni_result):
        assert set(roni_result.attack_impacts) == set(roni_result.config.variants)
        for impacts in roni_result.attack_impacts.values():
            assert len(impacts) == roni_result.config.repetitions_per_variant


@pytest.mark.slow
class TestFigure5Shape:
    @pytest.fixture(scope="class")
    def threshold_result(self, suite_workers):
        config = ThresholdExperimentConfig(
            inbox_size=500,
            folds=2,
            corpus_ham=400,
            corpus_spam=400,
            attack_fractions=(0.0, 0.01, 0.05),
            seed=5,
            workers=suite_workers,
        )
        return run_scenario("figure5-threshold", config=config).result

    def test_defense_protects_ham(self, threshold_result):
        """Defended ham misclassification far below undefended, and
        ham-as-spam (dashed) near zero, at every attacked level."""
        undefended = threshold_result.series["no-defense"]
        for arm in ("threshold-0.05", "threshold-0.10"):
            defended = threshold_result.series[arm]
            for u_point, d_point in zip(undefended[1:], defended[1:]):
                assert d_point.ham_misclassified_rate < u_point.ham_misclassified_rate
                assert d_point.ham_as_spam_rate < 0.15

    def test_defense_cost_spam_as_unsure(self, threshold_result):
        """The paper's caveat: under attack the defended filter sends
        most spam to unsure."""
        for arm in ("threshold-0.05", "threshold-0.10"):
            attacked_points = threshold_result.series[arm][1:]
            assert max(p.spam_as_unsure_rate for p in attacked_points) > 0.3

    def test_fitted_thresholds_rise_with_attack(self, threshold_result):
        for arm, triples in threshold_result.fitted_thresholds.items():
            theta0_values = [theta0 for _, theta0, _ in triples]
            assert theta0_values[-1] > theta0_values[0]
