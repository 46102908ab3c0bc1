"""The paper's evaluation claims, asserted on the registered scenarios.

Each test runs a paper artifact's scenario through :func:`run_scenario`
at small scale and a fixed seed, and asserts one shape the paper
states (:mod:`repro.experiments.paper_targets`), with the bound the
artifact has always been held to.  The corpus is synthetic, so these
are shapes — orderings, floors, monotone curves — not the paper's
digits.  ``CLAIM_TESTS`` maps every asserted claim to its test and
``PRINTED_ONLY`` lists the claims that are printed beside their figure
but not asserted; ``test_every_paper_claim_is_placed`` keeps the two
honest.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.defenses.roni import RoniConfig
from repro.experiments.paper_targets import ALL_CLAIMS
from repro.experiments.params import (
    DICTIONARY_PARAMS,
    FOCUSED_PARAMS,
    RONI_PARAMS,
    THRESHOLD_PARAMS,
)
from repro.experiments.reporting import render_table1
from repro.experiments.results import ExperimentRecord
from repro.scenarios import list_scenarios, run_scenario, scenario_names
from repro.scenarios.dictionary_exp import PAPER_FRACTIONS, DictionaryExperimentConfig
from repro.scenarios.focused_exp import FocusedExperimentConfig
from repro.scenarios.threshold_exp import ThresholdExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"

CLAIM_TESTS = {
    "attack strength ordering is optimal >= usenet >= aspell at every fraction":
        "test_figure1_attack_strength_ordering",
    "each attack renders the filter unusable at 1% control":
        "test_figure1_unusable_at_one_percent",
    "attack success increases monotonically with guess probability p":
        "test_figure2_success_monotone_in_knowledge",
    # Bound > 30%: 1/5 scale flips half the targets, the paper ~60%.
    "p=0.3 already changes classification on a majority of targets":
        "test_figure2_guessing_30_percent_changes_many_targets",
    # Bound > 70% success: near-exact knowledge is highly effective.
    "with near-exact knowledge the target is misclassified ~90% of the time":
        "test_figure2_near_exact_knowledge_is_highly_effective",
    "target misclassification rises with the number of attack emails":
        "test_figure3_misclassification_rises_with_attack_size",
    "dictionary-attack and non-attack impact distributions are separable":
        "test_roni_impact_distributions_are_separable",
    "RONI identifies 100% of dictionary attack emails": "test_roni_detects_every_attack_email",
    "RONI flags no non-attack emails": "test_roni_flags_no_nonattack_spam",
    "with the dynamic threshold, ham is (almost) never classified as spam":
        "test_figure5_defended_ham_almost_never_spam",
    "defended ham misclassification stays well below the undefended filter":
        "test_figure5_defense_beats_no_defense",
    # Bound > 30% of spam unsure at some attacked point; the paper ~100%.
    "the cost: almost all spam becomes unsure under attack":
        "test_figure5_spam_floods_unsure",
}
"""Claim text -> the test in this module that asserts it."""

PRINTED_ONLY = (
    # True by definition here: spam-or-unsure counts every spam verdict.
    "solid (spam-or-unsure) lines dominate dashed (spam-only) lines",
    "optimal attack saturates: all ham misclassified within a few percent control",
    # At 1/5 scale a 2% attack misclassifies most targets, not a third.
    "a ~2% attack already misclassifies roughly a third of targets",
    "threshold-.05 has a wider unsure band than threshold-.10",
)
"""Claims rendered beside their artifact but asserted by no test."""


def _run(name: str, seed: int, workers: int, **overrides):
    return run_scenario(name, overrides=overrides, seed=seed, workers=workers).result


def _ham_misclassified(points) -> list[float]:
    return [point.confusion.ham_misclassified_rate for point in points]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


def test_table1_scenario_renders_the_constants():
    outcome = run_scenario("table1-parameters")
    assert render_table1(outcome.result.rows) == render_table1()
    assert [column["Parameter"] for column in outcome.record.extras["columns"]] == [
        "Dictionary Attack", "Focused Attack", "RONI Defense", "Threshold Defense"
    ]


def test_table1_paper_scale_configs_use_its_constants():
    dictionary = DictionaryExperimentConfig.paper_scale()
    assert dictionary.inbox_size == DICTIONARY_PARAMS.training_set_sizes[1]
    assert dictionary.folds == int(DICTIONARY_PARAMS.validation)
    assert tuple(dictionary.attack_fractions) == (0.0,) + DICTIONARY_PARAMS.attack_fractions
    assert PAPER_FRACTIONS[1:] == DICTIONARY_PARAMS.attack_fractions

    focused = FocusedExperimentConfig.paper_scale()
    assert focused.inbox_size == FOCUSED_PARAMS.training_set_sizes[0]
    assert focused.n_targets == FOCUSED_PARAMS.target_emails
    assert focused.repetitions == 5

    roni = RoniConfig()
    assert roni.train_size == RONI_PARAMS.training_set_sizes[0]
    assert roni.validation_size == RONI_PARAMS.test_set_sizes[0]
    assert roni.trials == 5

    threshold = ThresholdExperimentConfig.paper_scale()
    assert threshold.inbox_size == THRESHOLD_PARAMS.training_set_sizes[1]
    assert threshold.folds == int(THRESHOLD_PARAMS.validation)
    assert tuple(threshold.attack_fractions) == (0.0,) + THRESHOLD_PARAMS.attack_fractions


# ----------------------------------------------------------------------
# Figure 1 and its Table 1 cells
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure1(suite_workers):
    return _run("figure1-dictionary", 1, suite_workers)


def test_figure1_clean_baseline_is_accurate(figure1):
    for points in figure1.sweeps.values():
        assert points[0].confusion.ham_misclassified_rate < 0.05


def test_figure1_attack_strength_ordering(figure1):
    optimal, usenet, aspell = (
        _ham_misclassified(figure1.sweeps[variant]) for variant in ("optimal", "usenet", "aspell")
    )
    for index in range(1, len(figure1.config.attack_fractions)):
        assert optimal[index] >= usenet[index] - 0.02, "ordering: optimal >= usenet"
        assert usenet[index] >= aspell[index] - 0.02, "ordering: usenet >= aspell"


def test_figure1_unusable_at_one_percent(figure1):
    for variant, points in figure1.sweeps.items():
        one_percent = next(
            point for point in points if abs(point.attack_fraction - 0.01) < 1e-9
        )
        assert one_percent.confusion.ham_misclassified_rate > 0.30, variant


def test_figure1_monotone_in_contamination(figure1):
    for points in figure1.sweeps.values():
        rates = _ham_misclassified(points)
        for earlier, later in zip(rates, rates[1:]):
            assert later >= earlier - 0.02


def test_figure1_record_round_trips(figure1):
    record = figure1.to_record()
    assert record.experiment == "figure1-dictionary"
    assert [series.name for series in record.series] == ["optimal", "usenet", "aspell"]
    assert ExperimentRecord.from_dict(json.loads(json.dumps(record.as_dict()))) == record


TABLE1_CELLS = {
    "train-200/prev-0.50": {"inbox_size": 200, "spam_prevalence": 0.50},
    "train-1000/prev-0.50": {"inbox_size": 1_000, "spam_prevalence": 0.50},
    "train-1000/prev-0.75": {"inbox_size": 1_000, "spam_prevalence": 0.75},
}
"""Table 1's other dictionary cells (2,000 messages; 75% spam) at 1/10 scale."""


@pytest.mark.parametrize("cell", TABLE1_CELLS)
def test_figure1_conclusion_holds_in_every_table1_cell(cell, suite_workers):
    """Clean at baseline, unusable by 1%: the panel the paper shows is
    representative of the cells it does not."""
    result = _run(
        "figure1-dictionary", 13, suite_workers, **TABLE1_CELLS[cell],
        attack_fractions=(0.0, 0.01, 0.05, 0.10), variants=("usenet",),
        corpus_ham=700, corpus_spam=900,
    )
    rates = _ham_misclassified(result.sweeps["usenet"])
    assert rates[0] < 0.05
    assert rates[1] > 0.30


# ----------------------------------------------------------------------
# Figures 2 and 3: the focused attack
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure2(suite_workers):
    return _run("figure2-focused-knowledge", 2, suite_workers)


def _success(result) -> list[float]:
    return [result.attack_success_rate(p) for p in result.config.guess_probabilities]


def test_figure2_success_monotone_in_knowledge(figure2):
    success = _success(figure2)
    for earlier, later in zip(success, success[1:]):
        assert later >= earlier - 0.05


def test_figure2_guessing_30_percent_changes_many_targets(figure2):
    assert figure2.attack_success_rate(0.3) > 0.3


def test_figure2_near_exact_knowledge_is_highly_effective(figure2):
    assert _success(figure2)[-1] > 0.7


def test_figure2_low_knowledge_is_weak(figure2):
    assert _success(figure2)[0] < 0.7


def test_figure2_targets_start_as_ham(figure2):
    assert figure2.pre_attack_ham / figure2.total_targets > 0.8


def test_figure2_label_counts_complete(figure2):
    expected = figure2.config.n_targets * figure2.config.repetitions
    for probability in figure2.config.guess_probabilities:
        assert sum(figure2.label_counts[probability].values()) == expected


@pytest.fixture(scope="module")
def figure3(suite_workers):
    return _run("figure3-focused-size", 3, suite_workers)


def test_figure3_clean_baseline(figure3):
    assert figure3.points[0].ham_misclassified_rate < 0.1


def test_figure3_misclassification_rises_with_attack_size(figure3):
    rates = [point.ham_misclassified_rate for point in figure3.points]
    for earlier, later in zip(rates, rates[1:]):
        assert later >= earlier - 0.05


def test_figure3_large_attacks_filter_most_targets(figure3):
    assert figure3.points[-1].ham_misclassified_rate > 0.5


# ----------------------------------------------------------------------
# Figure 4: token score shift
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure4(suite_workers):
    return _run("figure4-token-shift", 4, suite_workers)


def test_figure4_included_tokens_rise_on_every_target(figure4):
    reports = [report for report in figure4.reports if report.included_shifts]
    assert reports
    assert all(report.mean_delta(included=True) > 0.0 for report in reports)


def test_figure4_excluded_tokens_barely_move(figure4):
    reports = [report for report in figure4.reports if report.excluded_shifts]
    assert reports
    assert all(report.mean_delta(included=False) < 0.10 for report in reports)


# ----------------------------------------------------------------------
# Section 5.1: RONI
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def roni(suite_workers):
    return _run(
        "roni-defense", 6, suite_workers,
        pool_size=400, n_nonattack_spam=60, repetitions_per_variant=6,
        corpus_ham=400, corpus_spam=400,
    )


def test_roni_impact_distributions_are_separable(roni):
    assert roni.separable


def test_roni_detects_every_attack_email(roni):
    assert roni.detection_rate(roni.config.roni.ham_as_ham_threshold) == 1.0


def test_roni_flags_no_nonattack_spam(roni):
    assert roni.false_positive_rate(roni.config.roni.ham_as_ham_threshold) == 0.0


def test_roni_every_variant_measured(roni):
    assert set(roni.attack_impacts) == set(roni.config.variants)
    for impacts in roni.attack_impacts.values():
        assert len(impacts) == roni.config.repetitions_per_variant


# ----------------------------------------------------------------------
# Figure 5: the dynamic threshold
# ----------------------------------------------------------------------

DEFENDED_ARMS = ("threshold-0.05", "threshold-0.10")


@pytest.fixture(scope="module")
def figure5(suite_workers):
    return _run("figure5-threshold", 5, suite_workers)


def test_figure5_defended_ham_almost_never_spam(figure5):
    for arm in DEFENDED_ARMS:
        assert all(point.ham_as_spam_rate < 0.15 for point in figure5.series[arm])


def test_figure5_defense_beats_no_defense(figure5):
    """From 1% on; at 0.1% (one attack message) the refit's calibration
    cost can exceed the negligible attack damage."""
    undefended = figure5.series["no-defense"]
    for arm in DEFENDED_ARMS:
        for u_point, d_point in zip(undefended, figure5.series[arm]):
            if u_point.x >= 0.01:
                assert d_point.ham_misclassified_rate < u_point.ham_misclassified_rate


def test_figure5_spam_floods_unsure(figure5):
    for arm in DEFENDED_ARMS:
        attacked = [point for point in figure5.series[arm] if point.x >= 0.01]
        assert max(point.spam_as_unsure_rate for point in attacked) > 0.3


def test_figure5_fitted_thresholds_rise_with_attack(figure5):
    for triples in figure5.fitted_thresholds.values():
        theta0 = [theta0 for _, theta0, _ in triples]
        assert theta0[-1] > theta0[0]


# ----------------------------------------------------------------------
# Section 6 contrast: good-word evasion
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def goodword(suite_workers):
    result = _run(
        "goodword-evasion", 14, suite_workers,
        inbox_size=1_000, n_test_spam=50, corpus_ham=700, corpus_spam=800,
    )
    return {model: dict(points) for model, points in result.evasion.items()}, result.config


def test_goodword_oracle_dominates_blind_padding(goodword):
    evasion, config = goodword
    oracle, blind = evasion["oracle (Lowd-Meek)"], evasion["common-word (blind)"]
    for budget in config.word_budgets:
        assert oracle[budget] >= blind[budget] - 0.02


def test_goodword_oracle_evasion_is_monotone(goodword):
    evasion, config = goodword
    rates = [evasion["oracle (Lowd-Meek)"][budget] for budget in config.word_budgets]
    assert rates == sorted(rates)


def test_goodword_informed_evader_gets_most_spam_through(goodword):
    evasion, config = goodword
    assert evasion["oracle (Lowd-Meek)"][config.word_budgets[-1]] > 0.8


# ----------------------------------------------------------------------
# Section 2.1: weekly retraining, with and without the RONI gate
# ----------------------------------------------------------------------

RETRAINING = {
    "ticks": 8, "ham_per_tick": 60, "spam_per_tick": 60, "attack_start_tick": 4,
    "attack_per_tick": 12, "roni_calibration_size": 120, "test_size": 160,
}
"""Eight weekly retrains, the usenet attack from week 4."""


@pytest.fixture(scope="module")
def retraining(suite_workers):
    return {
        defense: _run("stream-dictionary-vs-roni", 16, suite_workers, **RETRAINING, defense=defense)
        for defense in ("none", "roni")
    }


def test_retraining_filter_healthy_before_the_attack(retraining):
    before = retraining["none"].outcome(RETRAINING["attack_start_tick"] - 1)
    assert before.confusion.ham_misclassified_rate < 0.1


def test_retraining_undefended_filter_collapses(retraining):
    assert retraining["none"].final_ham_misclassification() > 0.8


def test_retraining_gated_filter_stays_healthy(retraining):
    assert retraining["roni"].final_ham_misclassification() < 0.1


def test_retraining_gate_rejects_every_attack_email(retraining):
    attacked = [tick for tick in retraining["roni"].ticks if tick.attack_sent]
    assert attacked
    assert all(tick.attack_rejected == tick.attack_sent for tick in attacked)


# ----------------------------------------------------------------------
# The guard: every claim placed, every README artifact registered
# ----------------------------------------------------------------------


def test_every_paper_claim_is_placed():
    claims = [claim.claim for claim in ALL_CLAIMS]
    assert len(claims) == len(set(claims))
    unplaced = [claim for claim in claims if claim not in CLAIM_TESTS and claim not in PRINTED_ONLY]
    assert unplaced == []
    placed = [*CLAIM_TESTS, *PRINTED_ONLY]
    assert sorted(placed) == sorted(claims), "a claim is placed twice or names no PaperClaim"
    missing = [name for name in CLAIM_TESTS.values() if not callable(globals().get(name))]
    assert missing == []


def _readme_artifact_scenarios() -> set[str]:
    """Scenario names in README's "Reproducing the paper's figures and
    tables" commands: each ``run-scenario NAME`` and the ``for name in``
    loop's list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Reproducing the paper's figures and tables", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"run-scenario ([a-z0-9][\w-]*)", section))
    for loop in re.findall(r"for name in (.*?); do", section, re.DOTALL):
        names.update(loop.replace("\\", " ").split())
    return names


def test_readme_artifact_commands_name_registered_scenarios():
    names = _readme_artifact_scenarios()
    assert names - set(scenario_names()) == set()
    paper = {spec.name for spec in list_scenarios(lambda spec: spec.paper_artifact)}
    assert paper <= names, "every paper-artifact scenario has a README command"
