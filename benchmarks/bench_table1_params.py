"""E-T1 — Table 1: experimental parameters.

Regenerates the paper's parameter table from the structured constants
and asserts the harness's paper-scale configurations actually use
those values, so the table printed here is the table the code runs.
"""

from __future__ import annotations

from repro.defenses.roni import RoniConfig
from repro.experiments.params import (
    DICTIONARY_PARAMS,
    FOCUSED_PARAMS,
    RONI_PARAMS,
    THRESHOLD_PARAMS,
)
from repro.experiments.reporting import render_table1
from repro.scenarios.dictionary_exp import DictionaryExperimentConfig, PAPER_FRACTIONS
from repro.scenarios.focused_exp import FocusedExperimentConfig
from repro.scenarios.threshold_exp import ThresholdExperimentConfig


def bench_table1(benchmark, artifacts):
    table = benchmark.pedantic(render_table1, rounds=1, iterations=1)

    # Paper-scale configs must agree with the Table 1 constants.
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

    artifacts.add("table1-parameters", "Table 1 (parameters used in our experiments)\n\n" + table)
