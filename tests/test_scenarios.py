"""Tests for the declarative scenario layer (spec, registry, executor,
CLI).

The load-bearing contract: :func:`repro.scenarios.run_scenario` is the
one way every experiment runs, with identical results at any worker
count, and the registry exposes at least the five paper figures plus
two cross-product scenarios.  The golden records in ``tests/golden/``
pin each scenario's bytes.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniConfig
from repro.errors import ScenarioError
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    PROTOCOLS,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_builtin_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.dictionary_exp import DictionaryExperimentConfig
from repro.scenarios.roni_exp import RoniExperimentConfig
from repro.scenarios.threshold_exp import ThresholdExperimentConfig


def _tiny_dictionary_config(workers: int = 1) -> DictionaryExperimentConfig:
    return DictionaryExperimentConfig(
        inbox_size=120,
        folds=3,
        attack_fractions=(0.0, 0.05),
        variants=("optimal", "usenet"),
        profile=TINY_PROFILE,
        corpus_ham=120,
        corpus_spam=120,
        seed=2,
        workers=workers,
    )


TINY_RONI_OVERRIDES = dict(
    pool_size=80,
    roni=RoniConfig(train_size=10, validation_size=20, trials=2),
    n_nonattack_spam=6,
    repetitions_per_variant=2,
    profile=TINY_PROFILE,
    corpus_ham=120,
    corpus_spam=120,
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_catalogue_has_paper_figures_and_cross_products(self):
        names = set(scenario_names())
        assert len(names) >= 7
        assert {
            "figure1-dictionary",
            "figure2-focused-knowledge",
            "figure3-focused-size",
            "roni-defense",
            "figure5-threshold",
            "aspell-vs-threshold",
            "focused-vs-roni",
        } <= names

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(ScenarioError, match="figure1-dictionary"):
            get_scenario("figure9")

    def test_reregistration_is_idempotent_but_conflicts_rejected(self):
        register_builtin_scenarios()  # identical specs: no-op
        assert len(scenario_names()) == len(BUILTIN_SCENARIOS)
        conflicting = replace(
            get_scenario("figure1-dictionary"), title="something else"
        )
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario(conflicting)

    def test_every_builtin_names_a_known_protocol(self):
        for spec in list_scenarios():
            assert spec.protocol in PROTOCOLS

    def test_register_rejects_unknown_protocol(self):
        spec = ScenarioSpec(
            name="bogus-protocol",
            title="x",
            protocol="no-such-protocol",
            config_type=DictionaryExperimentConfig,
        )
        with pytest.raises(ScenarioError, match="unknown protocol"):
            register_scenario(spec)

    def test_list_scenarios_filters(self):
        gated = list_scenarios(lambda spec: "roni" in spec.defense_stack)
        assert {spec.name for spec in gated} == {
            "roni-defense",
            "focused-vs-roni",
            "stream-dictionary-vs-roni",
            "stream-focused-vs-roni",
        }


# ----------------------------------------------------------------------
# Spec / config construction
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_defaults_are_validated_and_frozen(self):
        with pytest.raises(ScenarioError, match="unknown default"):
            ScenarioSpec(
                name="bad-defaults",
                title="x",
                protocol="dictionary-sweep",
                config_type=DictionaryExperimentConfig,
                defaults={"not_a_field": 1},
            )
        spec = get_scenario("aspell-vs-threshold")
        with pytest.raises(TypeError):
            spec.defaults["attack_variant"] = "usenet"  # mappingproxy

    def test_build_config_layers_defaults_then_overrides(self):
        spec = get_scenario("aspell-vs-threshold")
        config = spec.build_config(seed=9, workers=2, folds=4)
        assert isinstance(config, ThresholdExperimentConfig)
        assert config.attack_variant == "aspell"  # spec default
        assert (config.folds, config.seed, config.workers) == (4, 9, 2)
        overridden = spec.build_config(attack_variant="usenet")
        assert overridden.attack_variant == "usenet"

    def test_build_config_rejects_unknown_override(self):
        with pytest.raises(ScenarioError, match="unknown override"):
            get_scenario("figure1-dictionary").build_config(no_such_knob=1)

    def test_seed_and_workers_are_ordinary_override_fields(self):
        """--set seed=5 / overrides={'seed': 5} must work like any
        other field (and win over the same-named keyword)."""
        spec = get_scenario("figure1-dictionary")
        merged = spec.build_config(**{"seed": 7, "workers": 2, "folds": 2})
        assert (merged.seed, merged.workers, merged.folds) == (7, 2, 2)

    def test_validate_overrides_names_the_bad_field(self):
        with pytest.raises(ScenarioError, match="no_such_knob"):
            get_scenario("figure1-dictionary").validate_overrides({"no_such_knob": 1})


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class TestRunScenario:
    def test_config_and_overrides_are_mutually_exclusive(self):
        with pytest.raises(ScenarioError, match="not both"):
            run_scenario(
                "figure1-dictionary", config=_tiny_dictionary_config(), seed=1
            )

    def test_rejects_mismatched_config_type(self):
        with pytest.raises(ScenarioError, match="DictionaryExperimentConfig"):
            run_scenario("figure1-dictionary", config=RoniExperimentConfig())

    def test_overrides_may_name_seed_and_workers(self):
        outcome = run_scenario(
            "figure1-dictionary",
            overrides=dict(
                inbox_size=120,
                folds=3,
                attack_fractions=(0.0, 0.05),
                variants=("optimal",),
                profile=TINY_PROFILE,
                corpus_ham=120,
                corpus_spam=120,
                seed=5,
                workers=1,
            ),
        )
        assert (outcome.config.seed, outcome.config.workers) == (5, 1)

    def test_worker_counts_agree_through_the_executor(self):
        sequential = run_scenario(
            "figure1-dictionary", config=_tiny_dictionary_config(workers=1)
        )
        parallel = run_scenario(
            "figure1-dictionary", config=_tiny_dictionary_config(workers=2)
        )
        assert sequential.record_dict() == parallel.record_dict()

    def test_focused_vs_roni_cross_product(self, suite_workers):
        """The registry's marquee composition: RONI barely sees the
        focused attack while the dictionary attack towers over spam."""
        outcome = run_scenario(
            "focused-vs-roni",
            overrides=TINY_RONI_OVERRIDES,
            seed=2,
            workers=suite_workers,
        )
        result = outcome.result
        assert set(result.attack_impacts) == {"focused", "usenet"}
        focused_mean = sum(result.attack_impacts["focused"]) / len(
            result.attack_impacts["focused"]
        )
        usenet_mean = sum(result.attack_impacts["usenet"]) / len(
            result.attack_impacts["usenet"]
        )
        assert focused_mean < usenet_mean

    def test_aspell_vs_threshold_cross_product(self, suite_workers):
        outcome = run_scenario(
            "aspell-vs-threshold",
            overrides=dict(
                inbox_size=120,
                folds=3,
                attack_fractions=(0.0, 0.05),
                quantiles=(0.10,),
                profile=TINY_PROFILE,
                corpus_ham=120,
                corpus_spam=120,
            ),
            seed=2,
            workers=suite_workers,
        )
        assert outcome.config.attack_variant == "aspell"
        assert set(outcome.result.series) == {"no-defense", "threshold-0.10"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestScenarioCli:
    def test_list_scenarios_shows_at_least_seven(self, capsys):
        from repro.cli import main

        assert main(["list-scenarios"]) == 0
        output = capsys.readouterr().out
        listed = [line.split()[0] for line in output.splitlines() if line and not line.startswith(" ") and "registered" not in line]
        assert len(listed) >= 7
        assert "figure1-dictionary" in listed and "focused-vs-roni" in listed

    def test_run_scenario_with_set_overrides(self, tmp_path, capsys):
        from repro.cli import main

        overrides = [
            "--set", "pool_size=80",
            "--set", "n_nonattack_spam=6",
            "--set", "repetitions_per_variant=2",
            "--set", "corpus_ham=120",
            "--set", "corpus_spam=120",
            "--set", "variants=('usenet',)",
        ]
        code = main(
            ["run-scenario", "roni-defense", "--seed", "3", "--out", str(tmp_path)]
            + overrides
        )
        assert code == 0
        record = json.loads((tmp_path / "roni-defense.json").read_text())
        assert record["experiment"] == "roni-defense"
        assert (tmp_path / "roni-defense.txt").exists()
        assert "=== scenario roni-defense" in capsys.readouterr().out

    def test_run_scenario_unknown_name_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run-scenario", "figure9"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_scenario_set_seed_wins_over_flag(self, tmp_path, capsys):
        """--set seed=N must not crash and must beat --seed, as the
        help text promises."""
        from repro.cli import main

        code = main(
            ["run-scenario", "figure3-focused-size", "--seed", "0",
             "--set", "seed=9",
             "--set", "inbox_size=200", "--set", "n_targets=3",
             "--set", "repetitions=1", "--set", "attack_count=12",
             "--set", "corpus_ham=250", "--set", "corpus_spam=250",
             "--set", "size_sweep_fractions=(0.0, 0.05)",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "seed=9" in capsys.readouterr().out
        record = json.loads((tmp_path / "figure3-focused-size.json").read_text())
        assert record["config"]["seed"] == 9

    def test_run_scenario_bad_set_values_fail_cleanly(self, capsys):
        """A --set typo exits 2 with the field listing on every --scale
        path, and type-invalid seed/workers values get diagnostics, not
        tracebacks."""
        from repro.cli import main

        assert main(["run-scenario", "figure1-dictionary", "--set", "typo=1"]) == 2
        assert "unknown override" in capsys.readouterr().err
        assert (
            main(
                ["run-scenario", "figure1-dictionary", "--scale", "paper",
                 "--set", "typo=1"]
            )
            == 2
        )
        assert "unknown override" in capsys.readouterr().err
        assert main(["run-scenario", "figure1-dictionary", "--set", "workers=abc"]) == 2
        assert "workers must be an integer" in capsys.readouterr().err
        assert main(["run-scenario", "figure1-dictionary", "--set", "seed=abc"]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
