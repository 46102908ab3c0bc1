"""Tests for the streaming mailstream engine (:mod:`repro.stream`)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.results import ExperimentRecord
from repro.scenarios import get_scenario, list_scenarios, run_scenario
from repro.stream import (
    StreamRunner,
    StreamSpec,
    build_tick_defense,
    run_stream_experiment,
)
from repro.stream.defenses import RoniTickDefense, ThresholdTickDefense, TickDefense
from repro.spambayes.token_table import TokenTable

TINY = dict(
    ticks=3,
    ham_per_tick=20,
    spam_per_tick=20,
    attack_start_tick=2,
    attack_per_tick=5,
    test_size=40,
    seed=11,
)


def tiny_spec(**overrides) -> StreamSpec:
    merged = dict(TINY)
    merged.update(overrides)
    return StreamSpec(**merged)


# ----------------------------------------------------------------------
# Spec validation and schedules
# ----------------------------------------------------------------------


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(ticks=0),
            dict(ham_per_tick=-1),
            dict(spam_per_tick=-1),
            dict(attack_start_tick=0),
            dict(attack_per_tick=-1),
            dict(ramp="exponential"),
            dict(ramp_ticks=0),
            dict(defense="magic"),
            dict(test_size=1),
            dict(defense="roni", roni_calibration_size=10),
            dict(defense="threshold", spam_per_tick=0),
        ],
    )
    def test_invalid_specs_raise(self, overrides):
        with pytest.raises(ExperimentError):
            tiny_spec(**overrides)

    def test_defaults_are_the_legacy_weekly_loop(self):
        spec = StreamSpec()
        assert (spec.ticks, spec.ham_per_tick, spec.spam_per_tick) == (8, 60, 60)
        assert spec.ramp == "constant"
        assert spec.defense == "none"


class TestSchedules:
    def test_constant_matches_legacy_shape(self):
        spec = tiny_spec(ticks=5, attack_start_tick=3, attack_per_tick=7)
        assert spec.tick_attack_counts() == (0, 0, 7, 7, 7)

    def test_linear_ramps_to_peak_and_holds(self):
        spec = tiny_spec(
            ticks=6, attack_start_tick=2, attack_per_tick=12, ramp="linear", ramp_ticks=4
        )
        assert spec.tick_attack_counts() == (0, 3, 6, 9, 12, 12)

    def test_burst_compresses_the_campaign_budget(self):
        spec = tiny_spec(
            ticks=4, attack_start_tick=2, attack_per_tick=5, ramp="burst", ramp_ticks=3
        )
        assert spec.tick_attack_counts() == (0, 15, 0, 0)
        # Same total mail as the constant campaign over ramp_ticks ticks.
        constant = tiny_spec(ticks=4, attack_start_tick=2, attack_per_tick=5)
        assert sum(spec.tick_attack_counts()) == sum(constant.tick_attack_counts())

    def test_zero_peak_is_a_clean_stream(self):
        spec = tiny_spec(attack_per_tick=0)
        assert spec.tick_attack_counts() == (0, 0, 0)

    def test_constant_campaign_sends_from_its_start_tick(self):
        spec = tiny_spec()
        assert spec.tick_attack_counts() == (0, 5, 5)
        assert [spec.attack_count_at(tick) for tick in (1, 2, 3)] == [0, 5, 5]


class TestAttackArrivals:
    def test_helper_materializes_batches(self, tiny_corpus):
        import random

        from repro.attacks.dictionary import OptimalDictionaryAttack
        from repro.experiments.attack_data import attack_messages_as_dataset

        attack = OptimalDictionaryAttack.from_vocabulary(tiny_corpus.vocabulary)
        batch = attack.generate(3, random.Random(5))
        messages = attack_messages_as_dataset(batch, start=100)
        assert len(messages) == 3
        assert all(message.is_spam for message in messages)
        assert messages[0].msgid.endswith("000100")
        # Token caches are pre-seeded with the payload.
        assert messages[0].tokens() == batch.groups[0].training_tokens


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class TestUndefendedStream:
    @pytest.fixture(scope="class")
    def result(self):
        return StreamRunner(tiny_spec()).run()

    def test_one_outcome_per_tick(self, result):
        assert [o.tick for o in result.ticks] == [1, 2, 3]

    def test_training_accumulates_incrementally(self, result):
        assert [o.trained_messages for o in result.ticks] == [40, 85, 130]

    def test_attack_all_trained_when_undefended(self, result):
        for outcome in result.ticks:
            assert outcome.attack_trained == outcome.attack_sent
            assert outcome.attack_rejected == 0
            assert outcome.legitimate_rejected == 0

    def test_dictionary_stream_degrades_the_filter(self, result):
        before = result.outcome(1).confusion.ham_misclassified_rate
        after = result.ticks[-1].confusion.ham_misclassified_rate
        assert after > before + 0.3

    def test_every_arrival_is_accounted_for(self, result):
        # 3 ticks of 40 legitimate messages plus the campaign's 10, all
        # trained; each tick scores the same 40-message held-out set.
        spec = tiny_spec()
        assert sum(o.attack_sent for o in result.ticks) == sum(spec.tick_attack_counts())
        assert result.ticks[-1].trained_messages == 3 * 40 + 10
        assert result.test_messages == 40

    def test_outcome_lookup_raises_on_unknown_tick(self, result):
        with pytest.raises(ExperimentError):
            result.outcome(99)

    def test_no_cutoffs_or_clean_without_the_knobs(self, result):
        for outcome in result.ticks:
            assert outcome.ham_cutoff is None
            assert outcome.clean_confusion is None


class TestCleanCounterfactual:
    @pytest.fixture(scope="class")
    def results(self):
        plain = StreamRunner(tiny_spec()).run()
        measured = StreamRunner(tiny_spec(measure_clean=True)).run()
        return plain, measured

    def test_clean_equals_actual_before_the_attack(self, results):
        _, measured = results
        first = measured.outcome(1)
        assert first.clean_confusion is not None
        assert first.clean_confusion.as_dict() == first.confusion.as_dict()

    def test_clean_track_is_healthier_after_the_attack(self, results):
        _, measured = results
        last = measured.ticks[-1]
        assert (
            last.clean_confusion.ham_misclassified_rate
            < last.confusion.ham_misclassified_rate
        )

    def test_clean_twin_leaves_the_stream_untouched(self, results):
        # The clean counterfactual must be a pure measurement: every
        # actual per-tick confusion is bit-identical with and without
        # the clean twin.
        plain, measured = results
        assert [o.confusion.as_dict() for o in measured.ticks] == [
            o.confusion.as_dict() for o in plain.ticks
        ]
        assert [o.trained_messages for o in measured.ticks] == [
            o.trained_messages for o in plain.ticks
        ]

    def test_clean_series_rides_the_record(self, results):
        _, measured = results
        record = measured.to_record()
        assert [series.name for series in record.series] == ["stream", "stream-clean"]


@pytest.mark.slow
class TestRoniStream:
    @pytest.fixture(scope="class")
    def result(self):
        spec = tiny_spec(
            ham_per_tick=30,
            spam_per_tick=30,
            attack_start_tick=3,
            attack_per_tick=6,
            defense="roni",
            roni_calibration_size=100,
        )
        return StreamRunner(spec).run()

    def test_gate_open_until_history_warms(self, result):
        # Tick 1 trains with no gate (no history yet).
        assert result.outcome(1).legitimate_rejected == 0

    def test_dictionary_stream_rejected_once_calibrated(self, result):
        attacked = [o for o in result.ticks if o.attack_sent > 0]
        assert attacked
        for outcome in attacked:
            assert outcome.attack_rejected == outcome.attack_sent
            assert outcome.attack_trained == 0

    def test_filter_stays_healthy(self, result):
        assert result.ticks[-1].confusion.ham_misclassified_rate < 0.1

    def test_record_config_carries_the_gate_parameters(self, result):
        config = result.to_record().config
        assert config["roni_calibration_size"] == 100
        assert config["roni"]["train_size"] == result.spec.roni.train_size
        assert config["roni"]["validation_size"] == result.spec.roni.validation_size


class TestThresholdStream:
    @pytest.fixture(scope="class")
    def result(self):
        return StreamRunner(tiny_spec(defense="threshold")).run()

    def test_cutoffs_fitted_every_tick(self, result):
        for outcome in result.ticks:
            assert outcome.ham_cutoff is not None
            assert outcome.spam_cutoff is not None
            assert outcome.ham_cutoff <= outcome.spam_cutoff

    def test_fitted_thresholds_ride_the_record_extras(self, result):
        record = result.to_record()
        fits = record.extras["fitted_thresholds"]
        assert [tick for tick, _, _ in fits] == [1, 2, 3]

    def test_record_config_carries_the_quantile(self, result):
        config = result.to_record().config
        assert config["threshold_quantile"] == result.spec.threshold_quantile


class TestTickDefenseFactory:
    def test_names_map_to_classes(self):
        table = TokenTable()
        assert type(build_tick_defense(tiny_spec(), table)) is TickDefense
        assert isinstance(
            build_tick_defense(
                tiny_spec(
                    ham_per_tick=30,
                    spam_per_tick=30,
                    defense="roni",
                    roni_calibration_size=100,
                ),
                table,
            ),
            RoniTickDefense,
        )
        assert isinstance(
            build_tick_defense(tiny_spec(defense="threshold"), table),
            ThresholdTickDefense,
        )


# ----------------------------------------------------------------------
# Records and the results layer
# ----------------------------------------------------------------------


class TestStreamRecords:
    @pytest.fixture(scope="class")
    def record(self):
        return StreamRunner(tiny_spec()).run().to_record()

    def test_series_x_is_the_tick_number(self, record):
        (series,) = record.series
        assert series.name == "stream"
        assert series.xs() == [1.0, 2.0, 3.0]

    def test_round_trips_through_json(self, record):
        restored = ExperimentRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert restored.as_dict() == record.as_dict()

    def test_extras_carry_the_gate_counters(self, record):
        assert record.extras["attack_sent"] == [0, 5, 5]
        assert record.extras["attack_trained"] == [0, 5, 5]
        assert record.extras["trained_messages"] == [40, 85, 130]

    def test_config_block_names_the_schedule(self, record):
        assert record.config["ramp"] == "constant"
        assert record.config["defense"] == "none"
        assert record.config["ticks"] == 3


# ----------------------------------------------------------------------
# Engine and registry integration
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_protocol_entry_point_matches_direct_runner(self, suite_workers):
        spec = tiny_spec(workers=suite_workers)
        via_engine = run_stream_experiment(spec)
        direct = StreamRunner(tiny_spec()).run()
        assert [o.confusion.as_dict() for o in via_engine.ticks] == [
            o.confusion.as_dict() for o in direct.ticks
        ]

    def test_six_stream_scenarios_registered(self):
        names = [s.name for s in list_scenarios() if s.protocol == "stream"]
        assert names == [
            "stream-clean-control",
            "stream-dictionary-ramp",
            "stream-dictionary-vs-roni",
            "stream-focused-vs-roni",
            "stream-threshold-over-time",
            "stream-usenet-burst",
        ]

    def test_registered_defaults_build(self):
        for spec in list_scenarios(lambda s: s.protocol == "stream"):
            config = spec.build_config()
            assert isinstance(config, StreamSpec)

    def test_run_scenario_applies_overrides(self, suite_workers):
        outcome = run_scenario(
            "stream-clean-control", overrides=dict(TINY), workers=suite_workers
        )
        assert outcome.record is not None
        assert outcome.result.ticks[-1].attack_sent == 5  # override beats default 0

    def test_clean_control_default_has_no_attack(self):
        spec = get_scenario("stream-clean-control").build_config(
            ticks=2, ham_per_tick=15, spam_per_tick=15, test_size=30
        )
        assert spec.tick_attack_counts() == (0, 0)
        result = StreamRunner(spec).run()
        assert all(o.attack_sent == 0 for o in result.ticks)


# ----------------------------------------------------------------------
# Phase profiling
# ----------------------------------------------------------------------


class TestPhaseProfiling:
    def test_profile_off_by_default(self):
        result = StreamRunner(tiny_spec()).run()
        assert result.phase_profile is None

    def test_profile_covers_every_tick_and_phase(self):
        from repro.stream.profile import PHASES

        spec = tiny_spec(measure_clean=True, profile_phases=True)
        result = StreamRunner(spec).run()
        profile = result.phase_profile
        assert profile is not None
        assert len(profile.per_tick) == spec.ticks
        for tick in profile.per_tick:
            # With measure_clean on, every tick runs all four phases.
            assert set(tick) == set(PHASES)
            assert all(seconds >= 0.0 for seconds in tick.values())
        assert profile.prepare_seconds > 0.0
        assert profile.total_seconds > 0.0
        # The phases cover the bulk of the run: only loop scaffolding
        # and record assembly go unattributed.
        assert 0.5 < profile.accounted_fraction() <= 1.0

    def test_profile_is_pure_observation(self):
        plain = StreamRunner(tiny_spec(measure_clean=True)).run()
        profiled = StreamRunner(
            tiny_spec(measure_clean=True, profile_phases=True)
        ).run()
        assert json.dumps(plain.to_record().as_dict(), sort_keys=True) == json.dumps(
            profiled.to_record().as_dict(), sort_keys=True
        )

    def test_profile_helpers_and_render(self):
        from repro.stream.profile import PHASES, StreamProfile

        profile = StreamProfile(
            per_tick=[
                {"train": 0.2, "defense": 0.01, "eval": 0.1, "counterfactual": 0.05},
                {"train": 0.3, "defense": 0.02, "eval": 0.1, "counterfactual": 0.07},
            ],
            prepare_seconds=0.5,
            total_seconds=1.5,
        )
        totals = profile.phase_totals()
        assert totals["train"] == pytest.approx(0.5)
        assert profile.accounted_seconds() == pytest.approx(0.5 + 0.85)
        assert profile.accounted_fraction() == pytest.approx(1.35 / 1.5)
        assert totals["counterfactual"] == pytest.approx(0.12)
        rendered = profile.render()
        assert "phase timings" in rendered
        for phase in PHASES:
            assert phase in rendered
        assert "accounted 90.0%" in rendered

    def test_untimed_profile_accounts_fully(self):
        from repro.stream.profile import StreamProfile

        assert StreamProfile().accounted_fraction() == 1.0

    def test_disabled_timer_is_inert(self):
        from repro.stream.profile import PhaseTimer

        timer = PhaseTimer(False)
        timer.start_tick()
        with timer.phase("train"):
            pass
        assert timer.finish(1.0) is None
