"""Differential: the stream engine vs the legacy weekly loop.

``run_retraining_simulation`` is now a thin delegation onto
:class:`repro.stream.StreamRunner`; the original inline loop is
retained verbatim as
:func:`repro.experiments.retraining.sequential_reference_retraining`.
These tests hold the two side by side — under **both** defenses — and
assert every weekly outcome identical, field for field: same arrival
slices, same attack batches, same RONI calibration draws, same
confusion counts.  Also covers the relocated
``attack_messages_as_dataset`` helper.
"""

from __future__ import annotations

import pytest

from repro.experiments.retraining import (
    RetrainingConfig,
    run_retraining_simulation,
    sequential_reference_retraining,
)


def quick_config(**overrides) -> RetrainingConfig:
    defaults = dict(
        weeks=4,
        ham_per_week=30,
        spam_per_week=30,
        attack_start_week=2,
        attack_per_week=6,
        roni_calibration_size=100,
        test_size=80,
        seed=17,
    )
    defaults.update(overrides)
    return RetrainingConfig(**defaults)


def outcome_fields(result) -> list[tuple]:
    return [
        (
            week.week,
            week.trained_messages,
            week.attack_sent,
            week.attack_trained,
            week.attack_rejected,
            week.legitimate_rejected,
            week.confusion.as_dict(),
        )
        for week in result.weeks
    ]


@pytest.mark.slow
class TestStreamReproducesLegacyLoop:
    @pytest.mark.parametrize("defense", ["none", "roni"])
    def test_weekly_outcomes_identical_field_for_field(self, defense):
        config = quick_config(defense=defense)
        reference = sequential_reference_retraining(config)
        delegated = run_retraining_simulation(config)
        assert outcome_fields(delegated) == outcome_fields(reference)

    def test_config_rides_the_delegated_result(self):
        config = quick_config(weeks=2, attack_start_week=3)
        result = run_retraining_simulation(config)
        assert result.config is config
        assert [w.week for w in result.weeks] == [1, 2]

    def test_delegation_survives_different_seeds(self):
        # A second root seed: the equivalence is structural, not a
        # single lucky draw.
        config = quick_config(weeks=3, seed=404)
        assert outcome_fields(run_retraining_simulation(config)) == outcome_fields(
            sequential_reference_retraining(config)
        )


class TestAttackDataRelocation:
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
