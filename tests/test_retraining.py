"""The Section 2.1 deployment model: weekly retraining over a stream.

An organization retrains on each week's mail; a dictionary attacker
starts mailing mid-way.  A constant-ramp :class:`StreamSpec` played by
:class:`StreamRunner` is that loop, one tick per week.
"""

from __future__ import annotations

import pytest

from repro.stream import StreamRunner, StreamSpec


def quick_spec(**overrides) -> StreamSpec:
    defaults = dict(
        ticks=5,
        ham_per_tick=40,
        spam_per_tick=40,
        attack_start_tick=3,
        attack_per_tick=8,
        test_size=100,
        seed=17,
    )
    defaults.update(overrides)
    return StreamSpec(**defaults)


def outcome_fields(result) -> list[tuple]:
    return [
        (
            week.tick,
            week.trained_messages,
            week.attack_sent,
            week.attack_trained,
            week.attack_rejected,
            week.legitimate_rejected,
            week.confusion.as_dict(),
        )
        for week in result.ticks
    ]


class TestConfig:
    def test_result_carries_the_spec(self):
        spec = quick_spec(ticks=2)
        result = StreamRunner(spec).run()
        assert result.spec is spec
        assert [w.tick for w in result.ticks] == [1, 2]

    def test_attack_starting_after_the_last_week_never_arrives(self):
        result = StreamRunner(quick_spec(ticks=2, attack_start_tick=3)).run()
        assert [w.attack_sent for w in result.ticks] == [0, 0]
        assert [w.trained_messages for w in result.ticks] == [80, 160]


class TestUndefendedDynamics:
    @pytest.fixture(scope="class")
    def result(self):
        return StreamRunner(quick_spec()).run()

    def test_one_outcome_per_week(self, result):
        assert [w.tick for w in result.ticks] == [1, 2, 3, 4, 5]

    def test_filter_healthy_before_attack(self, result):
        for outcome in result.ticks[:2]:
            assert outcome.attack_sent == 0
            assert outcome.confusion.ham_misclassified_rate < 0.1

    def test_attack_degrades_filter(self, result):
        before = result.outcome(2).confusion.ham_misclassified_rate
        after = result.outcome(5).confusion.ham_misclassified_rate
        assert after > before + 0.3

    def test_attack_messages_all_trained(self, result):
        for outcome in result.ticks:
            assert outcome.attack_trained == outcome.attack_sent
            assert outcome.attack_rejected == 0

    def test_training_set_grows_weekly(self, result):
        sizes = [w.trained_messages for w in result.ticks]
        assert sizes == sorted(sizes)
        assert sizes[0] == 80  # 40 ham + 40 spam

    def test_attack_follows_the_weekly_schedule(self, result):
        assert [w.attack_sent for w in result.ticks] == [0, 0, 8, 8, 8]


class TestRoniDefendedDynamics:
    @pytest.fixture(scope="class")
    def result(self):
        return StreamRunner(quick_spec(defense="roni")).run()

    def test_attack_rejected_once_calibrated(self, result):
        attacked_weeks = [w for w in result.ticks if w.attack_sent > 0]
        assert attacked_weeks
        for outcome in attacked_weeks:
            assert outcome.attack_rejected == outcome.attack_sent
            assert outcome.attack_trained == 0

    def test_filter_stays_healthy(self, result):
        assert result.ticks[-1].confusion.ham_misclassified_rate < 0.1

    def test_no_legitimate_mail_rejected(self, result):
        assert sum(w.legitimate_rejected for w in result.ticks) == 0

    def test_training_set_grows_by_legitimate_mail_only(self, result):
        sizes = [w.trained_messages for w in result.ticks]
        assert sizes == [80 * week for week in range(1, 6)]


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = StreamRunner(quick_spec()).run()
        b = StreamRunner(quick_spec()).run()
        assert [w.confusion.as_dict() for w in a.ticks] == [
            w.confusion.as_dict() for w in b.ticks
        ]

    def test_second_seed_is_reproducible(self):
        # A second root seed: determinism is structural, not one lucky draw.
        spec = quick_spec(ticks=3, seed=404)
        assert outcome_fields(StreamRunner(spec).run()) == outcome_fields(
            StreamRunner(spec).run()
        )
