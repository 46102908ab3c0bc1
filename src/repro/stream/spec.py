"""The declarative mailstream specification.

A :class:`StreamSpec` describes a *time-ordered* deployment of the
Section 2.1 threat model as pure data: how many ticks (weeks) the
stream runs, how much legitimate ham/spam arrives per tick, when the
attacker starts mailing and on what ramp-up schedule, and which
per-tick defense screens arrivals before the periodic retrain.  Like
the experiment configs, a spec is a frozen dataclass with ``seed`` and
``workers`` fields, so it slots straight into the scenario registry
(``config_type=StreamSpec``) and the multi-seed replication engine.

Ramp-up schedules
-----------------

``attack_per_tick`` is the schedule's *peak* rate; ``ramp`` shapes how
the attacker approaches it from ``attack_start_tick``:

``constant``
    ``attack_per_tick`` messages every tick from the start tick on —
    the paper's weekly retraining shape.
``linear``
    Ramp from ``attack_per_tick / ramp_ticks`` up to the peak over
    ``ramp_ticks`` ticks, then hold — a cautious attacker growing the
    campaign under the defender's radar.
``burst``
    The whole budget at once: ``attack_per_tick * ramp_ticks``
    messages in the start tick, nothing before or after — the same
    total mail as ``constant`` over a ``ramp_ticks``-long campaign,
    compressed into one retraining period.

:meth:`StreamSpec.tick_attack_counts` materializes the schedule as one
count per tick; everything downstream (the runner, the defenses, the
tests) consumes that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.defenses.roni import RoniConfig
from repro.errors import ExperimentError
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS

__all__ = ["RAMPS", "DEFENSES", "StreamSpec"]

RAMPS: tuple[str, ...] = ("constant", "linear", "burst")
"""The attack ramp-up schedules :class:`StreamSpec` understands."""

DEFENSES: tuple[str, ...] = ("none", "roni", "threshold")
"""The per-tick defenses :class:`StreamSpec` understands."""


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one time-ordered attack scenario.

    Defaults are eight weekly retrains of 60+60 legitimate messages
    with a constant 12-message/tick usenet dictionary attack from tick
    4, undefended, so ``StreamSpec()`` is the familiar Section 2.1
    deployment.
    """

    ticks: int = 8
    ham_per_tick: int = 60
    spam_per_tick: int = 60
    attack_start_tick: int = 4
    attack_per_tick: int = 12
    """Peak attack messages per tick (see ``ramp``)."""
    attack_variant: str = "usenet"
    ramp: str = "constant"
    ramp_ticks: int = 1
    """Ramp length for ``linear``; campaign length compressed into the
    burst for ``burst``; ignored by ``constant``."""
    defense: str = "none"
    """"none", "roni" (gate recalibrated on accepted mail) or
    "threshold" (per-tick refitted cutoffs)."""
    roni: RoniConfig = RoniConfig()
    roni_calibration_size: int = 120
    threshold_quantile: float = 0.10
    measure_clean: bool = False
    """Also record, per tick, the counterfactual confusion of a clean
    twin: a second classifier trained on exactly the accepted
    non-attack arrivals, i.e. the main classifier with every trained
    attack message removed."""
    test_size: int = 200
    profile: VocabularyProfile = SMALL_PROFILE
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes; a lone stream is inherently sequential, but
    under ``replicate_scenario`` each replica's whole stream runs in
    its own worker process (results identical at any value)."""
    profile_phases: bool = False
    """Collect per-tick phase timings (train / defense / eval /
    counterfactual) into ``StreamResult.phase_profile``.  Pure
    observation: timings never enter the serialized record (like
    ``workers``, they are excluded from ``to_record()``), so profiled
    and unprofiled runs stay byte-identical.  ``repro run-scenario
    <stream-*> --profile`` sets this."""

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ExperimentError("need at least one tick")
        if self.ham_per_tick < 0 or self.spam_per_tick < 0:
            raise ExperimentError("per-tick arrival counts must be >= 0")
        if self.attack_start_tick < 1:
            raise ExperimentError("attack_start_tick must be >= 1")
        if self.attack_per_tick < 0:
            raise ExperimentError("attack_per_tick must be >= 0")
        if self.ramp not in RAMPS:
            raise ExperimentError(
                f"unknown ramp {self.ramp!r}; known: {', '.join(RAMPS)}"
            )
        if self.ramp_ticks < 1:
            raise ExperimentError("ramp_ticks must be >= 1")
        if self.defense not in DEFENSES:
            raise ExperimentError(
                f"unknown defense {self.defense!r}; known: {', '.join(DEFENSES)}"
            )
        if self.test_size < 2:
            raise ExperimentError("test_size must be >= 2 (half ham, half spam)")
        if self.defense == "roni":
            needed = self.roni.train_size + self.roni.validation_size
            if self.roni_calibration_size < needed:
                raise ExperimentError(
                    f"roni_calibration_size={self.roni_calibration_size} cannot "
                    f"seat a {self.roni.train_size}+{self.roni.validation_size} "
                    "RONI resample"
                )
        if self.defense == "threshold" and (
            self.ham_per_tick == 0 or self.spam_per_tick == 0
        ):
            raise ExperimentError(
                "threshold defense needs both ham and spam arriving every tick"
            )

    # ------------------------------------------------------------------
    # The arrival schedule
    # ------------------------------------------------------------------

    def attack_count_at(self, tick: int) -> int:
        """Attack messages arriving at ``tick`` (1-based) under the ramp."""
        if tick < self.attack_start_tick or self.attack_per_tick == 0:
            return 0
        if self.ramp == "constant":
            return self.attack_per_tick
        if self.ramp == "linear":
            progress = min(1.0, (tick - self.attack_start_tick + 1) / self.ramp_ticks)
            return round(self.attack_per_tick * progress)
        # burst: the whole campaign budget lands in the start tick.
        return self.attack_per_tick * self.ramp_ticks if tick == self.attack_start_tick else 0

    def tick_attack_counts(self) -> tuple[int, ...]:
        """The materialized schedule: one attack count per tick, 1-based."""
        return tuple(self.attack_count_at(tick) for tick in range(1, self.ticks + 1))
