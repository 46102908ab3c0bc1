"""Pluggable per-tick defenses for the streaming engine.

Each tick of a stream hands its arrivals (legitimate mail plus that
tick's attack batch, already labeled as the contamination assumption
dictates) to a :class:`TickDefense` before anything is trained.  A
defense has two hooks:

* :meth:`TickDefense.gate` — decide, message by message, what enters
  this tick's retrain.  This is where the RONI gate lives: recalibrate
  on previously *accepted* mail, then judge every arrival in one batch.
* :meth:`TickDefense.cutoffs` — after the retrain, optionally refit
  the decision thresholds on the (possibly poisoned) training mail
  accumulated so far.  This is where the Section 5.2 dynamic
  threshold defense lives; gate-style defenses return ``None`` and
  the static (θ0, θ1) apply.

The RONI gate's draws are fixed: the calibration subsample and the
:class:`~repro.defenses.roni.RoniDefense` resamples consume the tick's
rng in one order, and arrivals are judged legitimate-first; the
``stream-*-vs-roni`` goldens pin the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from repro.corpus.dataset import Dataset, LabeledMessage
from repro.defenses.roni import RoniDefense
from repro.defenses.threshold import (
    DynamicThresholdConfig,
    DynamicThresholdDefense,
    ThresholdFit,
)
from repro.errors import ExperimentError

if TYPE_CHECKING:
    from repro.spambayes.token_table import TokenTable
    from repro.stream.spec import StreamSpec

__all__ = ["GateDecision", "TickDefense", "build_tick_defense"]


@dataclass
class GateDecision:
    """What a tick's gate let through, and what it cost.

    ``accepted_legitimate`` joins the defense's calibration history;
    ``trained_attack`` is the attack mail that slipped through (the
    runner tracks it cumulatively; the clean twin trains without it).
    The retrain batch is the concatenation, in gate order: legitimate
    arrivals first, then surviving attack mail.
    """

    accepted_legitimate: list[LabeledMessage] = field(default_factory=list)
    trained_attack: list[LabeledMessage] = field(default_factory=list)
    attack_rejected: int = 0
    legitimate_rejected: int = 0

    @property
    def to_train(self) -> list[LabeledMessage]:
        return self.accepted_legitimate + self.trained_attack

    @property
    def attack_trained(self) -> int:
        return len(self.trained_attack)


class TickDefense:
    """Base: accept everything, keep the static thresholds.

    Also the concrete ``"none"`` defense — and the fallback behaviour
    subclasses inherit for ticks where they cannot act yet (RONI
    before enough accepted history exists).
    """

    def __init__(self, spec: "StreamSpec", table: "TokenTable") -> None:
        self.spec = spec
        self.table = table

    def gate(
        self,
        tick: int,
        arrivals: Sequence[LabeledMessage],
        attack_arrivals: Sequence[LabeledMessage],
        accepted_history: Sequence[LabeledMessage],
        tick_rng: random.Random,
    ) -> GateDecision:
        return GateDecision(
            accepted_legitimate=list(arrivals),
            trained_attack=list(attack_arrivals),
        )

    def cutoffs(
        self,
        trained_history: Sequence[LabeledMessage],
        tick_rng: random.Random,
    ) -> ThresholdFit | None:
        return None


class RoniTickDefense(TickDefense):
    """The RONI gate, recalibrated every tick on accepted mail.

    Until the accepted history can seat one ``train_size +
    validation_size`` resample the gate is open (the warm-up
    behaviour); from then on each tick subsamples
    ``roni_calibration_size`` accepted messages with the tick's rng,
    builds a fresh :class:`RoniDefense` over them, and judges every
    arrival in one :meth:`RoniDefense.measure_many` batch — legitimate
    mail first, then the attack batch.
    """

    def gate(
        self,
        tick: int,
        arrivals: Sequence[LabeledMessage],
        attack_arrivals: Sequence[LabeledMessage],
        accepted_history: Sequence[LabeledMessage],
        tick_rng: random.Random,
    ) -> GateDecision:
        config = self.spec.roni
        if len(accepted_history) < config.train_size + config.validation_size:
            # Not enough history to calibrate a gate yet.
            return super().gate(tick, arrivals, attack_arrivals, accepted_history, tick_rng)
        calibration_pool = Dataset(
            list(accepted_history), name=f"accepted-through-tick{tick - 1}"
        )
        sample_size = min(self.spec.roni_calibration_size, len(calibration_pool))
        pool = calibration_pool.subset(
            tick_rng.sample(range(len(calibration_pool)), sample_size)
        )
        # The stream's shared interning table rides along, so calibration
        # mail encoded in earlier ticks is not re-encoded here (scores
        # are table-layout-independent: this changes nothing but speed).
        defense = RoniDefense(
            pool,
            tick_rng,
            config=config,
            options=self.spec.options,
            table=self.table,
        )
        # One batch, legitimate mail first: the same encode order as
        # judging message by message, so the table layout is unchanged.
        rejected = [
            defense._verdict(measurement).rejected
            for measurement in defense.measure_many(list(arrivals) + list(attack_arrivals))
        ]
        decision = GateDecision()
        for message, is_rejected in zip(arrivals, rejected):
            if is_rejected:
                decision.legitimate_rejected += 1
            else:
                decision.accepted_legitimate.append(message)
        for message, is_rejected in zip(attack_arrivals, rejected[len(arrivals) :]):
            if is_rejected:
                decision.attack_rejected += 1
            else:
                decision.trained_attack.append(message)
        return decision


class ThresholdTickDefense(TickDefense):
    """Section 5.2's dynamic thresholds, refitted after every retrain.

    The gate is open (distribution-shift defenses train on everything,
    attack mail included); after the tick's retrain the (θ0, θ1) pair
    is refitted on the full trained history — exactly what a deployed
    defense would see — and that tick's held-out evaluation runs under
    the fitted cutoffs.
    """

    def cutoffs(
        self,
        trained_history: Sequence[LabeledMessage],
        tick_rng: random.Random,
    ) -> ThresholdFit | None:
        defense = DynamicThresholdDefense(
            config=DynamicThresholdConfig(quantile=self.spec.threshold_quantile),
            options=self.spec.options,
        )
        # The trained history was encoded against the stream's table by
        # the retrain, so the fit shares it and interns nothing.
        return defense.fit(
            Dataset(list(trained_history), name="trained-history"),
            tick_rng,
            table=self.table,
        )


_DEFENSES = {
    "none": TickDefense,
    "roni": RoniTickDefense,
    "threshold": ThresholdTickDefense,
}


def build_tick_defense(spec: "StreamSpec", table: "TokenTable") -> TickDefense:
    """The spec's defense, instantiated over the stream's shared table."""
    try:
        factory = _DEFENSES[spec.defense]
    except KeyError:  # pragma: no cover - StreamSpec validates first
        raise ExperimentError(f"unknown defense {spec.defense!r}") from None
    return factory(spec, table)
