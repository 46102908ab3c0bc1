"""Figure 5: the dynamic threshold defense under dictionary attack.

For each contamination level the experiment compares three filters
that share *exactly the same trained state* (the poisoned token
counts) and differ only in thresholds:

* *no-defense* — the static θ0 = 0.15, θ1 = 0.9;
* *threshold-.05* — θ fitted with the g-quantile 0.05 (wide unsure);
* *threshold-.10* — θ fitted with the g-quantile 0.10 (narrower).

Reported per level: ham-as-spam and ham-as-(spam-or-unsure) on held-out
test folds (the figure's dashed/solid lines), plus spam-as-unsure —
the defense's cost, which the paper calls out in its closing paragraph
(nearly all spam lands in unsure even at 1% contamination).

The threshold fit sees what a deployed defense would see: the poisoned
training set, attack messages included and labeled spam.

Folds run through :class:`repro.engine.runner.ParallelRunner`: each
fold is one task carrying its index lists plus a pre-drawn block of
seeds (one for the attack batch, one per fraction × quantile for the
threshold fits) replaying the sequential rng draw order, so
``workers=N`` reproduces ``workers=1`` bit for bit.  Fold classifiers
are derived from a shared full-inbox model by snapshot/unlearn/restore
rather than retrained.

This module holds the experiment's definition (config, result, the
picklable fold worker); orchestration runs as the
``figure5-threshold`` scenario — and, with a one-line attack-variant
override, as cross-products like ``aspell-vs-threshold``
(:mod:`repro.scenarios.protocols`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.base import Attack
from repro.corpus.dataset import Dataset, unlearn_grouped
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.defenses.threshold import DynamicThresholdConfig, DynamicThresholdDefense
from repro.engine.sweep import IncrementalAttackTrainer, tally_scores
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.tokenizer import Tokenizer

__all__ = [
    "ThresholdExperimentConfig",
    "ThresholdExperimentResult",
]

PAPER_FRACTIONS = (0.0, 0.001, 0.01, 0.05, 0.10)


@dataclass(frozen=True)
class ThresholdExperimentConfig:
    """Sizes and knobs for a Figure 5 run (defaults are 1/10 scale)."""

    inbox_size: int = 1_000
    spam_prevalence: float = 0.50
    folds: int = 3
    attack_fractions: Sequence[float] = PAPER_FRACTIONS
    attack_variant: str = "usenet"
    quantiles: Sequence[float] = (0.05, 0.10)
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 700
    corpus_spam: int = 700
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes for the fold fan-out (results identical at any
    value)."""

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "ThresholdExperimentConfig":
        """Table 1: 10,000-message inbox, 5 folds."""
        from repro.corpus.vocabulary import PAPER_PROFILE

        return cls(
            inbox_size=10_000,
            folds=5,
            profile=PAPER_PROFILE,
            corpus_ham=6_000,
            corpus_spam=6_000,
            seed=seed,
            workers=workers,
        )


@dataclass
class ThresholdExperimentResult:
    """One series per defense arm ("no-defense", "threshold-0.05", ...)."""

    config: ThresholdExperimentConfig
    series: dict[str, list[CurvePoint]] = field(default_factory=dict)
    fitted_thresholds: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    """Per arm: (fraction, θ0, θ1) fits averaged over folds."""

    def to_record(self) -> ExperimentRecord:
        return ExperimentRecord(
            experiment="figure5-threshold-defense",
            config={
                "inbox_size": self.config.inbox_size,
                "folds": self.config.folds,
                "attack_variant": self.config.attack_variant,
                "quantiles": list(self.config.quantiles),
                "seed": self.config.seed,
            },
            series=[Series(name=name, points=points) for name, points in self.series.items()],
            extras={"fitted_thresholds": self.fitted_thresholds},
        )


@dataclass(frozen=True)
class _FoldTask:
    """One fold's work: index lists plus the pre-drawn seed block.

    ``seeds[0]`` feeds the attack batch; the rest feed the threshold
    fits in (fraction-major, quantile-minor) order — exactly the draw
    order of the sequential loop.
    """

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class _FoldContext:
    """Read-only worker context for the threshold fold tasks."""

    inbox: Dataset
    attack: Attack
    counts: tuple[int, ...]
    quantiles: tuple[float, ...]
    options: ClassifierOptions
    tokenizer: Tokenizer
    full_model: Classifier


def _run_threshold_fold(
    context: _FoldContext, task: _FoldTask
) -> tuple[list[ConfusionCounts], list[list[tuple[float, float, ConfusionCounts]]]]:
    """One fold: static-threshold confusions per fraction, plus per
    fraction × quantile the fitted (θ0, θ1) and its confusion."""
    inbox = context.inbox
    test_set = [inbox[i] for i in task.test_indices]
    train_messages = [inbox[i] for i in task.train_indices]
    classifier = context.full_model
    snap = classifier.snapshot()
    try:
        unlearn_grouped(classifier, test_set, context.tokenizer)
        seeds = iter(task.seeds)
        batch = context.attack.generate(context.counts[-1], random.Random(next(seeds)))
        trainer = IncrementalAttackTrainer(classifier, batch)
        attack_messages = attack_messages_as_dataset(batch)
        test_rows = [m.token_ids(classifier.table, context.tokenizer) for m in test_set]
        test_labels = [m.is_spam for m in test_set]
        static_cutoffs = (classifier.options.ham_cutoff, classifier.options.spam_cutoff)
        static_arm: list[ConfusionCounts] = []
        fitted_arms: list[list[tuple[float, float, ConfusionCounts]]] = []
        for count in context.counts:
            trainer.advance_to(count)
            # One scoring pass per contamination level: the static and
            # every fitted (θ0, θ1) pair share this trained state.
            scores = classifier.score_many_ids(test_rows)
            static_arm.append(tally_scores(test_labels, scores, static_cutoffs))
            poisoned = Dataset(
                train_messages + attack_messages[:count],
                name="poisoned-training",
            )
            per_quantile: list[tuple[float, float, ConfusionCounts]] = []
            for quantile in context.quantiles:
                defense = DynamicThresholdDefense(
                    config=DynamicThresholdConfig(quantile=quantile),
                    options=context.options,
                )
                # The fit shares the fold model's table, which already
                # holds the inbox and the whole attack batch: the fit
                # interns nothing and reuses the inbox's ID arrays.
                fit = defense.fit(
                    poisoned, random.Random(next(seeds)), table=classifier.table
                )
                cutoffs = (fit.ham_cutoff, fit.spam_cutoff)
                per_quantile.append((*cutoffs, tally_scores(test_labels, scores, cutoffs)))
            fitted_arms.append(per_quantile)
        return static_arm, fitted_arms
    finally:
        classifier.restore(snap)
