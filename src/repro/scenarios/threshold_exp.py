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
rather than retrained.  With a one-line attack-variant override the
same protocol runs cross-products such as ``aspell-vs-threshold``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.plots import ascii_line_chart
from repro.attacks.base import Attack
from repro.attacks.variants import build_attack_variants
from repro.corpus.dataset import Dataset, train_grouped, unlearn_grouped
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE, VocabularyProfile
from repro.defenses.threshold import DynamicThresholdConfig, DynamicThresholdDefense
from repro.engine.runner import ParallelRunner
from repro.engine.seeding import drawn_seeds
from repro.engine.sweep import IncrementalAttackTrainer, attack_message_count, tally_scores
from repro.errors import ExperimentError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.reporting import format_table
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.scenarios.protocols import prepare_inbox
from repro.spambayes.classifier import Classifier, ScoringWorkspace
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER, Tokenizer

__all__ = [
    "ThresholdExperimentConfig",
    "ThresholdExperimentResult",
    "render_threshold_result",
    "run_threshold_arms",
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
        test_workspace = ScoringWorkspace(
            m.token_ids(classifier.table, context.tokenizer) for m in test_set
        )
        test_labels = [m.is_spam for m in test_set]
        static_cutoffs = (classifier.options.ham_cutoff, classifier.options.spam_cutoff)
        static_arm: list[ConfusionCounts] = []
        fitted_arms: list[list[tuple[float, float, ConfusionCounts]]] = []
        for count in context.counts:
            trainer.advance_to(count)
            # One scoring pass per contamination level: the static and
            # every fitted (θ0, θ1) pair share this trained state.
            scores = classifier.score_workspace(test_workspace)
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


def run_threshold_arms(config: ThresholdExperimentConfig) -> ThresholdExperimentResult:
    """Dictionary contamination sweep under the threshold defense arms."""
    fractions = list(config.attack_fractions)
    if fractions != sorted(fractions):
        raise ExperimentError("attack_fractions must be ascending")
    prepared = prepare_inbox(config, spawn_label="threshold-experiment")
    attack = build_attack_variants(
        prepared.corpus, (config.attack_variant,), seed=config.seed
    )[config.attack_variant]
    counts = [attack_message_count(config.inbox_size, f) for f in fractions]
    quantiles = tuple(config.quantiles)
    arms = ["no-defense"] + [f"threshold-{q:.2f}" for q in quantiles]

    # Plan fold tasks, replaying the sequential draw order on the fold
    # rng: the k-fold shuffle, then per fold one batch seed followed by
    # one fit seed per fraction × quantile.
    fold_rng = prepared.spawner.rng("folds")
    pairs = prepared.inbox.k_fold_indices(config.folds, fold_rng)
    seeds_per_fold = 1 + len(fractions) * len(quantiles)
    tasks = [
        _FoldTask(
            tuple(train_idx), tuple(test_idx), tuple(drawn_seeds(fold_rng, seeds_per_fold))
        )
        for train_idx, test_idx in pairs
    ]
    # The inbox's shared table: the full model's count columns, the
    # pre-encoded message arrays and every fold worker all index by it.
    full_model = create_classifier(config.options, table=prepared.table)
    train_grouped(full_model, prepared.inbox)
    context = _FoldContext(
        inbox=prepared.inbox,
        attack=attack,
        counts=tuple(counts),
        quantiles=quantiles,
        options=config.options,
        tokenizer=DEFAULT_TOKENIZER,
        full_model=full_model,
    )
    fold_outcomes = ParallelRunner(config.workers).map(_run_threshold_fold, context, tasks)

    result = ThresholdExperimentResult(config=config)
    accumulators: dict[str, list[ConfusionCounts]] = {
        arm: [ConfusionCounts() for _ in fractions] for arm in arms
    }
    threshold_fits: dict[str, list[list[tuple[float, float]]]] = {
        arm: [[] for _ in fractions] for arm in arms[1:]
    }
    for static_arm, fitted_arms in fold_outcomes:
        for index, confusion in enumerate(static_arm):
            accumulators["no-defense"][index].merge(confusion)
        for index, per_quantile in enumerate(fitted_arms):
            for quantile, (theta0, theta1, confusion) in zip(quantiles, per_quantile):
                arm = f"threshold-{quantile:.2f}"
                threshold_fits[arm][index].append((theta0, theta1))
                accumulators[arm][index].merge(confusion)
    for arm in arms:
        result.series[arm] = [
            CurvePoint.from_confusion(fraction, confusion)
            for fraction, confusion in zip(fractions, accumulators[arm])
        ]
    for arm, fits_per_fraction in threshold_fits.items():
        result.fitted_thresholds[arm] = [
            (
                fraction,
                sum(theta0 for theta0, _ in fits) / len(fits),
                sum(theta1 for _, theta1 in fits) / len(fits),
            )
            for fraction, fits in zip(fractions, fits_per_fraction)
        ]
    return result


def render_threshold_result(result: ThresholdExperimentResult) -> str:
    """Figure 5's table and chart."""
    headers = [
        "arm",
        "attack %",
        "ham-as-spam",
        "ham-as-spam|unsure",
        "spam-as-unsure",
    ]
    rows = []
    chart_series: dict[str, list[tuple[float, float]]] = {}
    for arm, points in result.series.items():
        for point in points:
            rows.append(
                [
                    arm,
                    f"{point.x:.1%}",
                    f"{point.ham_as_spam_rate:.1%}",
                    f"{point.ham_misclassified_rate:.1%}",
                    f"{point.spam_as_unsure_rate:.1%}",
                ]
            )
        chart_series[arm] = [(p.x * 100, p.ham_misclassified_rate) for p in points]
    chart = ascii_line_chart(
        chart_series,
        title="Figure 5: ham misclassified (spam|unsure) vs percent control",
        x_label="percent control of training set",
        y_label="fraction of test ham misclassified",
    )
    fits = "\n".join(
        f"  {arm}: " + "  ".join(f"f={f:.3f}: θ=({t0:.3f},{t1:.3f})" for f, t0, t1 in triples)
        for arm, triples in result.fitted_thresholds.items()
    )
    return format_table(headers, rows) + "\n\n" + chart + "\n\nfitted thresholds:\n" + fits
