"""Figure 1: dictionary attacks vs percent control of the training set.

Protocol (Section 4.2): an N-message inbox at a given spam prevalence,
K-fold cross-validation, and for each attack variant a sweep over
contamination fractions.  Reported per fraction: percent of test ham
classified as spam (dashed lines in the figure) and as spam-or-unsure
(solid lines), pooled over folds.

Variants, in the paper's legend order: *optimal* (every token the
victim can see), *usenet* (top-k Usenet words), *aspell* (the English
dictionary).  The K-fold sweep itself is
:func:`repro.engine.sweep.run_attack_sweeps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.plots import ascii_line_chart
from repro.attacks.variants import build_attack_variants
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE, VocabularyProfile
from repro.engine.sweep import AttackSweepPoint, SweepSpec, run_attack_sweeps
from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.scenarios.protocols import prepare_inbox
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS

__all__ = [
    "DictionaryExperimentConfig",
    "DictionaryExperimentResult",
    "render_dictionary_result",
    "run_dictionary_sweep",
]

PAPER_FRACTIONS = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10)
"""Table 1's dictionary-attack fractions, plus the clean baseline."""


@dataclass(frozen=True)
class DictionaryExperimentConfig:
    """Sizes and knobs for a Figure 1 run.

    The defaults are a laptop-scale rendition (inbox 1,000, 3 folds,
    1/10-scale vocabulary); :meth:`paper_scale` restores Table 1.
    """

    inbox_size: int = 1_000
    spam_prevalence: float = 0.50
    folds: int = 3
    attack_fractions: Sequence[float] = PAPER_FRACTIONS
    variants: Sequence[str] = ("optimal", "usenet", "aspell")
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 700
    corpus_spam: int = 700
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes for the fold fan-out (1 = sequential; results
    are identical at any value)."""

    def __post_init__(self) -> None:
        if self.inbox_size < self.folds:
            raise ExperimentError("inbox_size must be >= folds")
        needed_ham = round(self.inbox_size * (1.0 - self.spam_prevalence))
        needed_spam = round(self.inbox_size * self.spam_prevalence)
        if self.corpus_ham < needed_ham or self.corpus_spam < needed_spam:
            raise ExperimentError(
                "corpus too small for the requested inbox: needs "
                f"{needed_ham} ham / {needed_spam} spam, corpus has "
                f"{self.corpus_ham} / {self.corpus_spam}"
            )

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "DictionaryExperimentConfig":
        """Table 1's large configuration: 10,000-message inbox, 10 folds."""
        return cls(
            inbox_size=10_000,
            spam_prevalence=0.50,
            folds=10,
            profile=PAPER_PROFILE,
            corpus_ham=6_000,
            corpus_spam=6_000,
            seed=seed,
            workers=workers,
        )


@dataclass
class DictionaryExperimentResult:
    """Sweep outcomes per attack variant, ready for reporting."""

    config: DictionaryExperimentConfig
    sweeps: dict[str, list[AttackSweepPoint]] = field(default_factory=dict)

    def to_record(self) -> ExperimentRecord:
        series = []
        for variant, points in self.sweeps.items():
            series.append(
                Series(
                    name=variant,
                    points=[
                        CurvePoint.from_confusion(point.attack_fraction, point.confusion)
                        for point in points
                    ],
                )
            )
        return ExperimentRecord(
            experiment="figure1-dictionary",
            config={
                "inbox_size": self.config.inbox_size,
                "spam_prevalence": self.config.spam_prevalence,
                "folds": self.config.folds,
                "attack_fractions": list(self.config.attack_fractions),
                "profile": self.config.profile.name,
                "seed": self.config.seed,
            },
            series=series,
        )


def run_dictionary_sweep(config: DictionaryExperimentConfig) -> DictionaryExperimentResult:
    """K-fold contamination sweep per attack variant, pooled over folds."""
    prepared = prepare_inbox(config, spawn_label="dictionary-experiment")
    attacks = build_attack_variants(prepared.corpus, config.variants, seed=config.seed)
    result = DictionaryExperimentResult(config=config)
    specs = [
        (
            SweepSpec(key=variant, attack=attack, fractions=tuple(config.attack_fractions)),
            prepared.spawner.rng(f"sweep:{variant}"),
        )
        for variant, attack in attacks.items()
    ]
    for sweep in run_attack_sweeps(
        prepared.inbox,
        specs,
        config.folds,
        options=config.options,
        workers=config.workers,
        table=prepared.table,
    ):
        result.sweeps[sweep.key] = sweep.points
    return result


def render_dictionary_result(result: DictionaryExperimentResult) -> str:
    """Figure 1's table and chart."""
    headers = ["variant", "attack %", "messages", "ham-as-spam", "ham-as-spam|unsure"]
    rows = []
    chart_series: dict[str, list[tuple[float, float]]] = {}
    for variant, points in result.sweeps.items():
        for point in points:
            rows.append(
                [
                    variant,
                    f"{point.attack_fraction:.1%}",
                    point.attack_message_count,
                    f"{point.confusion.ham_as_spam_rate:.1%}",
                    f"{point.confusion.ham_misclassified_rate:.1%}",
                ]
            )
        chart_series[f"{variant} (solid)"] = [
            (point.attack_fraction * 100, point.confusion.ham_misclassified_rate)
            for point in points
        ]
    chart = ascii_line_chart(
        chart_series,
        title="Figure 1: percent of test ham misclassified vs percent control",
        x_label="percent control of training set",
        y_label="fraction of test ham misclassified",
    )
    return format_table(headers, rows) + "\n\n" + chart
