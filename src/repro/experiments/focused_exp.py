"""Figures 2 and 3: the focused attack.

Protocol (Section 4.3): sample a clean inbox (paper: 5,000 messages,
50% spam) and train on it; pick target ham emails *not* in the inbox;
send attack emails built from per-token guesses of each target; retrain
with the attack included; classify the target.

Figure 2 varies the attacker's knowledge — the per-token guess
probability p ∈ {0.1, 0.3, 0.5, 0.9} with a fixed number of attack
emails — and reports the fraction of targets landing in each of
ham/unsure/spam.  Figure 3 fixes p = 0.5 and sweeps the number of
attack emails, reporting the fraction of targets misclassified as spam
and as unsure-or-spam.

Implementation notes: the experiment fans out through
:class:`repro.engine.runner.ParallelRunner` in two stages, both
bit-identical at any worker count:

1. *preparation* — each repetition (inbox sample + trained classifier
   + target pool) is one task; repetitions always had decorrelated
   labelled seed streams, so they parallelize as-is;
2. *evaluation* — each (repetition, target) is one task.  Attack
   batches are generated in the parent first, because all cells share
   one sequential attack rng stream; workers then layer each batch
   onto the repetition's classifier under a
   :meth:`Classifier.snapshot`, classify the target, and
   :meth:`~Classifier.restore` — the snapshotted state is exactly what
   the historical learn/unlearn pairing produced.

This module holds the experiment's definition — configs, results, and
the picklable worker functions the fan-out ships — while the
orchestration runs as the ``figure2-focused-knowledge`` /
``figure3-focused-size`` scenarios
(:mod:`repro.scenarios.protocols`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.base import AttackBatch
from repro.corpus.dataset import LabeledMessage, train_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.engine.sweep import IncrementalAttackTrainer
from repro.errors import ExperimentError
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.filter import Label
from repro.spambayes.message import Email
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS

__all__ = [
    "FocusedExperimentConfig",
    "FocusedKnowledgeResult",
    "FocusedSizeResult",
]

PAPER_GUESS_PROBABILITIES = (0.1, 0.3, 0.5, 0.9)


@dataclass(frozen=True)
class FocusedExperimentConfig:
    """Sizes and knobs for the focused-attack experiments.

    Defaults are 1/5-scale (inbox 1,000, 60 attack emails — the same
    6% contamination as the paper's 300-of-5,000); :meth:`paper_scale`
    restores Section 4.3 exactly.
    """

    inbox_size: int = 1_000
    spam_prevalence: float = 0.50
    n_targets: int = 10
    repetitions: int = 2
    attack_count: int = 60
    guess_probabilities: Sequence[float] = PAPER_GUESS_PROBABILITIES
    size_sweep_fractions: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10)
    size_sweep_guess_probability: float = 0.5
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 700
    corpus_spam: int = 700
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes for repetition/target fan-out (results
    identical at any value)."""

    def __post_init__(self) -> None:
        if self.n_targets < 1 or self.repetitions < 1:
            raise ExperimentError("need at least one target and one repetition")
        needed_ham = round(self.inbox_size * (1.0 - self.spam_prevalence)) + self.n_targets
        if self.corpus_ham < needed_ham:
            raise ExperimentError(
                f"corpus_ham={self.corpus_ham} too small: inbox + targets need {needed_ham}"
            )

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "FocusedExperimentConfig":
        """Section 4.3 exactly: 5,000-message inbox, 300 attack emails,
        20 targets, 5 repetitions."""
        from repro.corpus.vocabulary import PAPER_PROFILE

        return cls(
            inbox_size=5_000,
            n_targets=20,
            repetitions=5,
            attack_count=300,
            profile=PAPER_PROFILE,
            corpus_ham=3_100,
            corpus_spam=3_100,
            seed=seed,
            workers=workers,
        )


@dataclass
class _Repetition:
    """One repetition's trained inbox state and target pool.

    Targets are corpus handles (a generated corpus pickles as its
    seed).  The header pool is eager emails on purpose: at the defaults,
    the attack's header draws touch almost all of it.
    """

    classifier: Classifier
    targets: list[LabeledMessage]
    header_pool: list[Email]


@dataclass(frozen=True)
class _PrepareContext:
    """Worker context for the repetition-preparation stage."""

    corpus: TrecStyleCorpus
    config: FocusedExperimentConfig
    spawner_seed: int


def _prepare_one_repetition(context: _PrepareContext, rep: int) -> _Repetition:
    config = context.config
    rep_rng = SeedSpawner(context.spawner_seed).rng(f"rep[{rep}]")
    inbox = context.corpus.dataset.sample_inbox(
        config.inbox_size, config.spam_prevalence, rep_rng
    )
    inbox_ids = {message.msgid for message in inbox}
    candidates = [m for m in context.corpus.dataset.ham if m.msgid not in inbox_ids]
    if len(candidates) < config.n_targets:
        raise ExperimentError(
            f"only {len(candidates)} ham outside the inbox; need {config.n_targets} targets"
        )
    targets = rep_rng.sample(candidates, config.n_targets)
    classifier = create_classifier(config.options)
    train_grouped(classifier, inbox)
    header_pool = [message.email for message in inbox.spam]
    return _Repetition(classifier, targets, header_pool)


def _label_of_ids(classifier: Classifier, target_ids) -> Label:
    score = classifier.score_ids(target_ids)
    if score <= classifier.options.ham_cutoff:
        return Label.HAM
    if score <= classifier.options.spam_cutoff:
        return Label.UNSURE
    return Label.SPAM


@dataclass(frozen=True)
class _EvalContext:
    """Worker context for the cell-evaluation stage.

    Each repetition's classifier carries its interning table; the
    tasks' ``target_ids`` were encoded against those tables in the
    parent *before* this context was built, so the IDs are valid in
    every worker (tables are append-only — attack batches trained
    worker-side only ever extend them).
    """

    classifiers: tuple[Classifier, ...]
    counts: tuple[int, ...] = ()


@dataclass(frozen=True)
class _KnowledgeTask:
    """One (repetition, target): its batches, one per guess probability."""

    rep_index: int
    target_ids: "array"
    batches: tuple[AttackBatch, ...]


def _run_knowledge_cell(context: _EvalContext, task: _KnowledgeTask) -> tuple[bool, list[str]]:
    classifier = context.classifiers[task.rep_index]
    pre_attack_ham = _label_of_ids(classifier, task.target_ids) is Label.HAM
    labels: list[str] = []
    for batch in task.batches:
        snap = classifier.snapshot()
        try:
            # ID-native: the batch encodes once against the repetition
            # classifier's table and trains as ID arrays.
            batch.train_into_ids(classifier)
            labels.append(_label_of_ids(classifier, task.target_ids).value)
        finally:
            classifier.restore(snap)
    return pre_attack_ham, labels


@dataclass(frozen=True)
class _SizeTask:
    """One (repetition, target): the full-size batch, swept ascending."""

    rep_index: int
    target_ids: "array"
    batch: AttackBatch


def _run_size_cell(context: _EvalContext, task: _SizeTask) -> list[str]:
    classifier = context.classifiers[task.rep_index]
    snap = classifier.snapshot()
    try:
        trainer = IncrementalAttackTrainer(classifier, task.batch)
        labels: list[str] = []
        for count in context.counts:
            trainer.advance_to(count)
            labels.append(_label_of_ids(classifier, task.target_ids).value)
        return labels
    finally:
        classifier.restore(snap)


@dataclass
class FocusedKnowledgeResult:
    """Figure 2: post-attack target label mix per guess probability."""

    config: FocusedExperimentConfig
    label_counts: dict[float, dict[str, int]] = field(default_factory=dict)
    pre_attack_ham: int = 0
    total_targets: int = 0

    def fractions(self, probability: float) -> dict[str, float]:
        counts = self.label_counts[probability]
        total = sum(counts.values())
        return {label: count / total for label, count in counts.items()} if total else {}

    def attack_success_rate(self, probability: float) -> float:
        """Fraction of targets no longer classified as ham."""
        fracs = self.fractions(probability)
        return fracs.get("unsure", 0.0) + fracs.get("spam", 0.0)

    def to_record(self) -> ExperimentRecord:
        series = [
            Series(
                name=label,
                points=[
                    CurvePoint(
                        x=p,
                        ham_as_spam_rate=self.fractions(p).get("spam", 0.0),
                        ham_misclassified_rate=self.attack_success_rate(p),
                    )
                    for p in sorted(self.label_counts)
                ],
            )
            for label in ("ham", "unsure", "spam")
        ]
        return ExperimentRecord(
            experiment="figure2-focused-knowledge",
            config={
                "inbox_size": self.config.inbox_size,
                "attack_count": self.config.attack_count,
                "n_targets": self.config.n_targets,
                "repetitions": self.config.repetitions,
                "seed": self.config.seed,
            },
            series=series,
            extras={
                "label_counts": {str(p): c for p, c in self.label_counts.items()},
                "pre_attack_ham": self.pre_attack_ham,
                "total_targets": self.total_targets,
            },
        )


@dataclass
class FocusedSizeResult:
    """Figure 3: target misclassification vs number of attack emails."""

    config: FocusedExperimentConfig
    points: list[CurvePoint] = field(default_factory=list)

    def to_record(self) -> ExperimentRecord:
        return ExperimentRecord(
            experiment="figure3-focused-size",
            config={
                "inbox_size": self.config.inbox_size,
                "guess_probability": self.config.size_sweep_guess_probability,
                "n_targets": self.config.n_targets,
                "repetitions": self.config.repetitions,
                "seed": self.config.seed,
            },
            series=[Series(name="target", points=self.points)],
        )
