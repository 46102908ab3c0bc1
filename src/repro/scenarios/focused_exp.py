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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.plots import ascii_bar_chart, ascii_line_chart
from repro.attacks.base import AttackBatch
from repro.attacks.focused import FocusedAttack
from repro.corpus.dataset import LabeledMessage, train_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE, VocabularyProfile
from repro.engine.runner import ParallelRunner
from repro.engine.sweep import IncrementalAttackTrainer, attack_message_count
from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import Label
from repro.spambayes.message import Email
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER

__all__ = [
    "FocusedExperimentConfig",
    "FocusedKnowledgeResult",
    "FocusedSizeResult",
    "render_focused_knowledge_result",
    "render_focused_size_result",
    "run_focused_knowledge",
    "run_focused_size",
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


def _prepare_repetitions(config: FocusedExperimentConfig) -> list[_Repetition]:
    """The focused protocol's preparation stage.

    Unlike the pool-based protocols, each repetition samples its own
    inbox and trains its own classifier — so preparation is itself a
    fan-out (one task per repetition, each with its labelled seed
    stream).
    """
    spawner = SeedSpawner(config.seed).spawn("focused-experiment")
    corpus = TrecStyleCorpus.generate(
        n_ham=config.corpus_ham,
        n_spam=config.corpus_spam,
        profile=config.profile,
        seed=spawner.child_seed("corpus"),
    )
    context = _PrepareContext(corpus, config, spawner.seed)
    return ParallelRunner(config.workers).map(
        _prepare_one_repetition, context, list(range(config.repetitions))
    )


def _encode_target(email: Email, table: TokenTable) -> array:
    """A target email's ID row, interned after its attacks were built."""
    return table.encode_unique(DEFAULT_TOKENIZER.tokenize(email))


def run_focused_knowledge(config: FocusedExperimentConfig) -> FocusedKnowledgeResult:
    """Figure 2: post-attack target label mix per guess probability."""
    repetitions = _prepare_repetitions(config)
    attack_rng = SeedSpawner(config.seed).spawn("focused-knowledge").rng("attacks")
    # Batch generation consumes the one shared attack stream, so it
    # stays in the parent, in the historical rep -> target -> p order.
    tasks: list[_KnowledgeTask] = []
    for rep_index, repetition in enumerate(repetitions):
        for target in repetition.targets:
            email = target.email
            batches = []
            for probability in config.guess_probabilities:
                attack = FocusedAttack(
                    email,
                    guess_probability=probability,
                    header_pool=repetition.header_pool,
                )
                batches.append(attack.generate(config.attack_count, attack_rng))
            target_ids = _encode_target(email, repetition.classifier.table)
            tasks.append(_KnowledgeTask(rep_index, target_ids, tuple(batches)))
    context = _EvalContext(tuple(rep.classifier for rep in repetitions))
    outcomes = ParallelRunner(config.workers).map(_run_knowledge_cell, context, tasks)

    result = FocusedKnowledgeResult(config=config)
    for probability in config.guess_probabilities:
        result.label_counts[probability] = {"ham": 0, "unsure": 0, "spam": 0}
    for pre_attack_ham, labels in outcomes:
        result.total_targets += 1
        if pre_attack_ham:
            result.pre_attack_ham += 1
        for probability, label in zip(config.guess_probabilities, labels):
            result.label_counts[probability][label] += 1
    return result


def run_focused_size(config: FocusedExperimentConfig) -> FocusedSizeResult:
    """Figure 3: target misclassification vs number of attack emails."""
    fractions = list(config.size_sweep_fractions)
    if fractions != sorted(fractions):
        raise ExperimentError("size_sweep_fractions must be ascending")
    repetitions = _prepare_repetitions(config)
    attack_rng = SeedSpawner(config.seed).spawn("focused-size").rng("attacks")
    counts = [attack_message_count(config.inbox_size, f) for f in fractions]
    tasks: list[_SizeTask] = []
    for rep_index, repetition in enumerate(repetitions):
        for target in repetition.targets:
            email = target.email
            attack = FocusedAttack(
                email,
                guess_probability=config.size_sweep_guess_probability,
                header_pool=repetition.header_pool,
            )
            batch = attack.generate(counts[-1] if counts else 0, attack_rng)
            target_ids = _encode_target(email, repetition.classifier.table)
            tasks.append(_SizeTask(rep_index, target_ids, batch))
    context = _EvalContext(
        tuple(rep.classifier for rep in repetitions), counts=tuple(counts)
    )
    outcomes = ParallelRunner(config.workers).map(_run_size_cell, context, tasks)

    as_spam = [0] * len(fractions)
    as_filtered = [0] * len(fractions)  # spam or unsure
    total = 0
    for labels in outcomes:
        total += 1
        for index, label in enumerate(labels):
            if label == Label.SPAM.value:
                as_spam[index] += 1
            if label != Label.HAM.value:
                as_filtered[index] += 1
    result = FocusedSizeResult(config=config)
    for index, fraction in enumerate(fractions):
        result.points.append(
            CurvePoint(
                x=fraction,
                ham_as_spam_rate=as_spam[index] / total if total else 0.0,
                ham_misclassified_rate=as_filtered[index] / total if total else 0.0,
            )
        )
    return result


def render_focused_knowledge_result(result: FocusedKnowledgeResult) -> str:
    """Figure 2's table and bar chart."""
    headers = ["guess p", "ham", "unsure", "spam", "attack success"]
    rows = []
    bars = {}
    for probability in sorted(result.label_counts):
        fractions = result.fractions(probability)
        rows.append(
            [
                f"{probability:.1f}",
                f"{fractions.get('ham', 0.0):.0%}",
                f"{fractions.get('unsure', 0.0):.0%}",
                f"{fractions.get('spam', 0.0):.0%}",
                f"{result.attack_success_rate(probability):.0%}",
            ]
        )
        bars[f"p={probability:.1f}"] = {
            "ham": fractions.get("ham", 0.0),
            "unsure": fractions.get("unsure", 0.0),
            "spam": fractions.get("spam", 0.0),
        }
    chart = ascii_bar_chart(
        bars, title="Figure 2: target label mix vs probability of guessing target tokens"
    )
    return format_table(headers, rows) + "\n\n" + chart


def render_focused_size_result(result: FocusedSizeResult) -> str:
    """Figure 3's table and chart."""
    headers = ["attack %", "targets as spam", "targets as spam|unsure"]
    rows = [
        [
            f"{point.x:.1%}",
            f"{point.ham_as_spam_rate:.0%}",
            f"{point.ham_misclassified_rate:.0%}",
        ]
        for point in result.points
    ]
    chart = ascii_line_chart(
        {
            "as spam (dashed)": [(p.x * 100, p.ham_as_spam_rate) for p in result.points],
            "as spam|unsure (solid)": [
                (p.x * 100, p.ham_misclassified_rate) for p in result.points
            ],
        },
        title="Figure 3: percent of target ham misclassified vs percent control (p=0.5)",
        x_label="percent control of training set",
        y_label="fraction of targets misclassified",
    )
    return format_table(headers, rows) + "\n\n" + chart
