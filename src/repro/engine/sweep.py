"""The parallel K-fold attack-sweep engine.

This module industrializes the hot path behind Figures 1 and 5: the
cross-validated contamination sweeps of Section 4.1.  Three ideas, all
result-preserving:

**Fold models by subtraction.**  Training is count-addition, so the
model for "train on everything except fold *i*" equals "train on
everything, then unlearn fold *i*" — exactly, in integers.  The engine
trains ONE full-inbox model per sweep, then derives each fold's clean
classifier by snapshotting (:meth:`Classifier.snapshot`), unlearning
the held-out stripe, layering attack batches, and restoring.  A
K-fold, V-variant sweep trains ``N(1 + V)`` messages instead of the
naive ``V·K·N(K-1)/K`` — at paper scale (K=10, V=3) an ~7x cut in
training work before any process even forks.

**Deterministic fan-out.**  Each (variant, fold) pair is one
independent task: it carries its fold's index lists and a pre-drawn
attack seed (:func:`repro.engine.seeding.drawn_seeds` replays the
sequential implementation's ``getrandbits`` draws in order), so
results are bit-identical at any worker count; the golden records in
``tests/golden/`` pin the bytes.

**Bulk scoring over encoded messages.**  The inbox is encoded once into
sorted token-ID arrays against a shared
:class:`~repro.spambayes.token_table.TokenTable`
(:meth:`repro.corpus.dataset.Dataset.encode`); workers receive the
arrays plus the table — a far smaller pickle than per-message string
sets — and train/score through the classifier's ``*_ids`` methods, so
the inner loops never hash a string.  Attack payloads are ID-native
too: each fold's batch is interned once through
:meth:`~repro.attacks.base.AttackBatch.encode` and layered as ID
arrays (:class:`IncrementalAttackTrainer`).  Each fold scores its
held-out stripe through one
:class:`~repro.spambayes.classifier.ScoringWorkspace`, built once per
fold, so the stripe's CSR encoding, distinct IDs and text order are
not rebuilt after every contamination step.  A parallel sweep ships
the inbox as one :class:`~repro.spambayes.ndkernel.CsrMatrix` inside
the context, by value like the rest of it, and workers build their
stripes' workspaces from its row views.

The shared primitives the experiment drivers use (dataset evaluation,
the incremental attack trainer, and grouped training, which lives in
:mod:`repro.corpus.dataset` so the defenses can train through it too)
are exported here.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.attacks.base import Attack, AttackBatch
from repro.corpus.dataset import Dataset, LabeledMessage, train_grouped
from repro.engine.runner import ParallelRunner, resolve_workers
from repro.engine.seeding import drawn_seeds
from repro.errors import EngineError, ExperimentError
from repro.experiments.metrics import ConfusionCounts
from repro.spambayes import ndkernel
from repro.spambayes.classifier import Classifier, ScoringWorkspace
from repro.spambayes.filter import Label
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = [
    "AttackSweepPoint",
    "IncrementalAttackTrainer",
    "SweepResult",
    "SweepSpec",
    "attack_message_count",
    "evaluate_dataset",
    "tally_scores",
    "evaluation_workspace",
    "run_attack_sweeps",
]


def attack_message_count(base_size: int, fraction: float) -> int:
    """Attack messages needed for ``fraction`` control of training.

    ``fraction`` is attack/(base + attack), the paper's x-axis, so the
    count is ``base * f / (1 - f)`` rounded.
    """
    if not 0.0 <= fraction < 1.0:
        raise ExperimentError(f"attack fraction must be in [0, 1), got {fraction}")
    return round(base_size * fraction / (1.0 - fraction))


def evaluation_workspace(
    classifier: Classifier,
    messages: Iterable[LabeledMessage],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ham_only: bool = False,
) -> ScoringWorkspace:
    """A scoring workspace over exactly the rows
    :func:`evaluate_dataset` would score for the same arguments.

    Built once per repeatedly-evaluated set (the stream runner's
    held-out test set) and passed back via ``evaluate_dataset(...,
    workspace=...)``; the workspace caches the batch-shape scoring
    state (CSR encoding, distinct IDs, text order, scratch buffers)
    across calls.
    The workspace is classifier-independent beyond the interning
    table, so one workspace may serve several classifiers sharing a
    table.
    """
    table = classifier.table
    return ScoringWorkspace(
        m.token_ids(table, tokenizer)
        for m in messages
        if not (ham_only and m.is_spam)
    )


def evaluate_dataset(
    classifier: Classifier,
    messages: Iterable[LabeledMessage],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ham_only: bool = False,
    cutoffs: tuple[float, float] | None = None,
    workspace: ScoringWorkspace | None = None,
) -> ConfusionCounts:
    """Classify ``messages`` and tally a confusion matrix.

    Scores through :meth:`Classifier.score_many_ids`, the columnar bulk
    kernel, over ID arrays encoded against the classifier's interning
    table (encoded once per message, cached).  Scores are exactly the
    per-message ones.  ``cutoffs`` overrides the classifier's
    (θ0, θ1) without touching its state; to evaluate one trained state
    under several threshold pairs, score once and call
    :func:`tally_scores` per pair.  ``workspace`` (from
    :func:`evaluation_workspace` over the same messages/``ham_only``)
    reuses cached batch-shape scoring state for callers that evaluate
    one fixed set repeatedly; scores are bit-identical with or without
    it.
    """
    if cutoffs is None:
        ham_cutoff, spam_cutoff = classifier.options.ham_cutoff, classifier.options.spam_cutoff
    else:
        ham_cutoff, spam_cutoff = cutoffs
    kept = [m for m in messages if not (ham_only and m.is_spam)]
    table = classifier.table
    if workspace is not None:
        scores = classifier.score_workspace(workspace)
    else:
        scores = classifier.score_many_ids([m.token_ids(table, tokenizer) for m in kept])
    return tally_scores([m.is_spam for m in kept], scores, (ham_cutoff, spam_cutoff))


def tally_scores(
    labels: Iterable[bool], scores: Iterable[float], cutoffs: tuple[float, float]
) -> ConfusionCounts:
    """Tally a confusion matrix from true labels (``True`` = spam) and
    scores under ``cutoffs = (θ0, θ1)``.

    Scoring once and tallying several times evaluates one trained
    state under several threshold pairs (the dynamic-threshold
    experiment).
    """
    ham_cutoff, spam_cutoff = cutoffs
    counts = ConfusionCounts()
    for is_spam, score in zip(labels, scores):
        if score <= ham_cutoff:
            label = Label.HAM
        elif score <= spam_cutoff:
            label = Label.UNSURE
        else:
            label = Label.SPAM
        counts.record(is_spam, label)
    return counts


@dataclass
class AttackSweepPoint:
    """Pooled test results at one contamination level."""

    attack_fraction: float
    attack_message_count: int
    confusion: ConfusionCounts


class IncrementalAttackTrainer:
    """Feeds a fold's classifier ever more of one attack batch.

    The batch is encoded once, up front, against the classifier's table
    (:meth:`AttackBatch.encode` — cached per batch/table pair); the
    contamination sweep then re-trains the same groups at successive
    fractions via pure ID-column arithmetic.  A dictionary attack's
    ~10^5-token payload is hashed exactly once per batch, never per
    fraction or per group visit.
    """

    def __init__(self, classifier: Classifier, batch: AttackBatch) -> None:
        self._classifier = classifier
        self._payloads = batch.encode(classifier.table)
        self._group_index = 0
        self._used_in_group = 0
        self.trained = 0

    def advance_to(self, target: int) -> None:
        """Train messages until ``target`` of the batch are in effect.

        ``advance_to(0)`` is an explicit no-op — the clean-baseline
        point of a ``(0.0, ...)`` sweep trains nothing, even when the
        batch itself is empty (``attack.generate(0, rng)``).
        """
        if target == self.trained:
            return
        if target < self.trained:
            raise ExperimentError(
                f"attack sweep must be ascending: asked for {target} after {self.trained}"
            )
        while self.trained < target:
            if self._group_index >= len(self._payloads):
                raise ExperimentError(
                    f"attack batch exhausted at {self.trained} of {target} messages"
                )
            ids, group_count = self._payloads[self._group_index]
            available = group_count - self._used_in_group
            take = min(available, target - self.trained)
            self._classifier.learn_ids_repeated(ids, True, take)
            self._used_in_group += take
            self.trained += take
            if self._used_in_group == group_count:
                self._group_index += 1
                self._used_in_group = 0


# ----------------------------------------------------------------------
# Sweep specification and planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One attack's contamination sweep within a K-fold protocol."""

    key: str
    attack: Attack
    fractions: tuple[float, ...]
    ham_only: bool = False

    def __post_init__(self) -> None:
        ordered = list(self.fractions)
        if not ordered:
            raise ExperimentError("need at least one fraction")
        if ordered != sorted(ordered):
            raise ExperimentError("fractions must be ascending for incremental training")


@dataclass
class SweepResult:
    """One spec's pooled sweep: a point per contamination fraction."""

    key: str
    points: list[AttackSweepPoint] = field(default_factory=list)


@dataclass(frozen=True)
class _FoldTask:
    """One (spec, fold) unit of work, fully self-describing: the fold
    trains on every inbox message outside ``test_indices``."""

    spec_key: str
    fold_index: int
    test_indices: tuple[int, ...]
    attack_seed: int


@dataclass(frozen=True)
class _SpecPayload:
    """The per-spec data workers need (attack + planned counts)."""

    attack: Attack
    counts: tuple[int, ...]
    ham_only: bool


@dataclass(frozen=True)
class _SweepContext:
    """Read-only worker context, shipped once per worker process.

    The inbox travels as parallel tuples of sorted token-ID arrays and
    labels plus ONE interning table, not as :class:`Dataset` — workers
    never look at bodies, headers or token strings, and machine-packed
    ID arrays cut the per-worker pickle well below even the old
    frozenset representation.  ``full_model`` shares the same table
    object, so the arrays index directly into its count columns on the
    other side of the pickle.

    When ``csr`` is set (parallel runs), the
    encoded inbox travels as one :class:`~repro.spambayes.ndkernel.
    CsrMatrix` instead of the ``token_ids`` tuple, carried by value
    like every other field; :meth:`rows` gives its row views either
    way.
    """

    token_ids: tuple[array, ...] | None
    labels: tuple[bool, ...]
    specs: dict[str, _SpecPayload]
    table: TokenTable
    full_model: Classifier
    csr: "ndkernel.CsrMatrix | None" = None

    def rows(self) -> Sequence:
        """Per-message ID arrays, whichever field carried them.

        CSR row views are built once per process and cached; the cache
        never rides a pickle.
        """
        if self.csr is None:
            return self.token_ids
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = [self.csr.row(i) for i in range(len(self.csr))]
            object.__setattr__(self, "_rows", rows)
        return rows

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_rows", None)
        return state


def _grouped_id_indices(
    context: _SweepContext, indices: tuple[int, ...]
) -> list[tuple[array, bool, int]]:
    """Collapse index lists into (token_ids, is_spam, count) groups."""
    groups: dict[tuple[bool, bytes], list] = {}
    token_ids = context.rows()
    labels = context.labels
    for i in indices:
        ids = token_ids[i]
        key = (labels[i], ids.tobytes())
        entry = groups.get(key)
        if entry is None:
            groups[key] = [ids, 1]
        else:
            entry[1] += 1
    return [(ids, is_spam, count) for (is_spam, _), (ids, count) in groups.items()]


def _fold_classifier(context: _SweepContext, task: _FoldTask):
    """The fold's clean classifier, plus the snapshot to restore."""
    classifier = context.full_model
    snap = classifier.snapshot()
    classifier.unlearn_groups(_grouped_id_indices(context, task.test_indices))
    return classifier, snap


class _Stripe:
    """A fold's held-out stripe: its labels plus one scoring workspace,
    rescored after every contamination step."""

    __slots__ = ("labels", "workspace")

    def __init__(self, context: _SweepContext, indices: tuple[int, ...], ham_only: bool) -> None:
        kept = [i for i in indices if not (ham_only and context.labels[i])]
        rows = context.rows()
        self.labels = [context.labels[i] for i in kept]
        self.workspace = ScoringWorkspace(rows[i] for i in kept)

    def evaluate(self, classifier: Classifier) -> dict[str, int]:
        """The stripe's confusion counts under ``classifier``'s cutoffs."""
        options = classifier.options
        scores = classifier.score_workspace(self.workspace)
        return tally_scores(
            self.labels, scores, (options.ham_cutoff, options.spam_cutoff)
        ).as_dict()


def _run_fold_task(context: _SweepContext, task: _FoldTask) -> list[dict[str, int]]:
    """Sweep one fold of one spec; return a confusion dict per fraction."""
    spec = context.specs[task.spec_key]
    classifier, snap = _fold_classifier(context, task)
    try:
        batch = spec.attack.generate(spec.counts[-1], random.Random(task.attack_seed))
        trainer = IncrementalAttackTrainer(classifier, batch)
        stripe = _Stripe(context, task.test_indices, spec.ham_only)
        confusions = []
        for count in spec.counts:
            trainer.advance_to(count)
            confusions.append(stripe.evaluate(classifier))
        return confusions
    finally:
        classifier.restore(snap)


def run_attack_sweeps(
    inbox: Dataset,
    specs: Sequence[tuple[SweepSpec, random.Random]],
    folds: int,
    options: ClassifierOptions = DEFAULT_OPTIONS,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    workers: int | None = 1,
    table: TokenTable | None = None,
) -> list[SweepResult]:
    """Run every spec's K-fold contamination sweep, fanning folds out.

    Each spec comes with its own ``random.Random``, consumed exactly as
    the sequential implementation would (fold shuffle, then one 64-bit
    attack seed per fold) — so any worker count, and the legacy
    sequential path, produce identical :class:`SweepResult`s.

    Every fold's clean model is the shared full-inbox model with the
    fold's held-out stripe unlearned, never a retrain of the other
    K-1 folds.

    ``table`` is the interning table the inbox is encoded against; pass
    a pre-populated corpus table to reuse encodings across calls, or
    let the sweep build a private one.
    """
    if not specs:
        raise EngineError("run_attack_sweeps needs at least one spec")
    keys = [spec.key for spec, _ in specs]
    if len(set(keys)) != len(keys):
        raise EngineError(f"sweep spec keys must be unique, got {keys}")
    base_size = len(inbox)
    payloads: dict[str, _SpecPayload] = {}
    tasks: list[_FoldTask] = []
    for spec, rng in specs:
        counts = tuple(attack_message_count(base_size, f) for f in spec.fractions)
        payloads[spec.key] = _SpecPayload(spec.attack, counts, spec.ham_only)
        pairs = inbox.k_fold_indices(folds, rng)
        seeds = drawn_seeds(rng, len(pairs))
        for fold_index, ((_, test_idx), seed) in enumerate(zip(pairs, seeds)):
            tasks.append(_FoldTask(spec.key, fold_index, tuple(test_idx), seed))
    table = inbox.encode(table, tokenizer)
    full_model = ndkernel.create_classifier(options, table=table)
    train_grouped(full_model, inbox, tokenizer)

    # In parallel runs the encoded inbox crosses process boundaries as
    # one CSR pair instead of a tuple of per-message arrays.
    parallel = resolve_workers(workers) > 1 and len(tasks) > 1
    csr = None
    token_ids: tuple[array, ...] | None = tuple(
        message.token_ids(table, tokenizer) for message in inbox
    )
    if parallel:
        csr = ndkernel.CsrMatrix.from_rows(token_ids)
        token_ids = None
    context = _SweepContext(
        token_ids=token_ids,
        labels=tuple(message.is_spam for message in inbox),
        specs=payloads,
        table=table,
        full_model=full_model,
        csr=csr,
    )
    per_task = ParallelRunner(workers).map(_run_fold_task, context, tasks)

    results: dict[str, SweepResult] = {}
    for spec, _ in specs:
        counts = payloads[spec.key].counts
        results[spec.key] = SweepResult(
            spec.key,
            [
                AttackSweepPoint(fraction, count, ConfusionCounts())
                for fraction, count in zip(spec.fractions, counts)
            ],
        )
    for task, confusions in zip(tasks, per_task):
        points = results[task.spec_key].points
        for point, confusion in zip(points, confusions):
            point.confusion.merge(ConfusionCounts.from_dict(confusion))
    return [results[key] for key in keys]
