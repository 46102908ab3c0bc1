"""The streaming evaluation engine: play a mailstream tick by tick.

:class:`StreamRunner` generalizes the Section 2.1 weekly retraining
loop into the engine-layer workload the scenario registry, the shared
worker pool and the replication engine all understand:

* the **arrival schedule** comes from a declarative
  :class:`~repro.stream.spec.StreamSpec` (constant / linear / burst
  attack ramps over a steady legitimate stream);
* the classifier is **incremental** — training is count-addition, so
  each tick's retrain ingests only that tick's accepted arrivals; no
  tick ever retrains from scratch, and a T-tick stream trains each
  message exactly once;
* the **held-out evaluation** runs every tick through
  :meth:`~repro.spambayes.classifier.Classifier.score_workspace` over a
  test set encoded once against the stream's shared table — the
  columnar bulk kernel with a reusable scoring workspace, not a
  per-message scoring loop;
* the optional **clean counterfactual** (``spec.measure_clean``) is a
  *clean twin*: a second classifier sharing the stream's table,
  incrementally trained on exactly the accepted non-attack arrivals.
  Training is count-addition, so the twin's state is bit-identical to
  "the main classifier with every trained attack message unlearned" —
  the "what if no poison had ever arrived" curve at O(tick) cost
  instead of an O(history) unlearn excursion per tick.  The original
  snapshot/unlearn-all/restore path is retained
  (``counterfactual="unlearn"``) as the executable reference the
  differential suite replays against the twin;
* per-tick **defenses** are pluggable
  (:mod:`repro.stream.defenses`): none, the RONI gate recalibrated on
  accepted mail, or per-tick refitted dynamic thresholds.

**Seed streams.**  The runner inherits the legacy weekly loop's labels
verbatim — root ``spawn("retraining")``, corpus ``child_seed("corpus")``,
one ``rng(f"week[{tick}]")`` per tick, consumed in the historical
order (attack batch, then gate, then threshold fit) — so a spec built
by :meth:`StreamSpec.from_retraining` reproduces
``run_retraining_simulation`` draw for draw, field for field
(``tests/test_stream_vs_retraining.py`` proves it), and every other
spec extends that contract rather than forking it.  The clean twin
draws nothing: it re-trains already-encoded messages and re-scores
already-encoded rows, so enabling ``measure_clean`` never moves a
draw.

**Profiling.**  With ``spec.profile_phases`` the tick loop wraps its
four phases (train / defense / eval / counterfactual) plus the one-off
prepare step in :class:`~repro.stream.profile.PhaseTimer`; the
resulting :class:`~repro.stream.profile.StreamProfile` rides
``StreamResult.phase_profile`` — never the serialized record, which
stays byte-identical profiled or not.

**Parallelism.**  One stream is inherently sequential (tick ``t+1``
trains on state tick ``t`` left behind), so the fan-out unit is the
*whole stream*: standalone it runs inline at any ``workers`` value,
and under ``replicate_scenario(..., workers=N)`` each replica — its
whole stream — runs in its own worker process, so N seeds play N
streams truly concurrently (``benchmarks/bench_stream_throughput.py``
measures the messages/sec difference and asserts the records
identical).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.attacks.variants import build_attack_variants
from repro.corpus.dataset import Dataset, LabeledMessage, train_grouped, unlearn_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.engine.sweep import evaluate_dataset, evaluation_workspace
from repro.errors import ExperimentError
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.ndkernel import backend_columns, create_classifier
from repro.stream.defenses import build_tick_defense
from repro.stream.profile import PhaseTimer, StreamProfile
from repro.stream.spec import StreamSpec

if TYPE_CHECKING:
    from repro.attacks.base import Attack
    from repro.spambayes.ndkernel import ScoringWorkspace

__all__ = [
    "COUNTERFACTUAL_MODES",
    "StreamOutcome",
    "StreamResult",
    "StreamRunner",
    "run_stream_experiment",
]

COUNTERFACTUAL_MODES: tuple[str, ...] = ("twin", "unlearn")
"""How the clean counterfactual is computed: ``twin`` (the default —
an incrementally trained clean-twin classifier, O(tick) per tick) or
``unlearn`` (the retained snapshot/unlearn-all/restore reference,
O(history) per tick).  Bit-identical records either way."""


@dataclass
class StreamOutcome:
    """State of the world after one tick's retrain.

    The counter fields mirror the legacy ``WeeklyOutcome`` one for one
    (the delegation maps them across); ``clean_confusion`` and the
    fitted cutoffs are the stream engine's additions and stay ``None``
    unless the spec asks for them.
    """

    tick: int
    trained_messages: int
    attack_sent: int
    attack_trained: int
    attack_rejected: int
    legitimate_rejected: int
    confusion: ConfusionCounts
    clean_confusion: ConfusionCounts | None = None
    ham_cutoff: float | None = None
    spam_cutoff: float | None = None


@dataclass
class StreamResult:
    """Per-tick outcomes of one played stream."""

    spec: StreamSpec
    ticks: list[StreamOutcome] = field(default_factory=list)
    test_messages: int = 0
    """Held-out messages scored per tick (the evaluation workload)."""
    phase_profile: StreamProfile | None = None
    """Per-tick phase timings when ``spec.profile_phases`` asked for
    them; observation only — never serialized into the record."""

    def outcome(self, tick: int) -> StreamOutcome:
        for outcome in self.ticks:
            if outcome.tick == tick:
                return outcome
        raise ExperimentError(f"no tick {tick} in result")

    def final_ham_misclassification(self) -> float:
        return self.ticks[-1].confusion.ham_misclassified_rate

    def messages_processed(self) -> int:
        """Ingested arrivals plus held-out scoring work, stream-wide.

        The numerator of the throughput benchmark: every arrival the
        gate saw (trained or rejected) plus every held-out evaluation
        actually performed.  A clean-counterfactual re-score only
        counts from the first tick with attack mail trained — before
        that the runner copies the actual confusion instead of
        scoring (see :meth:`StreamRunner._clean_counterfactual`).
        """
        ingested = self.spec.total_arrivals()
        evaluations = 0
        attack_so_far = 0
        for outcome in self.ticks:
            evaluations += 1
            attack_so_far += outcome.attack_trained
            if outcome.clean_confusion is not None and attack_so_far > 0:
                evaluations += 1
        return ingested + evaluations * self.test_messages

    def to_record(self) -> ExperimentRecord:
        """Serialize through the shared results layer.

        One ``stream`` series with the tick number as x (plus a
        ``stream-clean`` counterfactual series when measured), so
        ``replicate_scenario`` pools per-tick error bars over seeds
        with zero stream-specific code.
        """
        spec = self.spec
        series = [
            Series(
                name="stream",
                points=[
                    CurvePoint.from_confusion(float(outcome.tick), outcome.confusion)
                    for outcome in self.ticks
                ],
            )
        ]
        if all(outcome.clean_confusion is not None for outcome in self.ticks):
            series.append(
                Series(
                    name="stream-clean",
                    points=[
                        CurvePoint.from_confusion(
                            float(outcome.tick), outcome.clean_confusion
                        )
                        for outcome in self.ticks
                    ],
                )
            )
        extras: dict = {
            "attack_sent": [outcome.attack_sent for outcome in self.ticks],
            "attack_trained": [outcome.attack_trained for outcome in self.ticks],
            "attack_rejected": [outcome.attack_rejected for outcome in self.ticks],
            "legitimate_rejected": [
                outcome.legitimate_rejected for outcome in self.ticks
            ],
            "trained_messages": [outcome.trained_messages for outcome in self.ticks],
        }
        if any(outcome.ham_cutoff is not None for outcome in self.ticks):
            extras["fitted_thresholds"] = [
                [outcome.tick, outcome.ham_cutoff, outcome.spam_cutoff]
                for outcome in self.ticks
                if outcome.ham_cutoff is not None
            ]
        config: dict = {
            "ticks": spec.ticks,
            "ham_per_tick": spec.ham_per_tick,
            "spam_per_tick": spec.spam_per_tick,
            "attack_variant": spec.attack_variant,
            "attack_start_tick": spec.attack_start_tick,
            "attack_per_tick": spec.attack_per_tick,
            "ramp": spec.ramp,
            "ramp_ticks": spec.ramp_ticks,
            "defense": spec.defense,
            "measure_clean": spec.measure_clean,
            "test_size": spec.test_size,
            "seed": spec.seed,
        }
        # The record must carry everything needed to re-run it
        # standalone, so the active defense's parameters ride along.
        # (workers and profile_phases are execution knobs, not
        # experiment identity — both are deliberately excluded.)
        if spec.defense == "threshold":
            config["threshold_quantile"] = spec.threshold_quantile
        elif spec.defense == "roni":
            config["roni_calibration_size"] = spec.roni_calibration_size
            config["roni"] = {
                "train_size": spec.roni.train_size,
                "validation_size": spec.roni.validation_size,
                "trials": spec.roni.trials,
                "spam_fraction": spec.roni.spam_fraction,
                "ham_as_ham_threshold": spec.roni.ham_as_ham_threshold,
            }
        return ExperimentRecord(
            experiment="stream",
            config=config,
            series=series,
            extras=extras,
        )


class StreamRunner:
    """Plays one :class:`StreamSpec` and collects per-tick outcomes.

    ``counterfactual`` selects how the optional clean measurement is
    computed (:data:`COUNTERFACTUAL_MODES`); every mode produces
    byte-identical records, which
    ``tests/test_stream_clean_twin.py`` enforces differentially.
    """

    def __init__(self, spec: StreamSpec, counterfactual: str = "twin") -> None:
        if counterfactual not in COUNTERFACTUAL_MODES:
            raise ExperimentError(
                f"unknown counterfactual mode {counterfactual!r}; "
                f"known: {', '.join(COUNTERFACTUAL_MODES)}"
            )
        self.spec = spec
        self.counterfactual = counterfactual

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def _prepare(self):
        """Corpus, arrival streams, held-out test set and the attack.

        Sizing and slicing replicate the legacy loop exactly: the
        corpus is arrival demand plus ``test_size`` slack per class,
        and the test set is the *tail* ``test_size // 2`` of each
        class — mail the stream never trains on.
        """
        spec = self.spec
        spawner = SeedSpawner(spec.seed).spawn("retraining")
        needed_ham = spec.ticks * spec.ham_per_tick + spec.test_size
        needed_spam = spec.ticks * spec.spam_per_tick + spec.test_size
        corpus = TrecStyleCorpus.generate(
            n_ham=needed_ham,
            n_spam=needed_spam,
            profile=spec.profile,
            seed=spawner.child_seed("corpus"),
        )
        ham_stream = corpus.dataset.ham
        spam_stream = corpus.dataset.spam
        test = Dataset(
            ham_stream[-spec.test_size // 2 :] + spam_stream[-spec.test_size // 2 :],
            name="held-out",
        )
        test.tokenize_all()
        ham_stream = ham_stream[: -spec.test_size // 2]
        spam_stream = spam_stream[: -spec.test_size // 2]

        attack: "Attack | None" = None
        if any(spec.tick_attack_counts()):
            # The focused variant needs the victim's mail pool (to pick
            # a target outside it and steal headers); the dictionary
            # variants ignore it.  Building the attack draws nothing
            # from the spawner streams, so skipping it for attack-free
            # specs (the clean control) changes no downstream draw.
            pool = Dataset(ham_stream + spam_stream, name="stream-arrivals")
            attack = build_attack_variants(
                corpus, (spec.attack_variant,), seed=spec.seed, pool=pool
            )[spec.attack_variant]
        return spawner, ham_stream, spam_stream, test, attack, corpus.table

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------

    def run(self) -> StreamResult:
        """Play every tick; return the per-tick outcome trail."""
        spec = self.spec
        timer = PhaseTimer(spec.profile_phases)
        run_start = time.perf_counter()
        with timer.phase("prepare"):
            spawner, ham_stream, spam_stream, test, attack, table = self._prepare()
            counts = spec.tick_attack_counts()

            if table is None:
                classifier = create_classifier(spec.options)
            else:
                # Backend-stored corpus: adopt the ingest table so every
                # stored token-ID row indexes the count columns
                # directly, and take backend columns for the stream's
                # root classifier (the one whose vocabulary grows with
                # the corpus).  Record-identical to the in-memory path:
                # records never depend on table layout.
                classifier = create_classifier(
                    spec.options, table=table, columns=backend_columns()
                )
            # Encode the held-out set once against the stream's table:
            # every tick's evaluation is then one bulk kernel pass over
            # cached ID arrays (the table is append-only, so the arrays
            # never go stale as training interns new vocabulary).  The
            # scoring workspace additionally carries the batch-shape
            # state (CSR encoding, text ranks, scratch buffers) across
            # ticks; it depends only on (rows, table), so the main
            # classifier and the clean twin share one.
            test.encode(classifier.table)
            workspace = evaluation_workspace(classifier, test)
            defense = build_tick_defense(spec, classifier.table)
            # The clean twin: same options, SAME table (append-only, so
            # sharing is free), trained below on exactly the accepted
            # non-attack arrivals.  Counts are additive integers, so at
            # every tick twin state == main state minus the trained
            # attack mail — the unlearn excursion's result, without the
            # excursion.
            twin: Classifier | None = None
            if spec.measure_clean and self.counterfactual == "twin":
                twin = create_classifier(spec.options, table=classifier.table)

        accepted_history: list[LabeledMessage] = []
        trained_history: list[LabeledMessage] = []
        trained_attack: list[LabeledMessage] = []
        result = StreamResult(spec=spec, test_messages=len(test))

        for tick in range(1, spec.ticks + 1):
            timer.start_tick()
            tick_rng = spawner.rng(f"week[{tick}]")
            with timer.phase("train"):
                start_ham = (tick - 1) * spec.ham_per_tick
                start_spam = (tick - 1) * spec.spam_per_tick
                arrivals: list[LabeledMessage] = list(
                    ham_stream[start_ham : start_ham + spec.ham_per_tick]
                ) + list(spam_stream[start_spam : start_spam + spec.spam_per_tick])
                attack_sent = counts[tick - 1]
                attack_arrivals: list[LabeledMessage] = []
                if attack_sent:
                    batch = attack.generate(attack_sent, tick_rng)
                    attack_arrivals = attack_messages_as_dataset(
                        batch, start=tick * 10_000
                    )

            with timer.phase("defense"):
                decision = defense.gate(
                    tick, arrivals, attack_arrivals, accepted_history, tick_rng
                )
            with timer.phase("train"):
                to_train = decision.to_train
                train_grouped(classifier, to_train)
                accepted_history.extend(decision.accepted_legitimate)
                trained_history.extend(to_train)
                trained_attack.extend(decision.trained_attack)
            if twin is not None:
                with timer.phase("counterfactual"):
                    # The twin ingests this tick's accepted legitimate
                    # mail and nothing else; the messages were encoded
                    # by the main retrain above, so this interns no new
                    # vocabulary and draws no randomness.
                    train_grouped(twin, decision.accepted_legitimate)

            with timer.phase("defense"):
                fit = defense.cutoffs(trained_history, tick_rng)
            cutoffs = None if fit is None else (fit.ham_cutoff, fit.spam_cutoff)
            with timer.phase("eval"):
                confusion = evaluate_dataset(
                    classifier, test, cutoffs=cutoffs, workspace=workspace
                )
            with timer.phase("counterfactual"):
                clean = self._clean_counterfactual(
                    classifier,
                    twin,
                    test,
                    workspace,
                    trained_attack,
                    cutoffs,
                    confusion,
                )
            result.ticks.append(
                StreamOutcome(
                    tick=tick,
                    trained_messages=classifier.nspam + classifier.nham,
                    attack_sent=attack_sent,
                    attack_trained=decision.attack_trained,
                    attack_rejected=decision.attack_rejected,
                    legitimate_rejected=decision.legitimate_rejected,
                    confusion=confusion,
                    clean_confusion=clean,
                    ham_cutoff=None if fit is None else fit.ham_cutoff,
                    spam_cutoff=None if fit is None else fit.spam_cutoff,
                )
            )
        result.phase_profile = timer.finish(time.perf_counter() - run_start)
        return result

    def _clean_counterfactual(
        self,
        classifier: Classifier,
        twin: Classifier | None,
        test: Dataset,
        workspace: "ScoringWorkspace",
        trained_attack: list[LabeledMessage],
        cutoffs: tuple[float, float] | None,
        confusion: ConfusionCounts,
    ) -> ConfusionCounts | None:
        """The tick's what-if-no-poison confusion.

        Default path: evaluate the clean twin — one bulk scoring pass,
        cost independent of how much attack mail the stream has
        trained.  Twin counts equal main-minus-attack counts exactly
        (integer count-addition), so the scores, and therefore the
        confusion, are bit-identical to the retained reference path:
        snapshot, unlearn every attack message trained so far, re-score
        the held-out set, restore (``counterfactual="unlearn"``) —
        which grows with the attack history and is kept only as the
        executable specification the differential suite replays.
        """
        if not self.spec.measure_clean:
            return None
        if not trained_attack:
            # Nothing poisoned yet: the counterfactual IS the
            # measurement (the twin would score identically — its
            # counts equal the main classifier's — so copying keeps
            # messages_processed()'s re-score accounting meaningful).
            return ConfusionCounts.from_dict(confusion.as_dict())
        if twin is not None:
            return evaluate_dataset(twin, test, cutoffs=cutoffs, workspace=workspace)
        snap = classifier.snapshot()
        try:
            unlearn_grouped(classifier, trained_attack)
            return evaluate_dataset(classifier, test, cutoffs=cutoffs)
        finally:
            classifier.restore(snap)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def _run_stream_task(spec: StreamSpec, _task: int) -> StreamResult:
    """One whole stream as an engine task (a module-level, picklable fn).

    The fault-injection site fires before any stream state exists, so
    an injected crash or hang loses no partial work — the supervisor's
    retry replays the whole (deterministic) stream from its spec.  It
    fires only inside a pool worker: in a replica worker of
    ``repro replicate stream-* --workers N``, or when a caller runs the
    task through a :class:`~repro.engine.runner.WorkerPool`.
    """
    from repro.engine import faults

    faults.inject("stream-task", f"seed:{spec.seed}")
    return StreamRunner(spec).run()


def run_stream_experiment(spec: StreamSpec = StreamSpec()) -> StreamResult:
    """Run one stream — the ``stream`` protocol.

    A stream is one sequential task, so it runs inline at any
    ``workers`` value; ``repro replicate stream-* --workers N`` gets
    its concurrency by running each replica in its own worker process.
    """
    return _run_stream_task(spec, 0)
