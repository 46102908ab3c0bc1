"""The protocol implementations behind every registered scenario.

The paper's five "experiments" are one protocol family — build a
corpus, sample the victim's mail, layer an attack grid, optionally
defend, pool metrics — instantiated with different fan-out shapes.
This module is where those instantiations live, collapsed out of the
five bespoke drivers:

* a shared **preparation stage** (:func:`prepare_inbox`) that every
  pool-based protocol runs: seed-spawn, lay out the corpus handles,
  sample the inbox/pool, then stream only the sampled mail through
  generate → tokenize → encode against one shared
  :class:`~repro.spambayes.token_table.TokenTable`;
* one **protocol function** per fan-out shape, registered in
  :data:`PROTOCOLS` under the name scenario specs declare.

Each protocol takes an experiment config dataclass and returns that
experiment's result object; the golden records in ``tests/golden/``
pin every protocol's output bytes.  The experiment modules keep their
config/result types, worker functions and contexts (worker functions
must stay at a stable pickle path for the process fan-out); what
lives here is the orchestration that used to be copy-pasted five
times.

Attack grids resolve through the shared catalogue
(:func:`repro.attacks.variants.build_attack_variants`), so a scenario
can cross any catalogued attack with any protocol — e.g. the
``focused`` variant inside the RONI gate protocol — without a new
driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.attacks.focused import FocusedAttack
from repro.attacks.variants import build_attack_variants
from repro.corpus.dataset import Dataset, train_grouped
from repro.corpus.trec import TrecStyleCorpus
from repro.engine.runner import ParallelRunner
from repro.engine.seeding import drawn_seeds
from repro.engine.sweep import SweepSpec, attack_message_count, run_attack_sweeps
from repro.errors import ExperimentError
from repro.experiments import dictionary_exp, focused_exp, goodword_exp, roni_exp, threshold_exp
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.results import CurvePoint
from repro.rng import SeedSpawner
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.filter import Label
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER
from repro.stream.runner import run_stream_experiment

if TYPE_CHECKING:
    from array import array

    from repro.spambayes.message import Email
    from repro.spambayes.token_table import TokenTable

__all__ = ["PROTOCOLS", "PreparedInbox", "prepare_inbox"]


# ----------------------------------------------------------------------
# The shared preparation stage
# ----------------------------------------------------------------------


@dataclass
class PreparedInbox:
    """Everything the pool-based protocols share after preparation."""

    spawner: SeedSpawner
    corpus: TrecStyleCorpus
    inbox: Dataset
    table: "TokenTable"


def prepare_inbox(
    config: Any,
    *,
    spawn_label: str,
    sample_label: str = "inbox",
    size_attr: str = "inbox_size",
) -> PreparedInbox:
    """Corpus → inbox → generate/tokenize/encode, under the historical labels.

    ``spawn_label`` and ``sample_label`` are the experiment's seed
    stream names ("dictionary-experiment"/"inbox",
    "roni-experiment"/"pool", ...) — they are part of each scenario's
    identity, because every downstream draw descends from them.

    The corpus is handles, so sampling draws from it without
    generating anything; only the sampled messages are then generated,
    one at a time in inbox order, and each keeps just its ID row.
    """
    spawner = SeedSpawner(config.seed).spawn(spawn_label)
    corpus = TrecStyleCorpus.generate(
        n_ham=config.corpus_ham,
        n_spam=config.corpus_spam,
        profile=config.profile,
        seed=spawner.child_seed("corpus"),
    )
    inbox = corpus.dataset.sample_inbox(
        getattr(config, size_attr), config.spam_prevalence, spawner.rng(sample_label)
    )
    # Encode once: the full model, every fold worker, every defense and
    # every evaluation reuses these arrays and this table.
    table = inbox.encode()
    return PreparedInbox(spawner, corpus, inbox, table)


# ----------------------------------------------------------------------
# Figure 1: K-fold dictionary-attack contamination sweeps
# ----------------------------------------------------------------------


def run_dictionary_sweep(
    config: "dictionary_exp.DictionaryExperimentConfig",
) -> "dictionary_exp.DictionaryExperimentResult":
    """K-fold contamination sweep per attack variant, pooled over folds."""
    prepared = prepare_inbox(config, spawn_label="dictionary-experiment")
    attacks = build_attack_variants(prepared.corpus, config.variants, seed=config.seed)
    result = dictionary_exp.DictionaryExperimentResult(config=config)
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


# ----------------------------------------------------------------------
# Figures 2 and 3: the targeted (focused) protocol
# ----------------------------------------------------------------------


def _prepare_repetitions(
    config: "focused_exp.FocusedExperimentConfig",
) -> list["focused_exp._Repetition"]:
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
    context = focused_exp._PrepareContext(corpus, config, spawner.seed)
    return ParallelRunner(config.workers).map(
        focused_exp._prepare_one_repetition, context, list(range(config.repetitions))
    )


def _encode_target(email: "Email", table: "TokenTable") -> "array":
    """A target email's ID row, interned after its attacks were built."""
    return table.encode_unique(DEFAULT_TOKENIZER.tokenize(email))


def run_focused_knowledge(
    config: "focused_exp.FocusedExperimentConfig",
) -> "focused_exp.FocusedKnowledgeResult":
    """Figure 2: post-attack target label mix per guess probability."""
    repetitions = _prepare_repetitions(config)
    attack_rng = SeedSpawner(config.seed).spawn("focused-knowledge").rng("attacks")
    # Batch generation consumes the one shared attack stream, so it
    # stays in the parent, in the historical rep -> target -> p order.
    tasks: list[focused_exp._KnowledgeTask] = []
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
            tasks.append(focused_exp._KnowledgeTask(rep_index, target_ids, tuple(batches)))
    context = focused_exp._EvalContext(tuple(rep.classifier for rep in repetitions))
    outcomes = ParallelRunner(config.workers).map(
        focused_exp._run_knowledge_cell, context, tasks
    )

    result = focused_exp.FocusedKnowledgeResult(config=config)
    for probability in config.guess_probabilities:
        result.label_counts[probability] = {"ham": 0, "unsure": 0, "spam": 0}
    for pre_attack_ham, labels in outcomes:
        result.total_targets += 1
        if pre_attack_ham:
            result.pre_attack_ham += 1
        for probability, label in zip(config.guess_probabilities, labels):
            result.label_counts[probability][label] += 1
    return result


def run_focused_size(
    config: "focused_exp.FocusedExperimentConfig",
) -> "focused_exp.FocusedSizeResult":
    """Figure 3: target misclassification vs number of attack emails."""
    fractions = list(config.size_sweep_fractions)
    if fractions != sorted(fractions):
        raise ExperimentError("size_sweep_fractions must be ascending")
    repetitions = _prepare_repetitions(config)
    attack_rng = SeedSpawner(config.seed).spawn("focused-size").rng("attacks")
    counts = [attack_message_count(config.inbox_size, f) for f in fractions]
    tasks: list[focused_exp._SizeTask] = []
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
            tasks.append(focused_exp._SizeTask(rep_index, target_ids, batch))
    context = focused_exp._EvalContext(
        tuple(rep.classifier for rep in repetitions), counts=tuple(counts)
    )
    outcomes = ParallelRunner(config.workers).map(focused_exp._run_size_cell, context, tasks)

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
    result = focused_exp.FocusedSizeResult(config=config)
    for index, fraction in enumerate(fractions):
        result.points.append(
            CurvePoint(
                x=fraction,
                ham_as_spam_rate=as_spam[index] / total if total else 0.0,
                ham_misclassified_rate=as_filtered[index] / total if total else 0.0,
            )
        )
    return result


# ----------------------------------------------------------------------
# Good-word evasion costs (Exploratory/Integrity quadrant)
# ----------------------------------------------------------------------


def run_goodword_evasion(
    config: "goodword_exp.GoodWordExperimentConfig",
) -> "goodword_exp.GoodWordExperimentResult":
    """Evasion rate vs word budget for both attacker knowledge models."""
    from repro.corpus.wordlists import build_usenet_wordlist
    from repro.attacks.goodword import CommonWordGoodWordAttack, OracleGoodWordAttack

    prepared = prepare_inbox(config, spawn_label="goodword-experiment")
    classifier = create_classifier(config.options, table=prepared.table)
    train_grouped(classifier, prepared.inbox)

    inbox_ids = {m.msgid for m in prepared.inbox}
    test_spam = [m for m in prepared.corpus.dataset.spam if m.msgid not in inbox_ids]
    if len(test_spam) < config.n_test_spam:
        raise ExperimentError(
            f"need {config.n_test_spam} held-out spam, only {len(test_spam)} available"
        )
    test_spam = test_spam[: config.n_test_spam]
    # Only spam the clean filter actually catches is worth evading.
    # One encoded bulk pass instead of a per-message score loop.
    spam_cutoff = config.options.spam_cutoff
    test_scores = classifier.score_many_ids(
        [m.token_ids(prepared.table) for m in test_spam]
    )
    caught = [
        m for m, score in zip(test_spam, test_scores) if score > spam_cutoff
    ]
    if not caught:
        raise ExperimentError("clean filter catches no test spam; nothing to evade")

    usenet = build_usenet_wordlist(prepared.corpus.vocabulary, seed=config.seed)
    attackers = {
        "common-word (blind)": CommonWordGoodWordAttack(usenet.words),
        "oracle (Lowd-Meek)": OracleGoodWordAttack(
            classifier, usenet.words[: config.oracle_candidates]
        ),
    }

    # Each caught spam is one task: padding and scoring draw no
    # randomness, so any execution order (and any worker count) tallies
    # the same curves.
    context = goodword_exp._GoodWordContext(
        classifier, attackers, tuple(config.word_budgets), spam_cutoff
    )
    per_message = ParallelRunner(config.workers).map(
        goodword_exp._evade_one_message, context, [message.email for message in caught]
    )

    result = goodword_exp.GoodWordExperimentResult(config=config)
    budgets = list(config.word_budgets)
    for model_name in attackers:
        evaded_per_budget = [0] * len(budgets)
        evaded_at: list[int | None] = []
        for outcome in per_message:
            flags = outcome[model_name]
            first_evading = None
            for index, evaded in enumerate(flags):
                if evaded:
                    evaded_per_budget[index] += 1
                    if first_evading is None:
                        first_evading = budgets[index]
            evaded_at.append(first_evading)
        result.evasion[model_name] = [
            (budget, count / len(caught)) for budget, count in zip(budgets, evaded_per_budget)
        ]
        # Median words-to-evade, with "never evaded within budget"
        # treated as +infinity: a None median means most spam resisted.
        costs = sorted(evaded_at, key=lambda c: float("inf") if c is None else c)
        result.median_words_to_evade[model_name] = costs[(len(costs) - 1) // 2]
    return result


# ----------------------------------------------------------------------
# Section 5.1: the RONI gate calibration protocol
# ----------------------------------------------------------------------


def run_roni_gate(
    config: "roni_exp.RoniExperimentConfig",
) -> "roni_exp.RoniExperimentResult":
    """Impact distributions of attack vs non-attack mail under RONI."""
    prepared = prepare_inbox(
        config, spawn_label="roni-experiment", sample_label="pool", size_attr="pool_size"
    )
    pool = prepared.inbox
    pool_ids = {message.msgid for message in pool}
    spam_outside = [m for m in prepared.corpus.dataset.spam if m.msgid not in pool_ids]
    if len(spam_outside) < config.n_nonattack_spam:
        raise ExperimentError(
            f"need {config.n_nonattack_spam} non-attack spam outside the pool, "
            f"only {len(spam_outside)} available"
        )
    attacks = build_attack_variants(
        prepared.corpus,
        config.variants,
        seed=config.seed,
        informed_budget=config.informed_budget,
        pool=pool,
    )
    result = roni_exp.RoniExperimentResult(config=config)
    result.attack_impacts = {variant: [] for variant in attacks}
    context = roni_exp._RoniContext(
        pool, prepared.table, attacks, config, prepared.spawner.seed
    )
    runner = ParallelRunner(config.workers)

    # Attack emails: a fresh RONI calibration per repetition, one email
    # of each variant measured against it.
    per_rep = runner.map(
        roni_exp._measure_attack_repetition,
        context,
        list(range(config.repetitions_per_variant)),
    )
    for impacts in per_rep:
        for variant, impact in zip(attacks, impacts):
            result.attack_impacts[variant].append(impact)

    # Non-attack spam: measured against a dedicated calibration, in
    # round-robin batches so no single resample biases the distribution.
    queries = prepared.spawner.rng("query-choice").sample(
        spam_outside, config.n_nonattack_spam
    )
    per_defense = max(1, config.n_nonattack_spam // config.repetitions_per_variant)
    batches = [
        (rep, tuple(queries[start : start + per_defense]))
        for rep, start in enumerate(range(0, len(queries), per_defense))
    ]
    for impacts in runner.map(roni_exp._measure_spam_batch, context, batches):
        result.nonattack_spam_impacts.extend(impacts)
    return result


# ----------------------------------------------------------------------
# Figure 5: static vs fitted threshold arms over a poisoned sweep
# ----------------------------------------------------------------------


def run_threshold_arms(
    config: "threshold_exp.ThresholdExperimentConfig",
) -> "threshold_exp.ThresholdExperimentResult":
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
        threshold_exp._FoldTask(
            tuple(train_idx), tuple(test_idx), tuple(drawn_seeds(fold_rng, seeds_per_fold))
        )
        for train_idx, test_idx in pairs
    ]
    # The inbox's shared table: the full model's count columns, the
    # pre-encoded message arrays and every fold worker all index by it.
    full_model = create_classifier(config.options, table=prepared.table)
    train_grouped(full_model, prepared.inbox)
    context = threshold_exp._FoldContext(
        inbox=prepared.inbox,
        attack=attack,
        counts=tuple(counts),
        quantiles=quantiles,
        options=config.options,
        tokenizer=DEFAULT_TOKENIZER,
        full_model=full_model,
    )
    fold_outcomes = ParallelRunner(config.workers).map(
        threshold_exp._run_threshold_fold, context, tasks
    )

    result = threshold_exp.ThresholdExperimentResult(config=config)
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


PROTOCOLS: dict[str, Callable[[Any], Any]] = {
    "dictionary-sweep": run_dictionary_sweep,
    "focused-knowledge": run_focused_knowledge,
    "focused-size": run_focused_size,
    "goodword-evasion": run_goodword_evasion,
    "roni-gate": run_roni_gate,
    "threshold-arms": run_threshold_arms,
    # The streaming engine lives in its own subsystem
    # (repro.stream): a stream is one sequential task; replication
    # runs each replica's stream in its own worker process.
    "stream": run_stream_experiment,
}
"""Protocol name -> executor function, as scenario specs declare them."""
