"""Section 5.1: evaluating the RONI defense.

The paper measures the incremental impact (drop in correctly
classified ham on a 50-message validation set, averaged over five
20-message training resamples) of:

* 120 random non-attack spam messages, and
* 15 repetitions each of seven dictionary-attack variants,

and reports *complete separability*: every dictionary attack email
costs at least 6.8 ham-as-ham messages on average, every non-attack
spam at most 4.4, so a threshold between identifies 100% of attack
emails with zero false positives.

The paper does not enumerate its seven variants beyond "variants of
the dictionary attacks in Section 3.2"; ours are the three named
attacks plus truncations of the Usenet list and an informed
(empirical-distribution) attack — resolved through the shared
catalogue (:func:`repro.attacks.variants.build_attack_variants`) and
configurable here.  Because the catalogue also knows the ``focused``
variant, the same protocol doubles as the ``focused-vs-roni``
cross-product scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.base import Attack
from repro.attacks.variants import build_attack_variants
from repro.corpus.dataset import Dataset, LabeledMessage
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.engine.runner import ParallelRunner
from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.results import ExperimentRecord
from repro.rng import SeedSpawner
from repro.scenarios.protocols import prepare_inbox
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable

__all__ = [
    "RoniExperimentConfig",
    "RoniExperimentResult",
    "render_roni_result",
    "run_roni_gate",
]

PAPER_VARIANTS = (
    "optimal",
    "usenet",
    "usenet-half",
    "usenet-quarter",
    "usenet-tenth",
    "aspell",
    "informed",
)
"""Our seven dictionary-attack variants (the paper's are unnamed)."""


@dataclass(frozen=True)
class RoniExperimentConfig:
    """Sizes and knobs for the RONI evaluation."""

    pool_size: int = 400
    spam_prevalence: float = 0.50
    roni: RoniConfig = RoniConfig()
    n_nonattack_spam: int = 120
    repetitions_per_variant: int = 15
    variants: Sequence[str] = PAPER_VARIANTS
    informed_budget: int = 1_000
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 400
    corpus_spam: int = 400
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes for the per-repetition fan-out (results
    identical at any value)."""

    def __post_init__(self) -> None:
        if self.n_nonattack_spam < 1:
            raise ExperimentError("need at least one non-attack spam query")
        if self.repetitions_per_variant < 1:
            raise ExperimentError("need at least one repetition per variant")

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "RoniExperimentConfig":
        """The paper's counts: 120 non-attack spam, 15 reps per variant."""
        return cls(
            pool_size=1_000,
            n_nonattack_spam=120,
            repetitions_per_variant=15,
            corpus_ham=1_200,
            corpus_spam=1_200,
            seed=seed,
            workers=workers,
        )


@dataclass
class RoniExperimentResult:
    """Impact distributions and detection statistics."""

    config: RoniExperimentConfig
    attack_impacts: dict[str, list[float]] = field(default_factory=dict)
    nonattack_spam_impacts: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    # The paper's summary statistics
    # ------------------------------------------------------------------

    @property
    def min_attack_impact(self) -> float:
        """Smallest mean ham-as-ham decrease over all attack emails
        (paper: 6.8)."""
        return min(min(values) for values in self.attack_impacts.values())

    @property
    def max_nonattack_impact(self) -> float:
        """Largest mean ham-as-ham decrease over non-attack spam
        (paper: 4.4)."""
        return max(self.nonattack_spam_impacts)

    @property
    def separable(self) -> bool:
        """True when a single threshold separates attacks from spam."""
        return self.min_attack_impact > self.max_nonattack_impact

    def detection_rate(self, threshold: float) -> float:
        """Fraction of attack emails with impact >= threshold."""
        impacts = [v for values in self.attack_impacts.values() for v in values]
        return sum(1 for v in impacts if v >= threshold) / len(impacts)

    def false_positive_rate(self, threshold: float) -> float:
        """Fraction of non-attack spam with impact >= threshold."""
        return (
            sum(1 for v in self.nonattack_spam_impacts if v >= threshold)
            / len(self.nonattack_spam_impacts)
        )

    def to_record(self) -> ExperimentRecord:
        threshold = self.config.roni.ham_as_ham_threshold
        return ExperimentRecord(
            experiment="roni-defense",
            config={
                "pool_size": self.config.pool_size,
                "train_size": self.config.roni.train_size,
                "validation_size": self.config.roni.validation_size,
                "trials": self.config.roni.trials,
                "threshold": threshold,
                "seed": self.config.seed,
            },
            extras={
                "attack_impacts": self.attack_impacts,
                "nonattack_spam_impacts": self.nonattack_spam_impacts,
                "min_attack_impact": self.min_attack_impact,
                "max_nonattack_impact": self.max_nonattack_impact,
                "separable": self.separable,
                "detection_rate": self.detection_rate(threshold),
                "false_positive_rate": self.false_positive_rate(threshold),
            },
        )


@dataclass(frozen=True)
class _RoniContext:
    """Read-only worker context: the pool (pre-encoded), the attacks,
    the knobs.

    ``table`` is the pool's interning table: every defense built inside
    a worker shares it, so pool messages are encoded once per process
    no matter how many calibrations are drawn.
    """

    pool: Dataset
    table: TokenTable
    attacks: dict[str, Attack]
    config: RoniExperimentConfig
    spawner_seed: int


def _measure_attack_repetition(context: _RoniContext, rep: int) -> list[float]:
    """One calibration; one email of each variant measured against it.

    Repetitions always had their own labelled seed streams
    (``defense[rep]`` / ``attack[rep]``), so each is an independent,
    deterministic unit regardless of which process runs it.
    """
    spawner = SeedSpawner(context.spawner_seed)
    defense = RoniDefense(
        context.pool,
        spawner.rng(f"defense[{rep}]"),
        config=context.config.roni,
        options=context.config.options,
        table=context.table,
    )
    attack_rng = spawner.rng(f"attack[{rep}]")
    impacts = []
    for attack in context.attacks.values():
        batch = attack.generate(1, attack_rng)
        # ID-native: the batch's payload enters the gate as the encoded
        # array AttackBatch.encode produced — no string re-interning.
        measurement = defense.measure_batch(batch)[0]
        impacts.append(measurement.ham_as_ham_decrease)
    return impacts


def _measure_spam_batch(
    context: _RoniContext, task: tuple[int, tuple[LabeledMessage, ...]]
) -> list[float]:
    """One dedicated calibration measuring a slice of non-attack spam.

    The slice goes through :meth:`RoniDefense.measure_many`: encoded
    once, then swept trial-by-trial through the bulk scoring kernel.
    """
    rep, queries = task
    defense = RoniDefense(
        context.pool,
        SeedSpawner(context.spawner_seed).rng(f"spam-defense[{rep}]"),
        config=context.config.roni,
        options=context.config.options,
        table=context.table,
    )
    return [
        measurement.ham_as_ham_decrease
        for measurement in defense.measure_many(queries)
    ]


def run_roni_gate(config: RoniExperimentConfig) -> RoniExperimentResult:
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
    result = RoniExperimentResult(config=config)
    result.attack_impacts = {variant: [] for variant in attacks}
    context = _RoniContext(pool, prepared.table, attacks, config, prepared.spawner.seed)
    runner = ParallelRunner(config.workers)

    # Attack emails: a fresh RONI calibration per repetition, one email
    # of each variant measured against it.
    per_rep = runner.map(
        _measure_attack_repetition, context, list(range(config.repetitions_per_variant))
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
    for impacts in runner.map(_measure_spam_batch, context, batches):
        result.nonattack_spam_impacts.extend(impacts)
    return result


def render_roni_result(result: RoniExperimentResult) -> str:
    """Section 5.1's numbers."""
    threshold = result.config.roni.ham_as_ham_threshold
    headers = ["query kind", "n", "min impact", "mean impact", "max impact"]
    rows = []
    for variant, impacts in result.attack_impacts.items():
        rows.append(
            [
                f"attack:{variant}",
                len(impacts),
                f"{min(impacts):.2f}",
                f"{sum(impacts) / len(impacts):.2f}",
                f"{max(impacts):.2f}",
            ]
        )
    spam_impacts = result.nonattack_spam_impacts
    rows.append(
        [
            "non-attack spam",
            len(spam_impacts),
            f"{min(spam_impacts):.2f}",
            f"{sum(spam_impacts) / len(spam_impacts):.2f}",
            f"{max(spam_impacts):.2f}",
        ]
    )
    summary = (
        f"\nseparability: min attack impact {result.min_attack_impact:.2f} vs "
        f"max non-attack impact {result.max_nonattack_impact:.2f} "
        f"({'SEPARABLE' if result.separable else 'NOT separable'})\n"
        f"at threshold {threshold}: detection {result.detection_rate(threshold):.0%}, "
        f"false positives {result.false_positive_rate(threshold):.0%}\n"
        f"(paper: attack >= 6.8, non-attack <= 4.4, 100% detection, 0% FP; "
        f"impacts are mean ham-as-ham messages lost on a "
        f"{result.config.roni.validation_size}-message validation set)"
    )
    return format_table(headers, rows) + summary
