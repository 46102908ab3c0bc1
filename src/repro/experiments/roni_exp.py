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

This module holds the experiment's definition (config, result, the
picklable measurement workers); orchestration runs as the
``roni-defense`` scenario (:mod:`repro.scenarios.protocols`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.base import Attack
from repro.corpus.dataset import Dataset, LabeledMessage
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.errors import ExperimentError
from repro.experiments.results import ExperimentRecord
from repro.rng import SeedSpawner
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable

__all__ = ["RoniExperimentConfig", "RoniExperimentResult"]

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
