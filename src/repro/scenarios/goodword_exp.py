"""Evasion-cost experiment for the Exploratory good-word attacks.

Lowd & Meek's cost metric for Exploratory Integrity attacks: *how many
good words must be added to a spam message before the filter passes
it?*  This experiment measures that distribution for both of our
knowledge models (blind common-word padding vs score-oracle padding)
against a clean filter and against a filter hardened by retraining —
giving the paper's related-work contrast (Section 6) a quantitative
footing inside this reproduction.

Output: per attacker model, the evasion rate as a function of the
word budget, and the median words-to-evade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.goodword import CommonWordGoodWordAttack, OracleGoodWordAttack
from repro.corpus.dataset import train_grouped
from repro.corpus.vocabulary import VocabularyProfile, SMALL_PROFILE
from repro.corpus.wordlists import build_usenet_wordlist
from repro.engine.runner import ParallelRunner
from repro.errors import ExperimentError
from repro.experiments.results import CurvePoint, ExperimentRecord, Series
from repro.scenarios.protocols import prepare_inbox
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER

__all__ = [
    "GoodWordExperimentConfig",
    "GoodWordExperimentResult",
    "run_goodword_evasion",
]


@dataclass(frozen=True)
class GoodWordExperimentConfig:
    """Sizes and knobs for the evasion-cost experiment."""

    inbox_size: int = 1_000
    spam_prevalence: float = 0.50
    n_test_spam: int = 60
    word_budgets: Sequence[int] = (0, 10, 25, 50, 100, 200, 400)
    oracle_candidates: int = 3_000
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 700
    corpus_spam: int = 700
    seed: int = 0
    options: ClassifierOptions = DEFAULT_OPTIONS
    workers: int = 1
    """Worker processes for the per-message fan-out (results identical
    at any value)."""

    def __post_init__(self) -> None:
        if list(self.word_budgets) != sorted(set(self.word_budgets)):
            raise ExperimentError("word_budgets must be strictly ascending")
        if self.n_test_spam < 1:
            raise ExperimentError("need at least one test spam")


@dataclass
class GoodWordExperimentResult:
    """Evasion rates per attacker model and word budget."""

    config: GoodWordExperimentConfig
    evasion: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    """model name -> [(budget, fraction of spam evading)]"""
    median_words_to_evade: dict[str, int | None] = field(default_factory=dict)
    """None when more than half the spam never evades within budget."""

    def to_record(self) -> ExperimentRecord:
        series = [
            Series(
                name=model,
                points=[
                    CurvePoint(x=float(budget), ham_as_spam_rate=0.0,
                               ham_misclassified_rate=rate)
                    for budget, rate in points
                ],
            )
            for model, points in self.evasion.items()
        ]
        return ExperimentRecord(
            experiment="goodword-evasion-cost",
            config={
                "inbox_size": self.config.inbox_size,
                "n_test_spam": self.config.n_test_spam,
                "word_budgets": list(self.config.word_budgets),
                "seed": self.config.seed,
            },
            series=series,
            extras={"median_words_to_evade": self.median_words_to_evade},
        )


@dataclass(frozen=True)
class _GoodWordContext:
    """Read-only worker context: the trained filter and the attackers."""

    classifier: Classifier
    attackers: dict[str, CommonWordGoodWordAttack | OracleGoodWordAttack]
    budgets: tuple[int, ...]
    spam_cutoff: float


def _evade_one_message(context: _GoodWordContext, email: Email) -> dict[str, list[bool]]:
    """Per attacker model: did this spam evade at each word budget?"""
    outcome: dict[str, list[bool]] = {}
    for model_name, attacker in context.attackers.items():
        flags = []
        for budget in context.budgets:
            padded = attacker.pad(email, budget).padded
            score = context.classifier.score(DEFAULT_TOKENIZER.tokenize(padded))
            flags.append(score <= context.spam_cutoff)
        outcome[model_name] = flags
    return outcome


def run_goodword_evasion(config: GoodWordExperimentConfig) -> GoodWordExperimentResult:
    """Evasion rate vs word budget for both attacker knowledge models."""
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
    context = _GoodWordContext(
        classifier, attackers, tuple(config.word_budgets), spam_cutoff
    )
    per_message = ParallelRunner(config.workers).map(
        _evade_one_message, context, [message.email for message in caught]
    )

    result = GoodWordExperimentResult(config=config)
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
