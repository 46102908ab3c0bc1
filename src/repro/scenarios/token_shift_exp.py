"""Figure 4: token score movement under the focused attack.

Protocol (Section 4.3): train a clean inbox, then for each of a pool of
target ham emails *not* in the inbox build a focused attack batch
(guess probability p = 0.5, as in the paper's panels) and compare every target token's smoothed
spam score f(w) before and after training on it
(:func:`repro.analysis.token_shift.token_shift_analysis`).  The paper
shows three representative targets — one that ends up spam, one
unsure, one still ham — as before/after scatter plots: tokens included
in the attack jump toward 1.0, excluded tokens dip slightly.

Attack batches draw from one sequential stream, so they are built in
the parent in target order; each target's analysis is then one task,
bit-identical at any worker count (the analysis untrains its batch, so
the inline path hands every task the same clean model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.token_shift import TokenShiftReport, token_shift_analysis
from repro.attacks.base import AttackBatch
from repro.attacks.focused import FocusedAttack
from repro.corpus.dataset import train_grouped
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE, VocabularyProfile
from repro.engine.runner import ParallelRunner
from repro.errors import ExperimentError
from repro.experiments.results import ExperimentRecord
from repro.scenarios.protocols import prepare_inbox
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email
from repro.spambayes.ndkernel import create_classifier

__all__ = [
    "TokenShiftExperimentConfig",
    "TokenShiftResult",
    "render_token_shift_result",
    "run_token_shift",
]

OUTCOMES = ("spam", "unsure", "ham")
"""The target labels after the attack, in the paper's panel order."""

GUESS_PROBABILITY = 0.5


@dataclass(frozen=True)
class TokenShiftExperimentConfig:
    """Sizes and knobs for a Figure 4 run.

    Defaults are 1/5-scale (inbox 1,000, 60 attack emails — Figure 2's
    6% contamination); :meth:`paper_scale` restores Section 4.3's sizes.
    """

    inbox_size: int = 1_000
    spam_prevalence: float = 0.50
    n_targets: int = 40
    attack_count: int = 60
    profile: VocabularyProfile = SMALL_PROFILE
    corpus_ham: int = 700
    corpus_spam: int = 700
    seed: int = 0
    workers: int = 1
    """Worker processes for the per-target fan-out (results identical
    at any value)."""

    def __post_init__(self) -> None:
        if self.n_targets < 1:
            raise ExperimentError("need at least one target")

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "TokenShiftExperimentConfig":
        """Section 4.3's sizes: 5,000-message inbox, 300 attack emails,
        60 candidate targets."""
        return cls(
            inbox_size=5_000,
            n_targets=60,
            attack_count=300,
            profile=PAPER_PROFILE,
            corpus_ham=3_100,
            corpus_spam=3_100,
            seed=seed,
            workers=workers,
        )


@dataclass
class TokenShiftResult:
    """Figure 4: one token-shift report per target, in target order."""

    config: TokenShiftExperimentConfig
    reports: list[TokenShiftReport] = field(default_factory=list)

    def outcome_counts(self) -> dict[str, int]:
        """How many targets ended up spam, unsure and ham."""
        return {
            outcome: sum(1 for r in self.reports if r.label_after.value == outcome)
            for outcome in OUTCOMES
        }

    def to_record(self) -> ExperimentRecord:
        return ExperimentRecord(
            experiment="figure4-token-shift",
            config={
                "inbox_size": self.config.inbox_size,
                "attack_count": self.config.attack_count,
                "n_targets": self.config.n_targets,
                "seed": self.config.seed,
            },
            extras={
                "outcomes": self.outcome_counts(),
                "targets": [
                    {
                        "msgid": r.target_msgid,
                        "label_before": r.label_before.value,
                        "label_after": r.label_after.value,
                        "score_before": r.score_before,
                        "score_after": r.score_after,
                        "included": len(r.included_shifts),
                        "excluded": len(r.excluded_shifts),
                        "included_mean_delta": r.mean_delta(included=True),
                        "excluded_mean_delta": r.mean_delta(included=False),
                    }
                    for r in self.reports
                ],
            },
        )


def _analyse_target(classifier: Classifier, task: tuple[Email, AttackBatch]) -> TokenShiftReport:
    email, batch = task
    return token_shift_analysis(classifier, email, batch)


def run_token_shift(config: TokenShiftExperimentConfig) -> TokenShiftResult:
    """Figure 4: per-token score shifts of each target under its attack."""
    prepared = prepare_inbox(config, spawn_label="token-shift-experiment")
    classifier = create_classifier(table=prepared.table)
    train_grouped(classifier, prepared.inbox)

    inbox_ids = {message.msgid for message in prepared.inbox}
    targets = [m for m in prepared.corpus.dataset.ham if m.msgid not in inbox_ids]
    if len(targets) < config.n_targets:
        raise ExperimentError(
            f"only {len(targets)} ham outside the inbox; need {config.n_targets} targets"
        )
    header_pool = [message.email for message in prepared.inbox.spam]
    rng = prepared.spawner.rng("attacks")
    tasks = []
    for target in targets[: config.n_targets]:
        email = target.email
        attack = FocusedAttack(email, guess_probability=GUESS_PROBABILITY, header_pool=header_pool)
        tasks.append((email, attack.generate(config.attack_count, rng)))
    reports = ParallelRunner(config.workers).map(_analyse_target, classifier, tasks)
    return TokenShiftResult(config=config, reports=reports)


def render_token_shift_result(result: TokenShiftResult) -> str:
    """Figure 4's panels: the first target of each outcome, as the paper
    shows one of each."""
    counts = result.outcome_counts()
    panels = [
        next(r for r in result.reports if r.label_after.value == outcome).render()
        for outcome, count in counts.items()
        if count
    ]
    return (
        f"outcomes over {len(result.reports)} targets: {counts}\n\n"
        + "\n\n".join(panels)
        + "\n\npaper: included tokens (x) jump toward 1.0, excluded (o) dip slightly;"
        + "\nthe outcome (spam/unsure/ham) depends on how much was guessed."
    )
