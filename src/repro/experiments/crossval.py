"""Cross-validated attack sweeps — the engine behind Figures 1 and 5.

The paper's protocol (Section 4.1): partition an N-message inbox into
K folds; for each fold, train on the other K-1 folds plus the attack
messages and classify the held-out fold; report rates pooled over
folds.  Attack strength is swept as "percent control of the training
set": a fraction ``f`` corresponds to ``round(N * f / (1 - f))``
attack messages (1% of a 10,000-message inbox = 101 messages, exactly
the paper's accounting).

The machinery lives in :mod:`repro.engine.sweep`; this module is the
experiment-layer facade and keeps the historical names importable.
:func:`attack_fraction_sweep` routes through the engine, which adds —
without changing any result —

* *fold models by subtraction* — one full-inbox model shared per
  sweep; each fold snapshots it, unlearns its held-out stripe, and
  restores afterwards, instead of retraining K times;
* *bulk scoring* — held-out folds score through
  :meth:`Classifier.score_many`;
* *process fan-out* — ``workers=N`` spreads folds across worker
  processes with pre-drawn per-fold seeds, bit-identical to
  ``workers=1``.

The older optimizations still apply: *grouped training*
(:func:`repro.corpus.dataset.train_grouped`) collapses identical token
sets into one ``learn_repeated`` call, and *incremental contamination*
sweeps fractions in ascending order so attack batches are layered on
top of each fold's classifier batch by batch (exact, because learning only
sums counts).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.corpus.dataset import Dataset
from repro.attacks.base import Attack
from repro.engine.sweep import (
    AttackSweepPoint,
    IncrementalAttackTrainer,
    SweepSpec,
    attack_message_count,
    evaluate_dataset,
    run_attack_sweeps,
)
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = [
    "AttackSweepPoint",
    "attack_message_count",
    "evaluate_dataset",
    "attack_fraction_sweep",
]

# Historical private name; the threshold and focused drivers grew up
# importing it from here.
_IncrementalAttackTrainer = IncrementalAttackTrainer


def attack_fraction_sweep(
    inbox: Dataset,
    attack: Attack,
    fractions: Sequence[float],
    folds: int,
    rng: random.Random,
    options: ClassifierOptions = DEFAULT_OPTIONS,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ham_only: bool = False,
    workers: int | None = 1,
) -> list[AttackSweepPoint]:
    """Sweep contamination levels for ``attack`` over a K-fold protocol.

    Returns one pooled :class:`AttackSweepPoint` per fraction, in the
    (ascending) order given.  ``fractions`` may start at 0.0 to include
    the clean baseline.  ``workers`` fans folds out across processes;
    results are identical at any value.
    """
    spec = SweepSpec(
        key=attack.name or "attack",
        attack=attack,
        fractions=tuple(fractions),
        ham_only=ham_only,
    )
    (result,) = run_attack_sweeps(
        inbox,
        [(spec, rng)],
        folds,
        options=options,
        tokenizer=tokenizer,
        workers=workers,
    )
    return result.points
