"""Causative attacks against the SpamBayes learner.

Implements the attacks of Section 3 of the paper:

* :mod:`repro.attacks.dictionary` — Indiscriminate dictionary attacks:
  optimal (every token), Aspell and Usenet variants (Section 3.2),
* :mod:`repro.attacks.focused` — the Targeted focused attack with
  per-token guess probability (Section 3.3),
* :mod:`repro.attacks.knowledge` — the common optimal-attack framework
  of Section 3.4, where the attacker's knowledge is a distribution over
  the victim's next email,
* :mod:`repro.attacks.goodword` — the Exploratory good-word attacks
  the paper's related work contrasts with its own.

All attacks emit :class:`~repro.attacks.base.AttackBatch` objects,
which group identical payloads so the experiment harness can train
thousands of identical dictionary-attack messages in one pass.
"""

from repro.attacks.base import Attack, AttackBatch, AttackMessageGroup
from repro.attacks.goodword import (
    CommonWordGoodWordAttack,
    GoodWordResult,
    OracleGoodWordAttack,
)
from repro.attacks.dictionary import (
    AspellDictionaryAttack,
    DictionaryAttack,
    OptimalDictionaryAttack,
    UsenetDictionaryAttack,
)
from repro.attacks.focused import FocusedAttack, TargetKnowledge
from repro.attacks.knowledge import (
    EmpiricalHamDistribution,
    TokenDistribution,
    optimal_attack_tokens,
)

__all__ = [
    "Attack",
    "AttackBatch",
    "AttackMessageGroup",
    "DictionaryAttack",
    "OptimalDictionaryAttack",
    "AspellDictionaryAttack",
    "UsenetDictionaryAttack",
    "FocusedAttack",
    "TargetKnowledge",
    "CommonWordGoodWordAttack",
    "OracleGoodWordAttack",
    "GoodWordResult",
    "TokenDistribution",
    "EmpiricalHamDistribution",
    "optimal_attack_tokens",
]
