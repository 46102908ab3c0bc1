"""The common optimal-attack framework of Section 3.4.

The dictionary and focused attacks are two points on a knowledge
spectrum.  Formally: the attacker holds a distribution ``p`` over the
victim's next email — ``p_w`` is the probability that word ``w``
appears in it — and wants the attack email ``a`` maximizing the
expected post-training spam score ``E_{m~p}[I_a(m)]``.

The paper's two observations make the optimum easy to characterize:

1. token scores don't interact — adding word ``w`` to the attack never
   changes ``f(u)`` for ``u != w`` (Equations 1-2 touch only ``w``'s
   own counts), and
2. ``I`` is monotonically non-decreasing in every ``f(w)``.

Hence more words never hurt, and under a *budget* of ``n`` attack
tokens the optimum is simply the ``n`` words with the largest ``p_w``.
The extremes recover the paper's attacks:

* ``p`` uniform over all emails → include everything → dictionary
  attack;
* ``p`` an indicator of one known target → include the target's words
  → focused attack.

:class:`EmpiricalHamDistribution` sits between the extremes: it
estimates ``p_w`` from a sample of ham the attacker has seen (the
"distribution of words in English text" refinement the paper leaves to
future work), and :func:`optimal_attack_tokens` turns any distribution
plus a budget into a concrete attack payload.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Protocol

from repro.attacks.dictionary import DictionaryAttack
from repro.corpus.dataset import Dataset
from repro.errors import AttackError
from repro.spambayes.message import Email
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = [
    "TokenDistribution",
    "EmpiricalHamDistribution",
    "optimal_attack_tokens",
    "budgeted_attack",
]


class TokenDistribution(Protocol):
    """Attacker's belief: per-word appearance probability ``p_w``."""

    def probability(self, word: str) -> float:
        """P[word appears in the victim's next email]."""
        ...

    def ranked_words(self) -> list[tuple[str, float]]:
        """All known words, highest probability first."""
        ...


class EmpiricalHamDistribution:
    """``p_w`` estimated from ham the attacker managed to observe.

    ``p_w`` = fraction of observed ham messages containing ``w``.
    Header tokens are excluded — the attacker cannot inject them, so
    they are never useful payload.
    """

    def __init__(self, sample: Iterable[Email] | Dataset, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> None:
        document_frequency: Counter[str] = Counter()
        count = 0
        for item in sample:
            email = item.email if hasattr(item, "email") else item
            tokens = frozenset(tokenizer.tokenize_body(email.body))
            document_frequency.update(tokens)
            count += 1
        if count == 0:
            raise AttackError("EmpiricalHamDistribution needs at least one sample email")
        self._probabilities = {
            word: occurrences / count for word, occurrences in document_frequency.items()
        }
        self.sample_size = count

    def probability(self, word: str) -> float:
        return self._probabilities.get(word, 0.0)

    def ranked_words(self) -> list[tuple[str, float]]:
        return sorted(self._probabilities.items(), key=lambda item: (-item[1], item[0]))

    def __len__(self) -> int:
        return len(self._probabilities)


def optimal_attack_tokens(distribution: TokenDistribution, budget: int | None = None) -> frozenset[str]:
    """The optimal attack payload under a token budget.

    By the Section 3.4 monotonicity argument the optimum keeps the
    ``budget`` highest-probability words (all words when unbudgeted).
    Words with ``p_w = 0`` are never included — they cannot raise the
    expected score of any email the attacker believes possible.
    """
    ranked = [(word, p) for word, p in distribution.ranked_words() if p > 0.0]
    if budget is not None:
        if budget < 1:
            raise AttackError(f"budget must be >= 1, got {budget}")
        ranked = ranked[:budget]
    if not ranked:
        raise AttackError("distribution assigns zero probability to every word")
    return frozenset(word for word, _ in ranked)


def budgeted_attack(
    distribution: TokenDistribution,
    budget: int | None = None,
    name: str = "informed",
) -> DictionaryAttack:
    """Package :func:`optimal_attack_tokens` as a runnable attack."""
    return DictionaryAttack(optimal_attack_tokens(distribution, budget), name=name)
