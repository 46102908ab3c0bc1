"""Good-word attacks: the Exploratory/Integrity quadrant.

The paper's taxonomy (Section 3.1) spans more than its own two
attacks.  Its related work (Section 6) contrasts them with the classic
*Exploratory Integrity* attacks — Lowd & Meek's "good word attacks"
and Wittel & Wu's common-word padding — where the adversary does NOT
touch training, but pads spam with hammy words so it slips past the
trained filter as a false negative.

Implementing that quadrant here gives the defense experiments an
Integrity-attack baseline to contrast with the paper's Availability
attacks (RONI, for instance, is a *training-time* gate and has no
purchase on an attack that never trains).

Two knowledge models are provided, mirroring Lowd & Meek:

* :class:`CommonWordGoodWordAttack` — *blind*: pad with words the
  attacker guesses are common in legitimate mail (e.g. a frequency-
  ranked word source), no filter access needed (Wittel & Wu).
* :class:`OracleGoodWordAttack` — *query access*: the attacker can ask
  the deployed filter for token scores (or infer them through
  classification queries) and picks the hammiest known tokens first
  (Lowd & Meek's setting, idealized to direct score queries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import AttackError
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email

__all__ = [
    "GoodWordResult",
    "CommonWordGoodWordAttack",
    "OracleGoodWordAttack",
]

@dataclass(frozen=True)
class GoodWordResult:
    """One padded spam message and its bookkeeping."""

    original: Email
    padded: Email
    added_words: tuple[str, ...]


def _pad_email(original: Email, words: Sequence[str]) -> Email:
    """Append the good words as an extra paragraph of the body."""
    if not words:
        return original
    padding = " ".join(words)
    body = f"{original.body}\n\n{padding}" if original.body else padding
    return Email(body=body, headers=list(original.headers), msgid=original.msgid)


class CommonWordGoodWordAttack:
    """Pad spam with words presumed common in legitimate email.

    The attacker holds an ordered word source (most-promising first,
    e.g. a Usenet frequency list) and no access to the victim's filter.
    """

    name = "goodword-common"

    def __init__(self, word_source: Iterable[str]) -> None:
        self.words = tuple(word_source)
        if not self.words:
            raise AttackError("good-word attack needs a non-empty word source")

    def pad(self, spam: Email, word_count: int, rng: random.Random | None = None) -> GoodWordResult:
        """Pad ``spam`` with ``word_count`` words from the source head.

        ``rng`` (optional) samples from the head with some spread so
        repeated attack emails are not byte-identical; deterministic
        head-take when omitted.
        """
        if word_count < 0:
            raise AttackError(f"word_count must be >= 0, got {word_count}")
        if word_count == 0:
            return GoodWordResult(spam, spam, ())
        if rng is None:
            chosen = self.words[:word_count]
        else:
            head = self.words[: max(word_count * 4, word_count)]
            chosen = tuple(rng.sample(head, min(word_count, len(head))))
        return GoodWordResult(spam, _pad_email(spam, chosen), tuple(chosen))


class OracleGoodWordAttack:
    """Pad spam with the hammiest tokens the oracle reveals.

    Models a Lowd-&-Meek attacker who can learn token scores from the
    deployed filter.  ``candidate_words`` bounds the attacker's
    querying budget: only those words are scored and ranked.
    """

    name = "goodword-oracle"

    def __init__(self, classifier: Classifier, candidate_words: Iterable[str]) -> None:
        candidates = set(candidate_words)
        if not candidates:
            raise AttackError("oracle good-word attack needs candidate words")
        # Rank by (spam score, word) ascending: the best good word is
        # the one the filter considers most hammy. Unknown words score
        # the prior and are useless (δ(E) drops them), so they sort to
        # the middle.  One vectorized f(w) scores every candidate.
        words = list(candidates)
        self._ranked = [word for _, word in sorted(zip(classifier.spam_probs(words), words))]

    @property
    def ranked_words(self) -> list[str]:
        return list(self._ranked)

    def pad(self, spam: Email, word_count: int) -> GoodWordResult:
        """Pad ``spam`` with the ``word_count`` hammiest known words."""
        if word_count < 0:
            raise AttackError(f"word_count must be >= 0, got {word_count}")
        chosen = tuple(self._ranked[:word_count])
        return GoodWordResult(spam, _pad_email(spam, chosen), chosen)
