"""The focused attack (Section 3.3): Causative Targeted Availability.

The attacker knows (part of) a specific future ham email — say, a
competitor's bid — and sends spam-labeled attack emails containing the
words they believe it will contain.  Training on those emails inflates
the spam score of exactly the target's tokens, so the target lands in
the spam or unsure folder while the rest of the victim's mail is
barely disturbed.

Knowledge is modeled per the paper's experiments: the attacker guesses
each token of the target independently with probability ``p``
(Figure 2 sweeps p ∈ {0.1, 0.3, 0.5, 0.9}).  The guess is made *once*
per attack — it represents what the attacker knows, so all attack
emails share the same guessed word set — while each email wears the
header block of a different randomly chosen real spam (Section 4.1).

Only *body* tokens are guessable: the attacker knows the message text,
not the header path it will take.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.attacks.base import Attack, AttackBatch, AttackMessageGroup
from repro.errors import AttackError
from repro.spambayes.message import Email
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

__all__ = ["TargetKnowledge", "FocusedAttack"]


@dataclass(frozen=True)
class TargetKnowledge:
    """What the attacker ended up knowing about the target email."""

    target_tokens: frozenset[str]
    guessed_tokens: frozenset[str]
    guess_probability: float


class FocusedAttack(Attack):
    """Inject spam containing guessed tokens of one target ham email."""

    def __init__(
        self,
        target: Email,
        guess_probability: float = 0.5,
        header_pool: Sequence[Email] = (),
        extra_words: Sequence[str] = (),
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ) -> None:
        """
        Parameters
        ----------
        target:
            The ham email the attacker wants filtered.
        guess_probability:
            Independent probability of knowing each target body token
            (1.0 = the paper's "knows the exact content" extreme).
        header_pool:
            Real spam messages whose headers attack emails will wear.
            Empty pool falls back to headerless attack emails.
        extra_words:
            Additional words the attacker mixes in ("the attack email
            may include additional words as well", Section 3.3).
        """
        if not 0.0 <= guess_probability <= 1.0:
            raise AttackError(
                f"guess_probability must be in [0, 1], got {guess_probability}"
            )
        self.name = "focused"
        self.target = target
        self.guess_probability = guess_probability
        self.header_pool = list(header_pool)
        self.extra_words = tuple(extra_words)
        self.tokenizer = tokenizer
        self._target_body_tokens = frozenset(tokenizer.tokenize_body(target.body))
        if not self._target_body_tokens:
            raise AttackError("focused attack target has no body tokens")

    @property
    def target_tokens(self) -> frozenset[str]:
        """The target's body token set (what the attacker tries to guess)."""
        return self._target_body_tokens

    def draw_knowledge(self, rng: random.Random) -> TargetKnowledge:
        """Sample the attacker's guess of the target's tokens."""
        p = self.guess_probability
        if p >= 1.0:
            guessed = self._target_body_tokens
        else:
            guessed = frozenset(
                token for token in sorted(self._target_body_tokens) if rng.random() < p
            )
        return TargetKnowledge(
            target_tokens=self._target_body_tokens,
            guessed_tokens=guessed,
            guess_probability=p,
        )

    def generate(self, count: int, rng: random.Random) -> AttackBatch:
        """``count`` attack emails sharing one guess, varying headers.

        With a header pool, each email becomes its own group (distinct
        stolen header tokens); without one, all emails are identical
        and collapse into a single group.
        """
        if count < 0:
            raise AttackError(f"attack count must be >= 0, got {count}")
        if count == 0:
            return AttackBatch(self.name, [])
        knowledge = self.draw_knowledge(rng)
        payload = frozenset(knowledge.guessed_tokens | set(self.extra_words))
        if not payload:
            # The attacker guessed nothing; attack emails still exist
            # (headers only) but carry no body payload.
            payload = frozenset()
        if not self.header_pool:
            groups = [AttackMessageGroup(tokens=payload, count=count)] if payload else []
            return AttackBatch(self.name, groups)
        groups = []
        for _ in range(count):
            source = rng.choice(self.header_pool)
            header_tokens = frozenset(self.tokenizer.tokenize_headers(source))
            groups.append(
                AttackMessageGroup(tokens=payload, count=1, header_tokens=header_tokens)
            )
        return AttackBatch(self.name, groups)
