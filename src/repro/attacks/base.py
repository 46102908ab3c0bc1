"""Attack interfaces and the batched payload representation.

The experiment harness trains attacks by *token set*, not by rendered
email text: a 10% dictionary attack at paper scale is ~1,100 identical
messages of ~90,000 tokens each, and materializing megabyte bodies for
them would dominate every run.  :class:`AttackBatch` therefore groups
identical payloads — ``(tokens, count)`` pairs — which both
``Classifier.learn_repeated`` and the defenses consume directly.

Payloads are **ID-native** on the hot paths: :meth:`AttackBatch.encode`
interns every group's training token set into a shared
:class:`~repro.spambayes.token_table.TokenTable` exactly once per
(batch, table) pair, yielding sorted token-ID arrays that the sweep
engine's :class:`~repro.engine.sweep.IncrementalAttackTrainer`, the
:meth:`train_into_ids` fast path and the RONI gate consume directly —
no string is hashed inside a contamination loop.  The string-facing
:attr:`AttackMessageGroup.training_tokens` path remains
(:meth:`AttackBatch.train_into`) for callers that train by token set,
and ``tests/test_attack_id_payloads.py`` holds the two paths to equal
counts and scores.
"""

from __future__ import annotations

import abc
import random
from array import array
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from repro.errors import AttackError

if TYPE_CHECKING:  # imported for annotations only — keeps this module light
    from repro.spambayes.token_table import TokenTable

__all__ = ["AttackMessageGroup", "AttackBatch", "Attack"]


@dataclass(frozen=True)
class AttackMessageGroup:
    """``count`` identical attack messages sharing one token payload.

    ``header_tokens`` are trained alongside the body payload (the
    focused attack reuses real spam headers); they are kept separate so
    analysis can distinguish attacker-chosen words from header noise.
    """

    tokens: frozenset[str]
    count: int
    header_tokens: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise AttackError(f"attack message group needs count >= 1, got {self.count}")

    @property
    def training_tokens(self) -> frozenset[str]:
        """The full token set one trained attack message contributes."""
        if not self.header_tokens:
            return self.tokens
        return self.tokens | self.header_tokens

    def encode(self, table: "TokenTable") -> array:
        """This group's training token set as a sorted token-ID array.

        Interns new tokens into ``table`` — call on the classifier's
        (or corpus') shared table.  Prefer :meth:`AttackBatch.encode`,
        which caches the whole batch per table.
        """
        return table.encode_unique(self.training_tokens)


class AttackBatch:
    """An ordered collection of attack message groups.

    The batch for ``count`` dictionary-attack emails is a single group;
    the batch for a focused attack is ``count`` groups of one (each
    email carries a different stolen spam header).
    """

    def __init__(self, attack_name: str, groups: Sequence[AttackMessageGroup]) -> None:
        self.attack_name = attack_name
        self.groups = list(groups)
        # encode() cache: the encoded groups plus the table they were
        # interned into (identity-keyed, like LabeledMessage.token_ids).
        self._encoded: tuple[tuple[array, int], ...] | None = None
        self._encoded_table: "TokenTable | None" = None

    @property
    def message_count(self) -> int:
        return sum(group.count for group in self.groups)

    @property
    def distinct_tokens(self) -> frozenset[str]:
        """Union of all body-payload tokens across the batch."""
        tokens: set[str] = set()
        for group in self.groups:
            tokens |= group.tokens
        return frozenset(tokens)

    def encode(self, table: "TokenTable") -> tuple[tuple[array, int], ...]:
        """The batch as ``(sorted token-ID array, count)`` pairs.

        Every group's training token set is interned into ``table``
        exactly once per (batch, table) pair — repeat calls against the
        same table return the cached arrays, so a batch that is trained,
        measured and untrained (RONI, the focused cells) never re-hashes
        a payload string.  The cache never goes stale: tables are
        append-only, so assigned IDs cannot shift.  Encoding against a
        *different* table re-encodes (one batch normally lives its whole
        life against one corpus table).
        """
        if self._encoded is None or self._encoded_table is not table:
            self._encoded = tuple(
                (group.encode(table), group.count) for group in self.groups
            )
            self._encoded_table = table
        return self._encoded

    def train_into(self, classifier) -> None:
        """Train every message of the batch into ``classifier``.

        ``classifier`` is anything with ``learn_repeated(tokens,
        is_spam, count)`` — the contamination assumption trains attack
        email as spam, never ham (Section 2.2).  This is the
        string-payload path; hot loops use :meth:`train_into_ids`.
        """
        for group in self.groups:
            classifier.learn_repeated(group.training_tokens, True, group.count)

    def untrain_from(self, classifier) -> None:
        """Reverse :meth:`train_into` on the same classifier."""
        for group in self.groups:
            classifier.unlearn_repeated(group.training_tokens, True, group.count)

    def train_into_ids(self, classifier) -> None:
        """:meth:`train_into` through the interned-ID fast path.

        Encodes the batch against ``classifier.table`` (cached) and
        trains via ``learn_ids_repeated`` — bit-identical counts to
        :meth:`train_into`, with no per-token string hashing after the
        first encode.
        """
        for ids, count in self.encode(classifier.table):
            classifier.learn_ids_repeated(ids, True, count)

    def __len__(self) -> int:
        return self.message_count

    def __getstate__(self) -> dict:
        # The encode cache stays process-local: shipping it would
        # duplicate the arrays next to their table in the pickle, and a
        # receiver encoding against a different table must re-intern.
        state = self.__dict__.copy()
        state["_encoded"] = None
        state["_encoded_table"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"AttackBatch({self.attack_name!r}, messages={self.message_count}, "
            f"groups={len(self.groups)}, distinct_tokens={len(self.distinct_tokens)})"
        )


class Attack(abc.ABC):
    """Interface all attacks implement.

    An attack is a *message factory*: given a count and an RNG it emits
    the spam-labeled messages the adversary would send.
    """

    name: str = "attack"

    @abc.abstractmethod
    def generate(self, count: int, rng: random.Random) -> AttackBatch:
        """Produce ``count`` attack messages.

        Contract every implementation honours (and
        ``tests/test_attacks_base.py`` pins for each attack class):
        ``count == 0`` yields an **empty batch** — zero groups, zero
        messages, nothing drawn from ``rng`` beyond what batch
        construction needs — because a contamination sweep whose
        fractions include ``0.0`` (the clean-baseline point) computes
        an attack count of zero for it, and the
        :class:`AttackMessageGroup` invariant (``count >= 1``) forbids
        padding with zero-count groups.  Negative counts raise
        :class:`AttackError`.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
