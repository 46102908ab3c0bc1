"""Shared attack-payload ↔ dataset adapters.

Several experiment layers need to treat an
:class:`~repro.attacks.base.AttackBatch` as ordinary dataset members —
the threshold defense fits on "the poisoned training set, attack
messages included", the weekly retraining loop feeds attack arrivals
through the RONI gate, and the streaming engine does both per tick.
The adapter used to live in :mod:`repro.experiments.threshold_exp`,
which forced sibling experiments to import one experiment from
another; it lives here now, as shared experiment-layer plumbing.
"""

from __future__ import annotations

from repro.attacks.base import AttackBatch
from repro.corpus.dataset import LabeledMessage
from repro.spambayes.message import Email

__all__ = ["attack_messages_as_dataset"]


def attack_messages_as_dataset(batch: AttackBatch, start: int = 0) -> list[LabeledMessage]:
    """Materialize a batch as spam-labeled dataset members.

    Bodies stay empty — token caches are pre-seeded with the payload,
    which is all downstream training ever reads — so a thousand
    90k-token attack messages cost one shared frozenset, not gigabytes
    of rendered text.
    """
    messages: list[LabeledMessage] = []
    index = start
    for group in batch.groups:
        for _ in range(group.count):
            message = LabeledMessage(
                Email(body="", msgid=f"attack-{batch.attack_name}-{index:06d}"),
                is_spam=True,
            )
            message._tokens = group.training_tokens
            messages.append(message)
            index += 1
    return messages
