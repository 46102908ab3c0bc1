"""Shared attack-payload ↔ dataset adapters.

Several experiment layers need to treat an
:class:`~repro.attacks.base.AttackBatch` as ordinary dataset members —
the threshold defense fits on "the poisoned training set, attack
messages included", and the streaming engine feeds attack arrivals
through the RONI gate and the retrain every tick.  The adapter lives
here, as shared experiment-layer plumbing, so sibling experiments do
not import one another.
"""

from __future__ import annotations

from repro.attacks.base import AttackBatch
from repro.corpus.dataset import AttackPayload, LabeledMessage

__all__ = ["attack_messages_as_dataset"]


def attack_messages_as_dataset(batch: AttackBatch, start: int = 0) -> list[LabeledMessage]:
    """Materialize a batch as spam-labeled dataset members.

    Every message of one group is a handle over the group's shared
    payload: a thousand 90k-token attack messages cost one frozenset
    and, per table, one encoded row, not gigabytes of rendered text.
    """
    messages: list[LabeledMessage] = []
    index = start
    for group_index, group in enumerate(batch.groups):
        payload = AttackPayload(batch, group_index)
        for _ in range(group.count):
            messages.append(
                LabeledMessage(payload, True, f"attack-{batch.attack_name}-{index:06d}")
            )
            index += 1
    return messages
