"""The message-handle contract: generate only the sampled mail, encode
each message once, keep only its ID row; and the one grouping rule,
keyed on ID rows, partitions exactly as keying on token sets would.

The count test runs under whichever backend ``REPRO_STORE`` selects,
so the disk-store CI leg proves the same contract with its rows in
SQLite.
"""

from __future__ import annotations

import gc
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import AttackBatch, AttackMessageGroup
from repro.corpus.dataset import Dataset, LabeledMessage, group_token_ids
from repro.corpus.generator import EmailGenerator
from repro.corpus.trec import GeneratedMail
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.scenarios.protocols import prepare_inbox
from repro.scenarios.registry import get_scenario
from repro.spambayes.message import Email
from repro.spambayes.token_table import TokenTable
from repro.storage import DiskTokenTable


class TestPrepareInboxHandles:
    def test_only_sampled_mail_is_generated_and_encoded_once(self, monkeypatch):
        config = get_scenario("figure1-dictionary").build_config()
        assert (config.corpus_ham, config.corpus_spam, config.inbox_size) == (700, 700, 1000)

        generated: list[str] = []
        for name in ("ham_email", "spam_email"):
            original = getattr(EmailGenerator, name)

            def counting(self, index, _original=original):
                email = _original(self, index)
                generated.append(email.msgid)
                return email

            monkeypatch.setattr(EmailGenerator, name, counting)
        encoded: list[int] = []
        for cls in (TokenTable, DiskTokenTable):
            original = cls.encode_unique

            def counting_encode(table, tokens, _original=original):
                encoded.append(1)
                return _original(table, tokens)

            monkeypatch.setattr(cls, "encode_unique", counting_encode)

        prepared = prepare_inbox(config, spawn_label="dictionary-experiment")
        inbox = prepared.inbox

        # Exactly the sampled mail, each message generated once, in
        # inbox order; one encode per sampled message.
        assert len(inbox) == 1000
        assert generated == [message.msgid for message in inbox]
        assert len(encoded) == 1000
        # Afterwards a message holds its label, its source (one per
        # corpus class) with its index, and its row: no email and no
        # token set.
        sources = {message._source for message in prepared.corpus.dataset}
        assert {type(source) for source in sources} == {GeneratedMail}
        assert len(sources) == 2
        for message in inbox:
            for obj in gc.get_referents(message):
                assert not isinstance(obj, (Email, frozenset, set, list, str))
            assert isinstance(message._key, int)
            assert isinstance(message._row, (array, int))
            assert message._table is prepared.table


# ----------------------------------------------------------------------
# group_token_ids: ID-row keys == token-set keys
# ----------------------------------------------------------------------

WORDS = ("alpha", "bravo", "charlie", "delta", "echo")
word_sets = st.frozensets(st.sampled_from(WORDS), max_size=3)
mail = st.tuples(st.booleans(), word_sets)
attack_batch = st.lists(
    st.tuples(st.frozensets(st.sampled_from(WORDS), min_size=1, max_size=3),
              st.integers(1, 3)),
    min_size=1,
    max_size=3,
)


def _token_set_oracle(keys):
    """First-seen grouping on ``(is_spam, token set)``."""
    slot_of: dict = {}
    firsts, counts, slots = [], [], []
    for key in keys:
        slot = slot_of.setdefault(key, len(firsts))
        if slot == len(firsts):
            firsts.append(key)
            counts.append(0)
        counts[slot] += 1
        slots.append(slot)
    return firsts, counts, slots


class _CountingTable(TokenTable):
    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__()
        self.calls: list = []

    def encode_unique(self, tokens):
        self.calls.append(tokens)
        return super().encode_unique(tokens)


@settings(max_examples=60, deadline=None)
@given(
    mails=st.lists(mail, max_size=12),
    batches=st.lists(attack_batch, max_size=3),
    data=st.data(),
)
def test_row_keys_partition_like_token_sets(mails, batches, data):
    messages = [
        LabeledMessage(
            Email.build(body=" ".join(sorted(words)), msgid=f"m{i}"), is_spam, f"m{i}"
        )
        for i, (is_spam, words) in enumerate(mails)
    ]
    keys = [(is_spam, words) for is_spam, words in mails]
    attack_batches = []
    for b, groups in enumerate(batches):
        batch = AttackBatch(
            f"a{b}", [AttackMessageGroup(tokens=payload, count=n) for payload, n in groups]
        )
        attack_batches.append(batch)
        messages += attack_messages_as_dataset(batch, start=100 * b)
        keys += [(True, group.tokens) for group in batch.groups for _ in range(group.count)]
    order = data.draw(st.permutations(range(len(messages))))
    messages = [messages[i] for i in order]
    keys = [keys[i] for i in order]

    table = _CountingTable()
    groups, slots = group_token_ids(Dataset(messages), table)
    firsts, counts, expected_slots = _token_set_oracle(keys)

    assert slots == expected_slots
    assert [(is_spam, frozenset(table.decode(row))) for row, is_spam, _ in groups] == firsts
    assert [count for _, _, count in groups] == counts
    # Every attack group is encoded exactly once (its copies share the
    # row), every other message once.
    payloads = [group.training_tokens for batch in attack_batches for group in batch.groups]
    attack_calls = [tokens for tokens in table.calls if any(tokens is p for p in payloads)]
    assert len(attack_calls) == len(payloads)
    assert len(table.calls) == len(payloads) + len(mails)
    # A second pass is all cache: nothing is encoded again.
    assert group_token_ids(messages, table) == (groups, slots)
    assert len(table.calls) == len(payloads) + len(mails)
