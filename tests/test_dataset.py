"""Tests for Dataset operations: sampling, folds, message handles."""

from __future__ import annotations

import pytest

from repro.errors import CorpusError
from repro.rng import SeedSpawner
from repro.corpus.dataset import Dataset, LabeledMessage
from repro.spambayes.message import Email
from repro.spambayes.token_table import TokenTable


def make_dataset(n_ham: int, n_spam: int) -> Dataset:
    messages = [
        LabeledMessage(Email.build(body=f"ham words {i}", msgid=f"h{i}"), False)
        for i in range(n_ham)
    ]
    messages += [
        LabeledMessage(Email.build(body=f"spam words {i}", msgid=f"s{i}"), True)
        for i in range(n_spam)
    ]
    return Dataset(messages, name="test")


class TestBasics:
    def test_counts(self):
        dataset = make_dataset(3, 5)
        assert dataset.counts() == (3, 5)
        assert len(dataset) == 8
        assert dataset.spam_fraction == pytest.approx(5 / 8)

    def test_ham_spam_views(self):
        dataset = make_dataset(2, 3)
        assert all(not m.is_spam for m in dataset.ham)
        assert all(m.is_spam for m in dataset.spam)

    def test_empty_dataset(self):
        dataset = Dataset([])
        assert dataset.spam_fraction == 0.0
        assert dataset.counts() == (0, 0)

    def test_subset_shares_objects(self):
        dataset = make_dataset(4, 0)
        view = dataset.subset([0, 2])
        assert view[0] is dataset[0]
        assert view[1] is dataset[2]


class TestInboxSampling:
    def test_prevalence_respected(self):
        dataset = make_dataset(100, 100)
        inbox = dataset.sample_inbox(50, 0.6, SeedSpawner(1).rng("i"))
        assert len(inbox) == 50
        assert inbox.counts() == (20, 30)

    def test_without_replacement(self):
        dataset = make_dataset(30, 30)
        inbox = dataset.sample_inbox(40, 0.5, SeedSpawner(1).rng("i"))
        assert len({m.msgid for m in inbox}) == 40

    def test_insufficient_ham_rejected(self):
        dataset = make_dataset(5, 100)
        with pytest.raises(CorpusError):
            dataset.sample_inbox(50, 0.5, SeedSpawner(1).rng("i"))

    def test_insufficient_spam_rejected(self):
        dataset = make_dataset(100, 5)
        with pytest.raises(CorpusError):
            dataset.sample_inbox(50, 0.5, SeedSpawner(1).rng("i"))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(CorpusError):
            make_dataset(5, 5).sample_inbox(4, 1.5, SeedSpawner(1).rng("i"))

    def test_deterministic_given_rng(self):
        dataset = make_dataset(50, 50)
        a = dataset.sample_inbox(20, 0.5, SeedSpawner(2).rng("x"))
        b = dataset.sample_inbox(20, 0.5, SeedSpawner(2).rng("x"))
        assert [m.msgid for m in a] == [m.msgid for m in b]


class TestSplitAndFolds:
    def test_split_partitions(self):
        dataset = make_dataset(10, 10)
        first, second = dataset.split(0.5, SeedSpawner(1).rng("s"))
        assert len(first) == 10 and len(second) == 10
        ids = {m.msgid for m in first} | {m.msgid for m in second}
        assert len(ids) == 20

    def test_split_invalid_fraction(self):
        with pytest.raises(CorpusError):
            make_dataset(4, 4).split(0.0, SeedSpawner(1).rng("s"))

    def test_k_fold_indices_cover_everything_once(self):
        dataset = make_dataset(13, 12)
        seen_test_ids: list[str] = []
        for train, test in dataset.k_fold_indices(5, SeedSpawner(1).rng("f")):
            train_ids = {dataset[i].msgid for i in train}
            test_ids = {dataset[i].msgid for i in test}
            assert not (train_ids & test_ids)
            assert len(train_ids) + len(test_ids) == 25
            seen_test_ids.extend(test_ids)
        assert len(seen_test_ids) == 25
        assert len(set(seen_test_ids)) == 25

    def test_k_fold_indices_validation(self):
        with pytest.raises(CorpusError):
            make_dataset(3, 3).k_fold_indices(1, SeedSpawner(1).rng("f"))
        with pytest.raises(CorpusError):
            make_dataset(2, 1).k_fold_indices(10, SeedSpawner(1).rng("f"))


class TestMessageHandles:
    class _Bodies:
        """A mail source over a dict of bodies, counting its loads."""

        def __init__(self, bodies):
            self.bodies = bodies
            self.loads = []

        def load(self, key):
            self.loads.append(key)
            return Email.build(body=self.bodies[key], msgid=key)

        def msgid(self, key):
            return key

    def _lazy(self, body: str = "some words here"):
        source = self._Bodies({"lazy": body})
        return LabeledMessage(source, False, "lazy"), source.loads

    def test_tokens_are_transient(self):
        message = LabeledMessage(Email.build(body="some words here"), False)
        first = message.tokens()
        second = message.tokens()
        assert second == first
        assert second is not first  # built per call, never kept

    def test_loader_runs_once_per_message(self):
        message, loads = self._lazy()
        assert message.msgid == "lazy" and not loads  # a handle loads nothing
        table = TokenTable()
        row = message.token_ids(table)
        assert len(loads) == 1
        assert message.token_ids(table) is row
        # Strings come back from the table, not from another load.
        assert message.tokens() == {"some", "words", "here"}
        assert len(loads) == 1

    def test_moving_tables_decodes_instead_of_reloading(self):
        message, loads = self._lazy("cheap cash wire now")
        first_table, second_table = TokenTable(["zzz"]), TokenTable()
        message.token_ids(first_table)
        moved = message.token_ids(second_table)
        assert len(loads) == 1
        assert second_table.decode(moved) == sorted(["cheap", "cash", "wire", "now"])
        assert list(moved) == list(TokenTable().encode_unique(message.tokens()))

    def test_lazy_message_needs_its_key(self):
        with pytest.raises(CorpusError, match="key"):
            LabeledMessage(self._Bodies({}), False)

    def test_vocabulary_unions_tokens(self):
        dataset = make_dataset(2, 2)
        vocab = dataset.vocabulary()
        assert "ham" in vocab
        assert "spam" in vocab
