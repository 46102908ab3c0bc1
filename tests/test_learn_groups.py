"""Grouped training against the per-group loop it stands for.

``learn_groups``/``unlearn_groups`` take the ``(ids, is_spam, count)``
groups of :func:`~repro.corpus.dataset.group_token_ids`.  Their
contract is the loop of one ``learn_ids_repeated`` /
``unlearn_ids_repeated`` call per group, spelled out here: the same
count columns, global counts, vocabulary size and scores on both
count-column stores, with every check made before anything moves —
and the counts and scores the formula oracle gives for the same
history.  The classifier sums each label's groups with a chunked
bincount, so Hypothesis also shrinks the chunk budget to a few entries
and feeds rows as NumPy views (the parallel sweep's CSR rows), not
only ``array`` rows.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.spambayes import classifier as classifier_module
from repro.spambayes.classifier import Classifier
from repro.spambayes.token_table import TokenTable
from repro.storage.disk import MmapCountColumns
from spambayes_spec import SpecClassifier
from test_spec_oracle import assert_matches_oracle

VOCAB = [f"t{i:02d}" for i in range(30)]

STORES = ("memory", "disk")

token_sets = st.frozensets(st.sampled_from(VOCAB), max_size=12)
counts = st.sampled_from((0, 1, 1, 1, 2, 5))
groups_strategy = st.lists(st.tuples(token_sets, st.booleans(), counts), max_size=12)


class _Pair:
    """Two classifiers of one store over one table: ``grouped`` takes
    the grouped call, ``looped`` the per-group loop."""

    def __init__(self, store: str, directory: Path) -> None:
        self.table = TokenTable()
        self.columns = []
        self.grouped = self._make(store, directory / "grouped")
        self.looped = self._make(store, directory / "looped")

    def _make(self, store, stem):
        if store == "memory":
            return Classifier(table=self.table)
        columns = MmapCountColumns(stem)
        self.columns.append(columns)
        return Classifier(table=self.table, columns=columns)

    def encode(self, groups, as_ndarray: bool):
        encoded = []
        for tokens, is_spam, count in groups:
            ids = self.table.encode_unique(tokens)
            if as_ndarray:
                ids = np.asarray(ids, dtype=np.int64)
            encoded.append((ids, is_spam, count))
        return encoded

    def close(self) -> None:
        for columns in self.columns:
            columns.close()


def _state(classifier, table: TokenTable, queries) -> tuple:
    classifier._ensure_columns()
    n = len(table)
    return (
        classifier.nspam,
        classifier.nham,
        classifier.vocabulary_size,
        [int(count) for count in classifier._spam[:n]],
        [int(count) for count in classifier._ham[:n]],
        classifier.score_many_ids(queries),
    )


def _outcome(call):
    try:
        call()
    except TrainingError as exc:
        return str(exc)
    return None


def _run(store, body) -> None:
    with tempfile.TemporaryDirectory() as directory:
        pair = _Pair(store, Path(directory))
        try:
            body(pair)
        finally:
            pair.close()


def _small_budget(budget: int):
    """Chunk each label's bincount every ``budget`` joined entries."""
    return mock.patch.object(classifier_module, "_CANDIDATE_ENTRY_BUDGET", budget)


@pytest.mark.parametrize("store", STORES)
@given(
    history=groups_strategy,
    groups=groups_strategy,
    budget=st.integers(1, 40),
    ndarray_rows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_learn_groups_equals_the_per_group_loop(store, history, groups, budget, ndarray_rows):
    def body(pair):
        spec = SpecClassifier()
        for classifier in (pair.grouped, pair.looped):
            for ids, is_spam, count in pair.encode(history, False):
                classifier.learn_ids_repeated(ids, is_spam, count)
        encoded = pair.encode(groups, ndarray_rows)
        queries = [pair.table.encode_unique(VOCAB[i::7]) for i in range(7)]
        with _small_budget(budget):
            pair.grouped.learn_groups(encoded)
        for ids, is_spam, count in encoded:
            pair.looped.learn_ids_repeated(ids, is_spam, count)
        assert _state(pair.grouped, pair.table, queries) == _state(
            pair.looped, pair.table, queries
        )
        for tokens, is_spam, count in history + groups:
            spec.learn(tokens, is_spam, count)
        assert_matches_oracle(pair.grouped, spec)
        assert pair.grouped.score_many_ids(queries) == [
            spec.score(VOCAB[i::7]) for i in range(7)
        ]

    _run(store, body)


@pytest.mark.parametrize("store", STORES)
@given(
    history=groups_strategy.filter(bool),
    picks=st.lists(st.integers(0, 99), max_size=8),
    stranger=st.one_of(st.none(), st.tuples(token_sets, st.booleans(), counts)),
    budget=st.integers(1, 40),
    ndarray_rows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_unlearn_groups_equals_the_per_group_loop_or_changes_nothing(
    store, history, picks, stranger, budget, ndarray_rows
):
    """Groups drawn from the learned history (a group picked twice may
    over-remove), plus possibly one stranger: either both paths succeed
    with equal states, or both raise the same error and the grouped
    call leaves the state as it was."""

    def body(pair):
        for classifier in (pair.grouped, pair.looped):
            for ids, is_spam, count in pair.encode(history, False):
                classifier.learn_ids_repeated(ids, is_spam, count)
        chosen = [history[pick % len(history)] for pick in picks]
        if stranger is not None:
            chosen.insert(len(chosen) // 2, stranger)
        encoded = pair.encode(chosen, ndarray_rows)
        queries = [pair.table.encode_unique(VOCAB[i::5]) for i in range(5)]
        before = _state(pair.grouped, pair.table, queries)
        with _small_budget(budget):
            grouped_error = _outcome(lambda: pair.grouped.unlearn_groups(encoded))

        def loop():
            for ids, is_spam, count in encoded:
                pair.looped.unlearn_ids_repeated(ids, is_spam, count)

        assert grouped_error == _outcome(loop)
        if grouped_error is None:
            assert _state(pair.grouped, pair.table, queries) == _state(
                pair.looped, pair.table, queries
            )
        else:
            assert _state(pair.grouped, pair.table, queries) == before

    _run(store, body)


@pytest.mark.parametrize("store", STORES)
def test_empty_input_and_zero_counts_are_no_ops(store):
    def body(pair):
        classifier = pair.grouped
        classifier.learn_ids_repeated(pair.table.encode_unique(["a", "b"]), True, 2)
        zero = pair.encode([({"a", "c"}, True, 0), ({"b"}, False, 0)], False)
        queries = [pair.table.encode_unique(["a", "b", "c"])]
        before = _state(classifier, pair.table, queries)
        # A no-op call notes no mutation: the string path's memo (built
        # here) survives as the same list with no IDs queued to evict.
        classifier.score(["a", "b", "c"])
        memo = classifier._memo
        for call in (classifier.learn_groups, classifier.unlearn_groups):
            call([])
            call(iter(()))
            call(zero)
        assert _state(classifier, pair.table, queries) == before
        assert classifier._memo is memo and not classifier._dirty

    _run(store, body)


def test_negative_counts_are_rejected_before_any_change():
    table = TokenTable()
    classifier = Classifier(table=table)
    ids = table.encode_unique(["a", "b"])
    classifier.learn_ids_repeated(ids, True, 3)
    with pytest.raises(TrainingError, match="learn_repeated needs count >= 0, got -1"):
        classifier.learn_groups([(ids, True, 1), (ids, False, -1)])
    with pytest.raises(TrainingError, match="unlearn_repeated needs count >= 0, got -2"):
        classifier.unlearn_groups([(ids, True, 1), (ids, True, -2)])
    assert (classifier.nspam, classifier.nham, classifier.vocabulary_size) == (3, 0, 2)
    assert classifier.word_info("a").spamcount == 3
