"""Grouped training against the per-group loop it stands for.

``learn_groups``/``unlearn_groups`` take the ``(ids, is_spam, count)``
groups of :func:`~repro.corpus.dataset.group_token_ids`.  Their
contract is the loop of one ``learn_ids_repeated`` /
``unlearn_ids_repeated`` call per group: the same count columns,
global counts, vocabulary size and scores on both kernels and both
count-column stores, with every check made before anything moves.
The NumPy kernel sums each label's groups with a chunked bincount, so
Hypothesis also shrinks the chunk budget to a few entries and feeds
rows as NumPy views (the parallel sweep's CSR rows), not only
``array`` rows.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.spambayes import ndkernel
from repro.spambayes.classifier import Classifier
from repro.spambayes.ndkernel import NDClassifier
from repro.spambayes.token_table import TokenTable
from repro.storage.disk import MmapCountColumns

VOCAB = [f"t{i:02d}" for i in range(30)]

KERNELS = [
    Classifier,
    pytest.param(
        NDClassifier,
        marks=pytest.mark.skipif(not ndkernel.available(), reason="NumPy absent"),
    ),
]
STORES = ("memory", "disk")

token_sets = st.frozensets(st.sampled_from(VOCAB), max_size=12)
counts = st.sampled_from((0, 1, 1, 1, 2, 5))
groups_strategy = st.lists(st.tuples(token_sets, st.booleans(), counts), max_size=12)


class _Pair:
    """Two classifiers of one kernel and store over one table: ``grouped``
    takes the grouped call, ``looped`` the per-group loop."""

    def __init__(self, kernel, store: str, directory: Path) -> None:
        self.table = TokenTable()
        self.columns = []
        self.grouped = self._make(kernel, store, directory / "grouped")
        self.looped = self._make(kernel, store, directory / "looped")

    def _make(self, kernel, store, stem):
        if store == "memory":
            return kernel(table=self.table)
        columns = MmapCountColumns(stem, "nd" if kernel is NDClassifier else "pure")
        self.columns.append(columns)
        return kernel(table=self.table, columns=columns)

    def encode(self, groups, as_ndarray: bool):
        encoded = []
        for tokens, is_spam, count in groups:
            ids = self.table.encode_unique(tokens)
            if as_ndarray:
                ids = ndkernel.np.asarray(ids, dtype=ndkernel.np.int64)
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


def _run(kernel, store, body) -> None:
    with tempfile.TemporaryDirectory() as directory:
        pair = _Pair(kernel, store, Path(directory))
        try:
            body(pair)
        finally:
            pair.close()


def _as_ndarray(kernel, flag: bool) -> bool:
    # The pure kernel never receives NumPy rows: only the parallel
    # sweep builds them, and only on the NumPy kernel.
    return flag and kernel is NDClassifier


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("kernel", KERNELS)
@given(
    history=groups_strategy,
    groups=groups_strategy,
    budget=st.integers(1, 40),
    ndarray_rows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_learn_groups_equals_the_per_group_loop(kernel, store, history, groups, budget, ndarray_rows):
    def body(pair):
        as_ndarray = _as_ndarray(kernel, ndarray_rows)
        for classifier in (pair.grouped, pair.looped):
            for ids, is_spam, count in pair.encode(history, False):
                classifier.learn_ids_repeated(ids, is_spam, count)
        encoded = pair.encode(groups, as_ndarray)
        queries = [pair.table.encode_unique(VOCAB[i::7]) for i in range(7)]
        with mock.patch.object(ndkernel, "_CANDIDATE_ENTRY_BUDGET", budget):
            pair.grouped.learn_groups(encoded)
        for ids, is_spam, count in encoded:
            pair.looped.learn_ids_repeated(ids, is_spam, count)
        assert _state(pair.grouped, pair.table, queries) == _state(
            pair.looped, pair.table, queries
        )

    _run(kernel, store, body)


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("kernel", KERNELS)
@given(
    history=groups_strategy.filter(bool),
    picks=st.lists(st.integers(0, 99), max_size=8),
    stranger=st.one_of(st.none(), st.tuples(token_sets, st.booleans(), counts)),
    budget=st.integers(1, 40),
    ndarray_rows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_unlearn_groups_equals_the_per_group_loop_or_changes_nothing(
    kernel, store, history, picks, stranger, budget, ndarray_rows
):
    """Groups drawn from the learned history (a group picked twice may
    over-remove), plus possibly one stranger: either both paths succeed
    with equal states, or both raise the same error and the grouped
    call leaves the state as it was."""

    def body(pair):
        as_ndarray = _as_ndarray(kernel, ndarray_rows)
        for classifier in (pair.grouped, pair.looped):
            for ids, is_spam, count in pair.encode(history, False):
                classifier.learn_ids_repeated(ids, is_spam, count)
        chosen = [history[pick % len(history)] for pick in picks]
        if stranger is not None:
            chosen.insert(len(chosen) // 2, stranger)
        encoded = pair.encode(chosen, as_ndarray)
        queries = [pair.table.encode_unique(VOCAB[i::5]) for i in range(5)]
        before = _state(pair.grouped, pair.table, queries)
        with mock.patch.object(ndkernel, "_CANDIDATE_ENTRY_BUDGET", budget):
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

    _run(kernel, store, body)


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_empty_input_and_zero_counts_are_no_ops(kernel, store):
    def body(pair):
        classifier = pair.grouped
        classifier.learn_ids_repeated(pair.table.encode_unique(["a", "b"]), True, 2)
        zero = pair.encode([({"a", "c"}, True, 0), ({"b"}, False, 0)], False)
        queries = [pair.table.encode_unique(["a", "b", "c"])]
        before = _state(classifier, pair.table, queries)
        generation = classifier._generation
        for call in (classifier.learn_groups, classifier.unlearn_groups):
            call([])
            call(iter(()))
            call(zero)
        assert _state(classifier, pair.table, queries) == before
        assert classifier._generation == generation

    _run(kernel, store, body)


@pytest.mark.parametrize("kernel", KERNELS)
def test_negative_counts_are_rejected_before_any_change(kernel):
    table = TokenTable()
    classifier = kernel(table=table)
    ids = table.encode_unique(["a", "b"])
    classifier.learn_ids_repeated(ids, True, 3)
    with pytest.raises(TrainingError, match="learn_repeated needs count >= 0, got -1"):
        classifier.learn_groups([(ids, True, 1), (ids, False, -1)])
    with pytest.raises(TrainingError, match="unlearn_repeated needs count >= 0, got -2"):
        classifier.unlearn_groups([(ids, True, 1), (ids, True, -2)])
    assert (classifier.nspam, classifier.nham, classifier.vocabulary_size) == (3, 0, 2)
    assert classifier.word_info("a").spamcount == 3
