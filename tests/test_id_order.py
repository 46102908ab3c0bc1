"""The ID-scoring order's hard cases, held to the formula oracle.

Every ID-scoring call orders a batch's distinct token IDs by
``(-strength, token text)`` — one stable argsort over the IDs taken in
text order — and sorts fused ``(row << 32) | ordinal`` keys.  These
tests pin the cases that order has to get right, bit for bit against
:class:`spambayes_spec.SpecClassifier`, through all three entry points
(:meth:`Classifier.score_workspace`, :meth:`Classifier.score_many_ids`,
:meth:`Classifier.score_under_candidates`) and with the counts in
memory and on memory-mapped files:

* equal-strength ties between ``p`` and ``1 - p`` at ``nspam == nham``
  (mirrored counts), where only the text decides the order — and with
  token IDs interned in reverse text order, so ID order is wrong;
* rows with more than ``max_discriminators`` significant tokens;
* empty rows, and rows of zero-count IDs only;
* a workspace built (and scored) before the table grows, scored after.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.spambayes.classifier import Classifier, ScoringWorkspace
from repro.spambayes.options import DEFAULT_OPTIONS, ClassifierOptions
from repro.spambayes.token_table import TokenTable
from repro.storage.disk import MmapCountColumns
from spambayes_spec import SpecClassifier

N_PER_CLASS = 10


@pytest.fixture(params=["memory", "disk"])
def new_core(request, tmp_path):
    """A factory for classifiers on one count-column store."""
    opened = []

    def make(table: TokenTable, options: ClassifierOptions = DEFAULT_OPTIONS) -> Classifier:
        if request.param == "memory":
            return Classifier(options, table=table)
        columns = MmapCountColumns(tmp_path / f"columns{len(opened)}")
        opened.append(columns)
        return Classifier(options, table=table, columns=columns)

    yield make
    for columns in opened:
        columns.close()


def _reverse_interned(table: TokenTable, tokens: list[str]) -> None:
    """Intern ``tokens`` one at a time, last text first, so token-ID
    order is the reverse of text order."""
    for token in sorted(tokens, reverse=True):
        table.intern(token)


def _row(table: TokenTable, tokens) -> np.ndarray:
    return np.array(sorted(table.id_of(token) for token in tokens), dtype=np.int64)


def _train_counts(pair, counts: dict[str, tuple[int, int]]) -> np.ndarray:
    """Train ``N_PER_CLASS`` spam and ham messages so each token ends up
    with exactly its ``(spamcount, hamcount)``; returns the last spam
    message."""
    core, spec, table = pair
    for is_spam, column in ((False, 1), (True, 0)):
        for j in range(N_PER_CLASS):
            tokens = [token for token, pair_counts in counts.items() if pair_counts[column] > j]
            last = _row(table, tokens)
            core.learn_ids(last, is_spam)
            spec.learn(tokens, is_spam)
    return last


def _mirrored_tie(spec_options: ClassifierOptions) -> tuple[int, int]:
    """A count pair ``(a, b)`` whose mirror ``(b, a)`` gives the exact
    same strength under ``nspam == nham == N_PER_CLASS``, with a
    significant, non-equal pair of probabilities."""
    for a in range(N_PER_CLASS, -1, -1):
        for b in range(a):
            probe = SpecClassifier(spec_options)
            probe.spamcount.update({"p": a, "q": b})
            probe.hamcount.update({"p": b, "q": a})
            probe.nspam = probe.nham = N_PER_CLASS
            p, q = probe.spam_prob("p"), probe.spam_prob("q")
            strength = abs(p - 0.5)
            if p != q and strength == abs(q - 0.5) and strength >= spec_options.minimum_prob_strength:
                return a, b
    raise AssertionError("no mirrored count pair ties exactly")


def _oracle_under(spec: SpecClassifier, table: TokenTable, rows, candidates) -> list[list[float]]:
    """Per candidate: learn it, score every row, unlearn it."""
    out = []
    for ids, is_spam in candidates:
        tokens = table.decode(ids.tolist())
        spec.learn(tokens, is_spam)
        out.append([spec.score(table.decode(row.tolist())) for row in rows])
        spec.unlearn(tokens, is_spam)
    return out


def _assert_all_paths_match(core, spec, table, rows, candidates) -> None:
    oracle = [spec.score(table.decode(row.tolist())) for row in rows]
    assert core.score_workspace(ScoringWorkspace(rows)) == oracle
    assert core.score_many_ids(rows) == oracle
    assert core.score_under_candidates(ScoringWorkspace(rows), candidates) == _oracle_under(
        spec, table, rows, candidates
    )


# ----------------------------------------------------------------------
# Ties between p and 1 - p
# ----------------------------------------------------------------------


def _tied_setup(new_core):
    """Spammy ``a…`` and hammy ``b…`` tokens, all of one strength: 100
    of each, interned in reverse text order, plus rows mixing them.

    The state is one spam message short of the tie (``nspam + 1 ==
    nham``), so only a candidate that learns that message back scores
    the rows under tied strengths; :func:`_tie_restored` returns the
    classifier and oracle to the tied state itself."""
    a, b = _mirrored_tie(DEFAULT_OPTIONS)
    table = TokenTable()
    spammy = [f"a{i:03d}" for i in range(100)]
    hammy = [f"b{i:03d}" for i in range(100)]
    _reverse_interned(table, spammy + hammy + ["c-new"])
    core, spec = new_core(table), SpecClassifier()
    counts = {token: (a, b) for token in spammy} | {token: (b, a) for token in hammy}
    last_spam = _train_counts((core, spec, table), counts)
    core.unlearn_ids_repeated(last_spam, True, 1)
    spec.unlearn(table.decode(last_spam.tolist()), True)
    rows = [
        _row(table, spammy + hammy),  # 200 tied tokens: truncation decides
        _row(table, spammy[:3] + hammy[:3]),  # six tied: only the product order
        _row(table, [spammy[7], hammy[2]]),
    ]
    candidates = [
        (last_spam, True),
        (_row(table, hammy[:40]), True),
        (_row(table, spammy[60:] + ["c-new"]), False),
    ]
    return core, spec, table, rows, candidates, (spammy, hammy)


def _tie_restored(core, spec, table, candidates) -> None:
    last_spam = candidates[0][0]
    core.learn_ids(last_spam, True)
    spec.learn(table.decode(last_spam.tolist()), True)


def test_mirrored_ties_break_by_text(new_core):
    core, spec, table, rows, candidates, (spammy, hammy) = _tied_setup(new_core)
    _assert_all_paths_match(core, spec, table, rows, candidates)
    _tie_restored(core, spec, table, candidates)
    p, q = spec.spam_prob(spammy[0]), spec.spam_prob(hammy[0])
    assert p != q and abs(p - 0.5) == abs(q - 0.5)
    assert spec.nspam == spec.nham
    _assert_all_paths_match(core, spec, table, rows, candidates[1:])


def test_ties_case_depends_on_the_text_key(new_core, monkeypatch):
    """Dropping the text key (ordering tied IDs by ID instead) breaks
    the tied case on every entry point: the case has teeth."""
    core, spec, table, rows, candidates, _ = _tied_setup(new_core)
    under = _oracle_under(spec, table, rows, candidates[:1])
    _tie_restored(core, spec, table, candidates)
    oracle = [spec.score(table.decode(row.tolist())) for row in rows]
    monkeypatch.setattr(
        ScoringWorkspace, "text_order", lambda self, table: np.arange(self.unique()[0].shape[0])
    )
    assert core.score_workspace(ScoringWorkspace(rows)) != oracle
    assert core.score_many_ids(rows) != oracle
    core.unlearn_ids_repeated(candidates[0][0], True, 1)
    assert core.score_under_candidates(ScoringWorkspace(rows), candidates[:1]) != under


# ----------------------------------------------------------------------
# Long rows, empty rows, zero-count rows
# ----------------------------------------------------------------------


def test_rows_over_max_discriminators(new_core):
    rng = random.Random(7)
    table = TokenTable()
    vocabulary = [f"w{i:04d}" for i in range(600)]
    _reverse_interned(table, vocabulary)
    core, spec = new_core(table), SpecClassifier()
    # Lopsided counts, so most tokens are significant.
    counts = {}
    for token in vocabulary:
        strong, weak = rng.randint(4, N_PER_CLASS), rng.randint(0, 2)
        counts[token] = (strong, weak) if rng.random() < 0.5 else (weak, strong)
    _train_counts((core, spec, table), counts)
    rows = [_row(table, rng.sample(vocabulary, size)) for size in (151, 300, 599, 40)]
    significant = [
        sum(abs(spec.spam_prob(token) - 0.5) >= 0.1 for token in table.decode(row.tolist()))
        for row in rows
    ]
    assert min(significant[:3]) > DEFAULT_OPTIONS.max_discriminators
    candidates = [
        (_row(table, rng.sample(vocabulary, 250)), rng.random() < 0.5) for _ in range(4)
    ]
    _assert_all_paths_match(core, spec, table, rows, candidates)


@pytest.mark.parametrize(
    "options",
    [DEFAULT_OPTIONS, ClassifierOptions(unknown_word_prob=0.2)],
    ids=["prior-insignificant", "prior-significant"],
)
def test_empty_rows_and_zero_count_rows(new_core, options):
    table = TokenTable()
    trained = table.encode_unique({"t1", "t2", "t3"})
    untrained = [f"z{i:03d}" for i in range(200)]
    _reverse_interned(table, untrained)
    core, spec = new_core(table, options), SpecClassifier(options)
    core.learn_ids(trained, True)
    spec.learn(["t1", "t2", "t3"], True)
    core.learn_ids(_row(table, ["t1"]), False)
    spec.learn(["t1"], False)
    rows = [
        _row(table, []),
        _row(table, untrained),
        _row(table, untrained[:5]),
        _row(table, []),
    ]
    candidates = [(_row(table, untrained[::3]), False), (_row(table, ["t2"]), True)]
    _assert_all_paths_match(core, spec, table, rows, candidates)
    assert core.score_workspace(ScoringWorkspace([_row(table, [])] * 3)) == [0.5] * 3


# ----------------------------------------------------------------------
# Table growth after the workspace's text order is cached
# ----------------------------------------------------------------------


def test_workspace_built_before_the_table_grows(new_core):
    a, b = _mirrored_tie(DEFAULT_OPTIONS)
    table = TokenTable()
    early = [f"m{i:03d}" for i in range(0, 200, 2)]
    _reverse_interned(table, early)
    core, spec = new_core(table), SpecClassifier()
    counts = {token: ((a, b) if i % 2 else (b, a)) for i, token in enumerate(early)}
    _train_counts((core, spec, table), counts)
    rows = [_row(table, early), _row(table, early[:9])]
    workspace = ScoringWorkspace(rows)
    oracle = [spec.score(table.decode(row.tolist())) for row in rows]
    assert core.score_workspace(workspace) == oracle
    assert workspace._text_order is not None

    # New tokens whose texts sort between the old ones: every old
    # token's table-wide text rank moves, their relative order not.
    late = [f"m{i:03d}" for i in range(1, 200, 2)]
    _reverse_interned(table, late)
    late_rows = [_row(table, late[:50]), _row(table, late[50:] + early[:20])]
    for ids in late_rows:
        core.learn_ids(ids, True)
        spec.learn(table.decode(ids.tolist()), True)
    for ids in late_rows[:1]:
        core.learn_ids(ids, False)
        spec.learn(table.decode(ids.tolist()), False)

    oracle = [spec.score(table.decode(row.tolist())) for row in rows]
    assert core.score_workspace(workspace) == oracle
    candidates = [(late_rows[1], False), (_row(table, early[::5]), True)]
    assert core.score_under_candidates(workspace, candidates) == _oracle_under(
        spec, table, rows, candidates
    )
    _assert_all_paths_match(core, spec, table, rows + late_rows, candidates)
