"""Differential lockdown of the vectorized classifier against the oracle.

The classifier's batched NumPy paths must be *bit-identical* to the
paper's formulas — exact ``==`` on every score and count, never
``approx``.  :class:`spambayes_spec.SpecClassifier` writes those
formulas out as counts plus scalar arithmetic, and this suite drives
the classifier and the oracle side by side through:

* seeded randomized learn/unlearn/score/snapshot interleavings,
* the attack classes no registered scenario sweeps (informed and
  focused payloads through the sweep engine, against the sweep
  spelled out on the oracle in ``test_engine.py``),
* the exact floats behind the thresholded records: good-word ranks and
  padded scores, RONI deltas,
* edge cases (CSR validation, table growth, memo purges),

with the classifier's counts in memory and on memory-mapped files
(which remap as the table grows).

Whole scenario records — the dictionary variants, good-word evasion,
the RONI and threshold defenses, streams — across stores, worker counts
and pinned ``PYTHONHASHSEED`` values are checked by the golden harness
(``tests/test_golden.py``).
"""

from __future__ import annotations

import os
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.attacks.goodword import OracleGoodWordAttack
from repro.attacks.variants import build_attack_variants
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.engine.sweep import SweepSpec, run_attack_sweeps
from repro.errors import ConfigurationError, TrainingError
from repro.rng import SeedSpawner
from repro.spambayes import ndkernel
from repro.spambayes.classifier import Classifier, ScoringWorkspace
from repro.spambayes.filter import Label
from repro.spambayes.options import DEFAULT_OPTIONS, ClassifierOptions
from repro.spambayes.persistence import classifier_to_dict
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER
from repro.storage.disk import MmapCountColumns
from spambayes_spec import SpecClassifier
from test_engine import sequential_sweep_signature
from test_spec_oracle import assert_matches_oracle

SUITE_WORKERS = int(os.environ.get("REPRO_WORKERS", "1") or "1")


def _texts(table: TokenTable, ids) -> list[str]:
    """The token texts of one encoded message, for the oracle."""
    return table.decode([int(tid) for tid in ids])


@pytest.fixture(params=["memory", "disk"])
def new_core(request, tmp_path):
    """A factory for classifiers on one count-column store."""
    opened = []

    def make(options: ClassifierOptions = DEFAULT_OPTIONS, table: TokenTable | None = None):
        table = TokenTable() if table is None else table
        if request.param == "memory":
            return Classifier(options, table=table)
        columns = MmapCountColumns(tmp_path / f"columns{len(opened)}")
        opened.append(columns)
        return Classifier(options, table=table, columns=columns)

    yield make
    for columns in opened:
        columns.close()


def _label(score: float, options: ClassifierOptions = DEFAULT_OPTIONS) -> Label:
    if score <= options.ham_cutoff:
        return Label.HAM
    if score <= options.spam_cutoff:
        return Label.UNSURE
    return Label.SPAM


# ----------------------------------------------------------------------
# Randomized interleavings: the classifier-level gauntlet
# ----------------------------------------------------------------------


def _random_message(rng: random.Random, table: TokenTable):
    size = rng.randint(1, 40)
    tokens = {f"w{rng.randrange(400)}" for _ in range(size)}
    return table.encode_unique(tokens)


def _random_text_message(rng: random.Random, table: TokenTable) -> list[str]:
    """Token texts mixing interned, never-interned and repeated tokens.

    ``w400``-``w499`` are outside the vocabulary ``_random_message``
    draws from, so they stay unseen however long the run.  Some
    messages hold no unseen token, so the batch routing is exercised
    both ways."""
    known = rng.sample(range(len(table)), rng.randint(0, min(30, len(table))))
    tokens = table.decode(known)
    if rng.random() < 0.7:
        tokens += [f"w{rng.randrange(400, 500)}" for _ in range(rng.randint(1, 5))]
    tokens += rng.sample(tokens, len(tokens) // 3)
    return tokens


def _spec_checkpoint(spec: SpecClassifier) -> tuple:
    return Counter(spec.spamcount), Counter(spec.hamcount), spec.nspam, spec.nham


def _spec_restore(spec: SpecClassifier, checkpoint: tuple) -> None:
    spamcount, hamcount, spec.nspam, spec.nham = checkpoint
    spec.spamcount, spec.hamcount = Counter(spamcount), Counter(hamcount)


INTERLEAVING_OPTIONS = [
    DEFAULT_OPTIONS,
    # Every token significant and a cap the 40-token messages exceed:
    # the δ(E) cut and its text tie-break decide every score.
    ClassifierOptions(minimum_prob_strength=0.0, max_discriminators=20),
    # A hammy prior with weak smoothing: unseen and rare tokens move.
    ClassifierOptions(unknown_word_prob=0.4, unknown_word_strength=0.2),
]


@pytest.mark.parametrize(
    "options", INTERLEAVING_OPTIONS, ids=["default", "capped-significant", "prior-0.4-weak"]
)
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_randomized_interleavings_bit_identical(seed, options, new_core):
    """Hundreds of random learn/unlearn/score/snapshot steps, exact ==.

    The oracle replays every training step on token texts; after every
    scoring step the classifier's floats must match its to the last bit.
    """
    rng = random.Random(seed)
    table = TokenTable()
    core = new_core(options, table)
    spec = SpecClassifier(options)
    messages = [_random_message(rng, table) for _ in range(60)]
    texts = [_texts(table, ids) for ids in messages]
    learned: list[tuple[int, bool, int]] = []
    snapshots = None

    def oracle_scores(indices):
        return [spec.score(texts[i]) for i in indices]

    for step in range(300):
        op = rng.randrange(11)
        if op <= 3:  # learn
            index = rng.randrange(len(messages))
            is_spam = rng.random() < 0.5
            count = rng.choice((1, 1, 1, 3))
            core.learn_ids_repeated(messages[index], is_spam, count)
            spec.learn(texts[index], is_spam, count)
            learned.append((index, is_spam, count))
        elif op <= 5 and learned:  # unlearn something actually learned
            # While a snapshot is pending, only entries learned after it
            # are fair game — restore() will resurrect anything older,
            # and the bookkeeping list must stay in sync with state.
            floor = snapshots[2] if snapshots is not None else 0
            if floor >= len(learned):
                continue
            index, is_spam, count = learned.pop(rng.randrange(floor, len(learned)))
            core.unlearn_ids_repeated(messages[index], is_spam, count)
            spec.unlearn(texts[index], is_spam, count)
        elif op == 6:  # point score
            index = rng.randrange(len(messages))
            assert core.score_ids(messages[index]) == spec.score(texts[index])
        elif op == 7:  # bulk score
            batch = rng.sample(range(len(messages)), rng.randint(1, 20))
            assert core.score_many_ids([messages[i] for i in batch]) == oracle_scores(batch)
        elif op == 8 and snapshots is None and learned:  # snapshot
            snapshots = (core.snapshot(), _spec_checkpoint(spec), len(learned))
        elif op == 9 and snapshots is not None:  # restore
            snap, checkpoint, depth = snapshots
            core.restore(snap)
            _spec_restore(spec, checkpoint)
            del learned[depth:]
            snapshots = None
            batch = rng.sample(range(len(messages)), 10)
            assert core.score_many_ids([messages[i] for i in batch]) == oracle_scores(batch)
        elif op == 10:  # string score: memo fill against stale entries
            batch = [_random_text_message(rng, table) for _ in range(rng.randint(1, 12))]
            expected = [spec.score(tokens) for tokens in batch]
            assert core.score_many(batch) == [core.score(tokens) for tokens in batch] == expected

    if snapshots is not None:
        core.restore(snapshots[0])
        _spec_restore(spec, snapshots[1])

    assert_matches_oracle(core, spec)
    assert core.score_many_ids(messages) == oracle_scores(range(len(messages)))
    assert classifier_to_dict(core)["words"] == {
        token: list(counts) for token, counts in sorted(spec.counts().items())
    }


def _trained(new_core, seed: int, n_messages: int, n_trained: int):
    """A classifier and the oracle trained alike on one shared table,
    plus every message (trained ones first) and their texts."""
    rng = random.Random(seed)
    table = TokenTable()
    core = new_core(table=table)
    spec = SpecClassifier()
    messages = [_random_message(rng, table) for _ in range(n_messages)]
    texts = [_texts(table, ids) for ids in messages]
    for ids, tokens in zip(messages[:n_trained], texts[:n_trained]):
        label = rng.random() < 0.5
        core.learn_ids(ids, label)
        spec.learn(tokens, label)
    return rng, core, spec, messages, texts


def test_csr_scoring_matches_arrays_and_oracle(new_core):
    _, core, spec, messages, texts = _trained(new_core, 5, 80, 50)
    corpus = ndkernel.CsrMatrix.from_rows(messages)
    oracle = [spec.score(tokens) for tokens in texts]
    assert core.score_many_ids(messages) == oracle
    assert core.score_workspace(ScoringWorkspace(corpus.rows())) == oracle
    subset = [3, 17, 17, 0, 79]
    stripe = ScoringWorkspace(corpus.row(i) for i in subset)
    assert core.score_workspace(stripe) == [oracle[i] for i in subset]


def test_pickle_round_trip_preserves_scores(new_core):
    _, core, _, messages, _ = _trained(new_core, 13, 30, 20)
    clone = pickle.loads(pickle.dumps(core))
    assert clone.score_many_ids(messages) == core.score_many_ids(messages)
    copied = core.copy()
    assert copied.score_many_ids(messages) == core.score_many_ids(messages)


def test_string_batch_after_learn_refills_the_memo_in_one_pass(monkeypatch, new_core):
    """A learn voids the significance memo; the next string batch
    refills it in one vectorized pass, not token by token."""
    rng, core, spec, messages, texts = _trained(new_core, 17, 40, 30)
    batch = [_random_text_message(rng, core.table) for _ in range(8)]
    batch.append(texts[0] + ["w450"])
    core.score_many(batch)
    core.learn_ids(messages[35], True)
    spec.learn(texts[35], True)
    sizes = []
    probs_for = Classifier._probs_for

    def spy(self, need):
        sizes.append(len(need))
        return probs_for(self, need)

    monkeypatch.setattr(Classifier, "_probs_for", spy)
    scores = core.score_many(batch)
    assert len(sizes) == 1 and sizes[0] > 1
    assert scores == [spec.score(tokens) for tokens in batch]


# ----------------------------------------------------------------------
# Attack classes through the sweep engine
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def diff_corpus():
    return TrecStyleCorpus.generate(n_ham=90, n_spam=90, profile=TINY_PROFILE, seed=17)


@pytest.fixture(scope="module")
def diff_inbox(diff_corpus):
    inbox = diff_corpus.dataset.sample_inbox(80, 0.5, random.Random(4))
    return inbox


FRACTIONS = (0.0, 0.15)


def _sweep_dicts(inbox, attack, *, workers: int, seed: int = 21):
    spec = SweepSpec("diff", attack, FRACTIONS)
    (result,) = run_attack_sweeps(
        inbox, [(spec, random.Random(seed))], folds=3, workers=workers
    )
    return [point.confusion.as_dict() for point in result.points]


def _oracle_sweep_dicts(inbox, attack, *, seed: int = 21):
    signature = sequential_sweep_signature(
        inbox, attack, FRACTIONS, 3, random.Random(seed)
    )
    return [confusion for _, _, confusion in signature]


@pytest.mark.parametrize("variant", ["informed", "focused"])
def test_attack_variants_match_oracle_sweep(diff_corpus, diff_inbox, variant):
    attack = build_attack_variants(
        diff_corpus, (variant,), seed=9, pool=diff_inbox
    )[variant]
    oracle = _oracle_sweep_dicts(diff_inbox, attack)
    assert _sweep_dicts(diff_inbox, attack, workers=1) == oracle
    assert _sweep_dicts(diff_inbox, attack, workers=max(2, SUITE_WORKERS)) == oracle


def test_goodword_oracle_attack_bit_identical(diff_corpus, diff_inbox):
    """The evasion-side attack: ranked words and padded scores match
    the same attack run against the formula oracle."""

    def ranked_and_scores(model):
        for message in diff_inbox:
            model.learn(message.tokens(), message.is_spam)
        attack = OracleGoodWordAttack(model, diff_corpus.vocabulary.ham_topic)
        spam = next(m for m in diff_inbox if m.is_spam)
        padded = attack.pad(spam.email, 25).padded
        return attack.ranked_words, model.score(frozenset(DEFAULT_TOKENIZER.tokenize(padded)))

    assert ranked_and_scores(ndkernel.create_classifier()) == ranked_and_scores(SpecClassifier())


# ----------------------------------------------------------------------
# The RONI defense
# ----------------------------------------------------------------------


def _oracle_roni(pool, rng, config: RoniConfig, candidates) -> list[tuple]:
    """RONI's measurement spelled out on the oracle: the same trial
    resamples, then per candidate the validation outcome counts after
    minus before learning it, averaged over trials."""
    needed = config.train_size + config.validation_size
    trials = []
    for _ in range(config.trials):
        sample = pool.sample_inbox(needed, config.spam_fraction, rng)
        spec = SpecClassifier()
        for message in sample.messages[: config.train_size]:
            spec.learn(message.tokens(), message.is_spam)
        trials.append((spec, sample.messages[config.train_size :]))

    def outcomes(spec, validation) -> Counter:
        tally = Counter()
        for message in validation:
            label = _label(spec.score(message.tokens()))
            if message.is_spam:
                tally["spam_as_spam"] += label is Label.SPAM
            else:
                tally[f"ham_as_{label.value}"] += 1
        return tally

    keys = ("ham_as_ham", "ham_as_spam", "ham_as_unsure", "spam_as_spam")
    measured = []
    for candidate in candidates:
        totals = dict.fromkeys(keys, 0.0)
        for spec, validation in trials:
            before = outcomes(spec, validation)
            spec.learn(candidate.tokens(), candidate.is_spam)
            after = outcomes(spec, validation)
            spec.unlearn(candidate.tokens(), candidate.is_spam)
            for key in keys:
                totals[key] += after[key] - before[key]
        measured.append(tuple(totals[key] / len(trials) for key in keys) + (len(trials),))
    return measured


def test_roni_defense_matches_oracle(diff_corpus, diff_inbox):
    config = RoniConfig(train_size=20, validation_size=20, trials=3)
    candidates = diff_corpus.dataset.messages[:12]
    defense = RoniDefense(diff_inbox, SeedSpawner(31).rng("roni"), config)
    measured = [
        (
            m.ham_as_ham_delta,
            m.ham_as_spam_delta,
            m.ham_as_unsure_delta,
            m.spam_as_spam_delta,
            m.trials,
        )
        for m in defense.measure_many(candidates)
    ]
    assert measured == _oracle_roni(diff_inbox, SeedSpawner(31).rng("roni"), config, candidates)
    assert any(delta != 0.0 for row in measured for delta in row[:4])


# ----------------------------------------------------------------------
# Edges: CSR validation, growth, purge paths, errors
# ----------------------------------------------------------------------


class TestKernelEdges:
    def test_csr_validation_ndarray_input_and_nbytes(self):
        with pytest.raises(ConfigurationError):
            ndkernel.CsrMatrix(
                np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)
            )
        csr = ndkernel.CsrMatrix.from_rows([np.array([4, 7], dtype=np.int64)])
        assert csr.nbytes() == csr.indices.nbytes + csr.indptr.nbytes
        assert csr.row(0).tolist() == [4, 7]

    def test_score_workspace_empty_batch_and_blank_rows(self, new_core):
        table = TokenTable()
        core = new_core(table=table)
        core.learn_ids(table.encode_unique({"x1", "x2"}), True)
        assert core.score_workspace(ScoringWorkspace([])) == core.score_many_ids([]) == []
        blanks = ScoringWorkspace([[], []])
        assert core.score_workspace(blanks) == core.score_many_ids([[], []]) == [0.5, 0.5]

    def test_untrained_classifier_scores_match(self, new_core):
        table = TokenTable()
        core = new_core(table=table)
        ids = table.encode_unique({"u1", "u2", "u3"})
        spec = SpecClassifier()
        assert core.score_many_ids([ids, []]) == [spec.score(["u1", "u2", "u3"]), spec.score([])]

    def test_word_info_matches_oracle(self, new_core):
        table = TokenTable()
        core = new_core(table=table)
        core.learn_ids(table.encode_unique({"known"}), True)
        info = core.word_info("known")
        assert (info.spamcount, info.hamcount) == (1, 0)
        assert isinstance(info.spamcount, int)
        assert core.word_info("never-seen") is None

    def test_unlearn_edges_match_oracle(self, new_core):
        table = TokenTable()
        core = new_core(table=table)
        spec = SpecClassifier()
        ids = table.encode_unique({"a", "b"})
        core.learn_ids(ids, True)
        spec.learn({"a", "b"}, True)
        # An empty message unlearns like any other: only nspam moves.
        core.learn_ids([], True)
        spec.learn([], True)
        core.unlearn_ids_repeated([], True, 1)
        spec.unlearn([], True)
        # Removing something never learned fails and must leave state
        # untouched.
        with pytest.raises(TrainingError):
            core.unlearn_ids_repeated(table.encode_unique({"stranger"}), True, 1)
        assert_matches_oracle(core, spec)
        assert core.score_ids(ids) == spec.score({"a", "b"})

    def test_table_growth_after_scoring_stays_bit_identical(self, new_core):
        """Scoring sizes the columns; later growth must resync."""
        table = TokenTable()
        core = new_core(table=table)
        spec = SpecClassifier()
        first = table.encode_unique({f"a{i}" for i in range(50)})
        core.learn_ids(first, True)
        spec.learn(_texts(table, first), True)
        assert core.score_ids(first) == spec.score(_texts(table, first))
        # Grow the shared table WITHOUT training: another consumer of
        # the table encoded new tokens, which scoring must size the
        # columns for.
        second = table.encode_unique({f"b{i}" for i in range(300)})
        workspace = ScoringWorkspace([first, second])
        texts = [_texts(table, first), _texts(table, second)]
        assert core.score_workspace(workspace) == [spec.score(tokens) for tokens in texts]
        # And after training on the new tokens they re-agree.
        core.learn_ids(second, False)
        spec.learn(texts[1], False)
        assert core.score_workspace(workspace) == [spec.score(tokens) for tokens in texts]

    def test_bulk_mutation_purges_memo_bit_identically(self, new_core):
        """A huge learn after scoring crosses the memo-purge heuristic."""
        table = TokenTable()
        core = new_core(table=table)
        spec = SpecClassifier()
        small = table.encode_unique({"s1", "s2"})
        core.learn_ids(small, True)
        spec.learn({"s1", "s2"}, True)
        assert core.score_ids(small) == spec.score({"s1", "s2"})
        big = table.encode_unique({f"t{i}" for i in range(1200)})
        core.learn_ids(big, False)
        spec.learn(_texts(table, big), False)
        assert core.score_many_ids([small, big]) == [
            spec.score({"s1", "s2"}),
            spec.score(_texts(table, big)),
        ]

    def test_restore_misuse_raises(self, new_core):
        """Foreign / spent snapshots are refused."""
        table = TokenTable()
        owner = new_core(table=table)
        other = new_core(table=table)
        owner.learn_ids(table.encode_unique({"r1", "r2"}), True)
        snap = owner.snapshot()
        with pytest.raises(TrainingError):
            other.restore(snap)
        owner.restore(snap)
        with pytest.raises(TrainingError):
            owner.restore(snap)

    @pytest.mark.parametrize(
        "message",
        [{"s"}, {"h"}, {"s", "h"}, {"a_s", "z_h"}, {"a_h", "z_s"}, {"s", "h", "both"}],
    )
    def test_out_of_range_probs_raise_identically(self, message, new_core):
        """With no smoothing (s = 0) a one-class token scores exactly 0
        or 1, which the combiner rejects; every scoring path raises the
        oracle's ValueError text, including for a message holding both
        a p <= 0 and a p >= 1 entry."""
        options = ClassifierOptions(unknown_word_strength=0.0)
        core = new_core(options)
        spec = SpecClassifier(options)
        for tokens, is_spam in (({"s", "a_s", "z_s", "both"}, True), ({"h", "a_h", "z_h", "both"}, False)):
            core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        ids = core.table.encode_unique(message)
        errors = []
        for score in (
            lambda: spec.score(message),
            lambda: core.score(message),
            lambda: core.score_many([message]),
            lambda: core.score_many_ids([ids]),
        ):
            with pytest.raises(ValueError) as raised:
                score()
            errors.append(str(raised.value))
        assert errors == ["ln_product requires positive values, got 0.0"] * 4

    def test_unlearn_count_underflow_raises_identically(self, new_core):
        """The count-negative guard fires, not just the global nspam
        guard: two spam messages trained, one unlearned twice."""
        table = TokenTable()
        core = new_core(table=table)
        spec = SpecClassifier()
        shared = table.encode_unique({"c1", "c2"})
        rare = table.encode_unique({"c1", "c2", "c3"})
        core.learn_ids(shared, True)
        core.learn_ids(rare, True)
        core.unlearn_ids_repeated(rare, True, 1)
        spec.learn({"c1", "c2"}, True)
        with pytest.raises(TrainingError, match="'c3' negative"):
            core.unlearn_ids_repeated(rare, True, 1)
        assert_matches_oracle(core, spec)
        assert core.score_ids(shared) == spec.score({"c1", "c2"})

    def test_long_extreme_messages_renormalize_identically(self, new_core):
        """150+ near-certain discriminators underflow the chi2 mantissa
        product; the vectorized renormalization must land on the same
        bits as the scalar combiner's."""
        table = TokenTable()
        core = new_core(table=table)
        spec = SpecClassifier()
        spam_ids = table.encode_unique({f"sp{i}" for i in range(160)})
        ham_ids = table.encode_unique({f"hm{i}" for i in range(160)})
        core.learn_ids_repeated(spam_ids, True, 40)
        core.learn_ids_repeated(ham_ids, False, 40)
        spec.learn(_texts(table, spam_ids), True, 40)
        spec.learn(_texts(table, ham_ids), False, 40)
        mixed = np.concatenate([spam_ids, ham_ids])
        batch = [spam_ids, ham_ids, mixed]
        assert core.score_many_ids(batch) == [spec.score(_texts(table, ids)) for ids in batch]
