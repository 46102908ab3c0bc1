"""Differential lockdown of the vectorized NumPy kernel.

The NumPy kernel (``repro.spambayes.ndkernel``) must be *bit-identical*
to the pure-Python core — exact ``==`` on every score, count and
serialized record, never ``approx``.  The pure core is the executable
oracle here (both kernels answer to the formula oracle in
``tests/test_spec_oracle.py``), and this suite drives both through:

* seeded randomized learn/unlearn/score/snapshot interleavings,
* the attack classes no registered scenario sweeps (informed, focused
  and ham-labeled payloads through the sweep engine),
* the exact floats behind the thresholded records: good-word ranks and
  padded scores, RONI deltas, dynamic-threshold cutoffs,
* kernel edge cases (CSR validation, table growth, memo purges).

Whole scenario records — the dictionary variants, good-word evasion,
the RONI and threshold defenses, streams — across kernels, worker
counts and pinned ``PYTHONHASHSEED`` values are checked by the golden
harness (``tests/test_golden.py``).

Kernel selection is the ``REPRO_KERNEL`` environment variable, read at
classifier-construction time — so each arm of a comparison simply sets
the variable and runs the identical code path.
"""

from __future__ import annotations

import os
import random
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from repro.attacks.goodword import OracleGoodWordAttack
from repro.attacks.hamlabeled import HamLabeledAttack
from repro.attacks.variants import build_attack_variants
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.defenses.threshold import DynamicThresholdDefense
from repro.engine.sweep import SweepSpec, run_attack_sweeps
from repro.errors import ConfigurationError, TrainingError
from repro.rng import SeedSpawner
from repro.spambayes import ndkernel
from repro.spambayes.classifier import Classifier
from repro.spambayes.ndkernel import NDClassifier
from repro.spambayes.options import ClassifierOptions
from repro.spambayes.persistence import classifier_to_dict
from repro.spambayes.token_table import TokenTable

SUITE_WORKERS = int(os.environ.get("REPRO_WORKERS", "1") or "1")


def forced_kernel(name: str):
    """Pin ``REPRO_KERNEL`` for the duration of one comparison arm."""
    return mock.patch.dict(os.environ, {ndkernel.KERNEL_ENV: name})


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


def _full_state(classifier: Classifier):
    return (
        classifier.nspam,
        classifier.nham,
        {
            token: (record.spamcount, record.hamcount)
            for token, record in (
                (t, classifier.word_info(t)) for t in classifier.iter_vocabulary()
            )
        },
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_randomized_interleavings_bit_identical(seed):
    """Hundreds of random learn/unlearn/score/snapshot steps, exact ==.

    One shared append-only table feeds both kernels the *same* ID
    arrays (exactly how production shares encodings across kernels),
    and after every scoring step the floats must match to the last bit.
    """
    rng = random.Random(seed)
    table = TokenTable()
    pure = Classifier(table=table)
    vect = NDClassifier(table=table)
    messages = [_random_message(rng, table) for _ in range(60)]
    learned: list[tuple[object, bool, int]] = []
    snapshots = None

    for step in range(300):
        op = rng.randrange(11)
        if op <= 3:  # learn
            ids = rng.choice(messages)
            is_spam = rng.random() < 0.5
            count = rng.choice((1, 1, 1, 3))
            pure.learn_ids_repeated(ids, is_spam, count)
            vect.learn_ids_repeated(ids, is_spam, count)
            learned.append((ids, is_spam, count))
        elif op <= 5 and learned:  # unlearn something actually learned
            # While a snapshot is pending, only entries learned after it
            # are fair game — restore() will resurrect anything older,
            # and the bookkeeping list must stay in sync with state.
            floor = snapshots[2] if snapshots is not None else 0
            if floor >= len(learned):
                continue
            index = rng.randrange(floor, len(learned))
            ids, is_spam, count = learned.pop(index)
            pure.unlearn_ids_repeated(ids, is_spam, count)
            vect.unlearn_ids_repeated(ids, is_spam, count)
        elif op == 6:  # point score
            ids = rng.choice(messages)
            assert pure.score_ids(ids) == vect.score_ids(ids)
        elif op == 7:  # bulk score
            batch = rng.sample(messages, rng.randint(1, 20))
            assert pure.score_many_ids(batch) == vect.score_many_ids(batch)
        elif op == 8 and snapshots is None and learned:  # snapshot
            snapshots = (pure.snapshot(), vect.snapshot(), len(learned))
        elif op == 9 and snapshots is not None:  # restore
            pure_snap, vect_snap, depth = snapshots
            pure.restore(pure_snap)
            vect.restore(vect_snap)
            del learned[depth:]
            snapshots = None
            batch = rng.sample(messages, 10)
            assert pure.score_many_ids(batch) == vect.score_many_ids(batch)
        elif op == 10:  # string score: memo fill against stale entries
            batch = [_random_text_message(rng, table) for _ in range(rng.randint(1, 12))]
            expected = [pure.score(tokens) for tokens in batch]
            assert vect.score_many(batch) == pure.score_many(batch) == expected

    if snapshots is not None:
        pure.restore(snapshots[0])
        vect.restore(snapshots[1])

    assert _full_state(pure) == _full_state(vect)
    assert pure.score_many_ids(messages) == vect.score_many_ids(messages)
    assert classifier_to_dict(pure) == classifier_to_dict(vect)


def test_csr_scoring_matches_arrays_and_oracle():
    rng = random.Random(5)
    table = TokenTable()
    pure = Classifier(table=table)
    vect = NDClassifier(table=table)
    messages = [_random_message(rng, table) for _ in range(80)]
    for ids in messages[:50]:
        label = rng.random() < 0.5
        pure.learn_ids(ids, label)
        vect.learn_ids(ids, label)
    corpus = ndkernel.CsrMatrix.from_rows(messages)
    oracle = pure.score_many_ids(messages)
    assert vect.score_many_ids(messages) == oracle
    assert vect.score_csr(corpus) == oracle
    subset = [3, 17, 17, 0, 79]
    assert vect.score_csr(corpus, rows=subset) == [oracle[i] for i in subset]


def test_pickle_round_trip_preserves_scores():
    import pickle

    rng = random.Random(13)
    table = TokenTable()
    vect = NDClassifier(table=table)
    messages = [_random_message(rng, table) for _ in range(30)]
    for ids in messages[:20]:
        vect.learn_ids(ids, rng.random() < 0.5)
    clone = pickle.loads(pickle.dumps(vect))
    assert clone.score_many_ids(messages) == vect.score_many_ids(messages)
    copied = vect.copy()
    assert copied.score_many_ids(messages) == vect.score_many_ids(messages)


def _trained_pair(seed: int):
    """A pure and an ND classifier trained alike on one shared table,
    plus held-back messages and a string batch with unseen tokens."""
    rng = random.Random(seed)
    table = TokenTable()
    pure = Classifier(table=table)
    vect = NDClassifier(table=table)
    messages = [_random_message(rng, table) for _ in range(40)]
    for ids in messages[:30]:
        label = rng.random() < 0.5
        pure.learn_ids(ids, label)
        vect.learn_ids(ids, label)
    batch = [_random_text_message(rng, table) for _ in range(8)]
    batch.append(table.decode(messages[0]) + ["w450"])
    return pure, vect, messages, batch


def test_string_batch_after_learn_makes_no_scalar_prob_calls(monkeypatch):
    """A learn voids the significance memo; the next string batch
    refills it in one vectorized pass, not token by token."""
    pure, vect, messages, batch = _trained_pair(17)
    vect.score_many(batch)
    pure.learn_ids(messages[35], True)
    vect.learn_ids(messages[35], True)
    calls = []
    scalar = NDClassifier._prob_for_id

    def spy(self, token_id):
        calls.append(token_id)
        return scalar(self, token_id)

    monkeypatch.setattr(NDClassifier, "_prob_for_id", spy)
    scores = vect.score_many(batch)
    assert calls == []
    assert scores == pure.score_many(batch) == [pure.score(t) for t in batch]


def _halved_prob(self, token_id):
    """A different per-token formula: f(w) pulled halfway to 0.5."""
    return 0.5 + (float(Classifier._prob_for_id(self, token_id)) - 0.5) / 2


def test_prob_override_is_rejected_at_definition():
    """The vectorized paths never call ``_prob_for_id``, so an ND
    subclass with its own formula fails when it is defined."""
    with pytest.raises(TypeError, match="cannot override _prob_for_id"):

        class _HalvedND(NDClassifier):
            _prob_for_id = _halved_prob

    class _HalvedPure(Classifier):
        _prob_for_id = _halved_prob

    with pytest.raises(TypeError, match="cannot override _prob_for_id"):

        class _MixedND(_HalvedPure, NDClassifier):
            pass


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


def _sweep_dicts(inbox, attack, *, workers: int, seed: int = 21, ham_only=False):
    spec = SweepSpec("diff", attack, (0.0, 0.15), ham_only=ham_only)
    (result,) = run_attack_sweeps(
        inbox, [(spec, random.Random(seed))], folds=3, workers=workers
    )
    return result.confusion_dicts()


@pytest.mark.parametrize("variant", ["informed", "focused"])
def test_attack_variants_bit_identical_across_kernels(diff_corpus, diff_inbox, variant):
    attack = build_attack_variants(
        diff_corpus, (variant,), seed=9, pool=diff_inbox
    )[variant]
    with forced_kernel("python"):
        oracle = _sweep_dicts(diff_inbox, attack, workers=1)
    with forced_kernel("nd"):
        vectorized = _sweep_dicts(diff_inbox, attack, workers=1)
        pooled = _sweep_dicts(diff_inbox, attack, workers=max(2, SUITE_WORKERS))
    assert vectorized == oracle
    assert pooled == oracle


def test_hamlabeled_attack_bit_identical(diff_corpus, diff_inbox):
    attack = HamLabeledAttack.from_vocabulary(diff_corpus.vocabulary)
    with forced_kernel("python"):
        oracle = _sweep_dicts(diff_inbox, attack, workers=1, ham_only=True)
    with forced_kernel("nd"):
        assert _sweep_dicts(diff_inbox, attack, workers=1, ham_only=True) == oracle
        assert _sweep_dicts(diff_inbox, attack, workers=2, ham_only=True) == oracle


def test_goodword_oracle_attack_bit_identical(diff_corpus, diff_inbox):
    """The evasion-side attack: ranked words and padded scores match."""

    def ranked_and_scores(kernel: str):
        with forced_kernel(kernel):
            classifier = ndkernel.create_classifier()
            for message in diff_inbox:
                classifier.learn(message.tokens(), message.is_spam)
            attack = OracleGoodWordAttack(
                classifier, diff_corpus.vocabulary.ham_topic
            )
            spam = next(m for m in diff_inbox if m.is_spam)
            padded = attack.pad(spam.email, 25).padded
            from repro.spambayes.tokenizer import DEFAULT_TOKENIZER

            return attack.ranked_words, classifier.score(
                frozenset(DEFAULT_TOKENIZER.tokenize(padded))
            )

    assert ranked_and_scores("nd") == ranked_and_scores("python")


# ----------------------------------------------------------------------
# Both defenses
# ----------------------------------------------------------------------


def test_roni_defense_bit_identical(diff_corpus, diff_inbox):
    def measurements(kernel: str):
        with forced_kernel(kernel):
            defense = RoniDefense(
                diff_inbox,
                SeedSpawner(31).rng("roni"),
                RoniConfig(train_size=20, validation_size=20, trials=3),
            )
            candidates = diff_corpus.dataset.messages[:12]
            return [
                (
                    m.ham_as_ham_delta,
                    m.ham_as_spam_delta,
                    m.ham_as_unsure_delta,
                    m.spam_as_spam_delta,
                    m.trials,
                )
                for m in defense.measure_many(candidates)
            ]

    assert measurements("nd") == measurements("python")


def test_threshold_defense_bit_identical(diff_inbox):
    def fit(kernel: str):
        with forced_kernel(kernel):
            defense = DynamicThresholdDefense()
            result = defense.fit(diff_inbox, random.Random(77))
            return (
                result.ham_cutoff,
                result.spam_cutoff,
                result.quantile,
                result.validation_size,
            )

    assert fit("nd") == fit("python")


# ----------------------------------------------------------------------
# Kernel edges: selection errors, CSR validation, growth, purge paths
# ----------------------------------------------------------------------


class TestKernelEdges:
    def test_kernel_name_rejects_bad_values(self, monkeypatch):
        monkeypatch.setenv(ndkernel.KERNEL_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            ndkernel.kernel_name()
        monkeypatch.setenv(ndkernel.KERNEL_ENV, "nd")
        monkeypatch.setattr(ndkernel, "np", None)
        assert not ndkernel.available()
        with pytest.raises(ConfigurationError):
            ndkernel.kernel_name()

    def test_csr_validation_ndarray_input_and_nbytes(self):
        with pytest.raises(ConfigurationError):
            ndkernel.CsrMatrix(
                np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64)
            )
        csr = ndkernel.CsrMatrix.from_rows([np.array([4, 7], dtype=np.int64)])
        assert csr.nbytes() == csr.indices.nbytes + csr.indptr.nbytes
        assert csr.row(0).tolist() == [4, 7]

    def test_score_csr_empty_corpus_and_blank_rows(self):
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        ids = table.encode_unique({"x1", "x2"})
        pure.learn_ids(ids, True)
        vect.learn_ids(ids, True)
        assert vect.score_csr(ndkernel.CsrMatrix.from_rows([])) == []
        blanks = ndkernel.CsrMatrix.from_rows([[], []])
        assert vect.score_csr(blanks) == pure.score_many_ids([[], []])

    def test_untrained_classifier_scores_match(self):
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        ids = table.encode_unique({"u1", "u2", "u3"})
        assert vect.score_many_ids([ids, []]) == pure.score_many_ids([ids, []])

    def test_word_info_matches_pure(self):
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        ids = table.encode_unique({"known"})
        pure.learn_ids(ids, True)
        vect.learn_ids(ids, True)
        pure_info = pure.word_info("known")
        vect_info = vect.word_info("known")
        assert (vect_info.spamcount, vect_info.hamcount) == (
            pure_info.spamcount,
            pure_info.hamcount,
        )
        assert isinstance(vect_info.spamcount, int)
        assert vect.word_info("never-seen") is None

    def test_unlearn_edges_match_pure(self):
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        ids = table.encode_unique({"a", "b"})
        pure.learn_ids(ids, True)
        vect.learn_ids(ids, True)
        # Empty removals are no-ops on both kernels.
        pure.unlearn_ids_repeated([], True, 1)
        vect.unlearn_ids_repeated([], True, 1)
        # Removing something never learned fails identically and must
        # leave state untouched.
        stranger = table.encode_unique({"stranger"})
        with pytest.raises(TrainingError):
            pure.unlearn_ids_repeated(stranger, True, 1)
        with pytest.raises(TrainingError):
            vect.unlearn_ids_repeated(stranger, True, 1)
        assert _full_state(pure) == _full_state(vect)
        assert pure.score_ids(ids) == vect.score_ids(ids)

    def test_table_growth_after_scoring_stays_bit_identical(self):
        """Scoring sizes the kernel's columns; later growth must resync."""
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        first = table.encode_unique({f"a{i}" for i in range(50)})
        pure.learn_ids(first, True)
        vect.learn_ids(first, True)
        assert pure.score_ids(first) == vect.score_ids(first)
        # Grow the shared table WITHOUT training: another consumer of
        # the table encoded new tokens.  Training would retag and
        # rebuild; pure growth must extend the memo arrays in place.
        second = table.encode_unique({f"b{i}" for i in range(300)})
        corpus = ndkernel.CsrMatrix.from_rows([first, second])
        assert vect.score_csr(corpus) == pure.score_many_ids([first, second])
        # And after training on the new tokens both kernels re-agree.
        pure.learn_ids(second, False)
        vect.learn_ids(second, False)
        assert vect.score_csr(corpus) == pure.score_many_ids([first, second])

    def test_bulk_mutation_purges_memo_bit_identically(self):
        """A huge learn after scoring crosses the memo-purge heuristic."""
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        small = table.encode_unique({"s1", "s2"})
        pure.learn_ids(small, True)
        vect.learn_ids(small, True)
        assert pure.score_ids(small) == vect.score_ids(small)
        big = table.encode_unique({f"t{i}" for i in range(1200)})
        pure.learn_ids(big, False)
        vect.learn_ids(big, False)
        assert pure.score_many_ids([small, big]) == vect.score_many_ids(
            [small, big]
        )

    def test_restore_misuse_raises_identically(self):
        """Foreign / spent snapshots die the same way on both kernels."""
        for cls in (Classifier, NDClassifier):
            table = TokenTable()
            owner = cls(table=table)
            other = cls(table=table)
            ids = table.encode_unique({"r1", "r2"})
            owner.learn_ids(ids, True)
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
    def test_out_of_range_probs_raise_identically(self, message):
        """With no smoothing (s = 0) a one-class token scores exactly 0
        or 1, which the combiner rejects; every scoring path of both
        kernels raises the same ValueError text, including for a
        message holding both a p <= 0 and a p >= 1 entry."""
        options = ClassifierOptions(unknown_word_strength=0.0)
        errors = []
        for cls in (Classifier, NDClassifier):
            core = cls(options, table=TokenTable())
            core.learn({"s", "a_s", "z_s", "both"}, True)
            core.learn({"h", "a_h", "z_h", "both"}, False)
            ids = core.encode_tokens(message)
            for score in (
                lambda: core.score(message),
                lambda: core.score_many([message]),
                lambda: core.score_many_ids([ids]),
            ):
                with pytest.raises(ValueError) as raised:
                    score()
                errors.append(str(raised.value))
        assert errors == ["ln_product requires positive values, got 0.0"] * 6

    def test_unlearn_count_underflow_raises_identically(self):
        """The count-negative guard fires for both kernels, not just the
        global nspam guard: two spam messages trained, one unlearned
        twice."""
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        shared = table.encode_unique({"c1", "c2"})
        rare = table.encode_unique({"c1", "c2", "c3"})
        for core in (pure, vect):
            core.learn_ids(shared, True)
            core.learn_ids(rare, True)
            core.unlearn_ids(rare, True)
            with pytest.raises(TrainingError):
                core.unlearn_ids(rare, True)
        assert _full_state(pure) == _full_state(vect)
        assert pure.score_ids(shared) == vect.score_ids(shared)

    def test_long_extreme_messages_renormalize_identically(self):
        """150+ near-certain discriminators underflow the chi2 mantissa
        product; the vectorized renormalization must land on the same
        bits as the pure combiner's."""
        table = TokenTable()
        pure = Classifier(table=table)
        vect = NDClassifier(table=table)
        spam_ids = table.encode_unique({f"sp{i}" for i in range(160)})
        ham_ids = table.encode_unique({f"hm{i}" for i in range(160)})
        pure.learn_ids_repeated(spam_ids, True, 40)
        vect.learn_ids_repeated(spam_ids, True, 40)
        pure.learn_ids_repeated(ham_ids, False, 40)
        vect.learn_ids_repeated(ham_ids, False, 40)
        mixed = np.concatenate([spam_ids, ham_ids])
        batch = [spam_ids, ham_ids, mixed]
        assert pure.score_many_ids(batch) == vect.score_many_ids(batch)
