"""The token table, message encoding, and the interned-ID classifier
core held to the formula oracle (:mod:`spambayes_spec`).

The core's claim is *bit-exactness*: the columnar
:class:`repro.spambayes.classifier.Classifier` must produce exactly
the counts and float-for-float the scores that the paper's formulas
give on the same training history.  These tests drive it through every
mutation pattern the experiment harness uses — incremental
learn/unlearn, grouped repetition, RONI-style learn/score/unlearn
cycling, snapshot/restore fold derivation, persistence — and compare
with ``==``, never ``pytest.approx``.  ``tests/test_spec_oracle.py``
runs the same comparison over random options and histories.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest

from repro.corpus.dataset import LabeledMessage
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniConfig, RoniDefense
from repro.engine.sweep import SweepSpec, run_attack_sweeps
from repro.errors import TrainingError
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email
from repro.spambayes.options import ClassifierOptions
from repro.spambayes.persistence import classifier_from_dict, classifier_to_dict
from repro.spambayes.token_table import TokenTable
from spambayes_spec import SpecClassifier
from test_engine import sequential_sweep_signature
from test_spec_oracle import assert_matches_oracle


# ----------------------------------------------------------------------
# TokenTable unit behaviour
# ----------------------------------------------------------------------


class TestTokenTable:
    def test_intern_assigns_dense_stable_ids(self):
        table = TokenTable()
        first = table.intern("alpha")
        second = table.intern("beta")
        assert (first, second) == (0, 1)
        assert table.intern("alpha") == first  # stable on re-intern
        assert len(table) == 2
        assert table.token(first) == "alpha"
        assert table.id_of("beta") == second
        assert table.id_of("gamma") is None
        assert "alpha" in table and "gamma" not in table

    def test_iteration_follows_id_order(self):
        table = TokenTable(["c", "a", "b", "a"])
        assert list(table) == ["c", "a", "b"]

    def test_encode_unique_sorted_and_deduplicated(self):
        table = TokenTable()
        ids = table.encode_unique(["wire", "cash", "wire", "now", "cash"])
        assert isinstance(ids, array)
        assert list(ids) == sorted(set(ids))
        assert len(ids) == 3
        assert sorted(table.decode(ids)) == ["cash", "now", "wire"]

    def test_encode_is_append_only(self):
        table = TokenTable()
        before = table.encode_unique({"one", "two"})
        table.encode_unique({"three", "two"})
        # Earlier encodings stay valid: IDs never shift.
        assert table.decode(before) == [table.token(tid) for tid in before]
        assert len(table) == 3

    def test_pickle_preserves_ids(self):
        table = TokenTable(["x", "y", "z"])
        clone = pickle.loads(pickle.dumps(table))
        assert list(clone) == list(table)
        assert clone.id_of("y") == table.id_of("y")
        assert clone.intern("w") == 3  # interning continues densely


class TestMessageEncoding:
    def test_token_ids_cached_per_table(self):
        message = LabeledMessage(Email(body="cheap cash wire now", msgid="m1"), True)
        table = TokenTable()
        first = message.token_ids(table)
        assert message.token_ids(table) is first  # cached
        other = TokenTable()
        re_encoded = message.token_ids(other)
        assert re_encoded is not first  # different table -> re-encode
        assert message.token_ids(other) is re_encoded

    def test_pickled_message_ships_its_row_and_table(self):
        message = LabeledMessage(Email(body="cheap cash", msgid="m2"), True)
        table = TokenTable(["unrelated"])
        row = message.token_ids(table)
        model = {"table": table, "message": message}
        thawed = pickle.loads(pickle.dumps(model))
        # One table on the far side, and the row is valid against it.
        assert thawed["message"]._table is thawed["table"]
        assert list(thawed["message"].token_ids(thawed["table"])) == list(row)
        assert len(thawed["table"]) == len(table)

    def test_dataset_encode_populates_all(self):
        corpus = TrecStyleCorpus.generate(n_ham=20, n_spam=20, profile=TINY_PROFILE, seed=5)
        table = corpus.dataset.encode()
        for message in corpus.dataset:
            ids = message.token_ids(table)
            assert list(ids) == sorted(set(ids))
            assert set(table.decode(ids)) == set(message.tokens())


# ----------------------------------------------------------------------
# The core against the formula oracle
# ----------------------------------------------------------------------


def _random_messages(rng, vocab, count, novel_prefix=""):
    messages = []
    for index in range(count):
        tokens = set(rng.sample(vocab, rng.randint(3, 40)))
        if novel_prefix:
            tokens.add(f"{novel_prefix}{index}")
        messages.append((frozenset(tokens), rng.random() < 0.5))
    return messages


def _paired(options=None):
    if options is None:
        return Classifier(), SpecClassifier()
    return Classifier(options), SpecClassifier(options)


def _oracle_scores(spec, queries):
    return [spec.score(q) for q in queries]


OPTION_VARIANTS = [
    ClassifierOptions(),
    ClassifierOptions(unknown_word_strength=0.0),
    ClassifierOptions(minimum_prob_strength=0.0, max_discriminators=15),
    ClassifierOptions(unknown_word_prob=0.4, max_discriminators=50),
]


class TestDifferentialScoring:
    @pytest.mark.parametrize("options", OPTION_VARIANTS)
    def test_scores_bit_identical_after_training(self, options):
        rng = random.Random(7)
        vocab = [f"tok{i}" for i in range(400)]
        id_core, spec = _paired(options)
        for tokens, is_spam in _random_messages(rng, vocab, 250):
            id_core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        queries = [frozenset(rng.sample(vocab, rng.randint(3, 60))) for _ in range(150)]
        expected = _oracle_scores(spec, queries)
        assert id_core.score_many(queries) == expected
        assert [id_core.score(q) for q in queries[:25]] == expected[:25]
        encoded = [id_core.table.encode_unique(q) for q in queries]
        assert id_core.score_many_ids(encoded) == expected
        # Second encoded pass reads a warm significance memo.
        assert id_core.score_many_ids(encoded) == expected
        assert all(id_core.spam_prob(t) == spec.spam_prob(t) for t in vocab)
        assert_matches_oracle(id_core, spec)

    def test_roni_style_learn_score_unlearn_cycling(self):
        """The targeted-eviction path: globals return to the memo tag."""
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(350)]
        id_core, spec = _paired()
        for tokens, is_spam in _random_messages(rng, vocab, 150):
            id_core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        queries = [frozenset(rng.sample(vocab, rng.randint(5, 50))) for _ in range(40)]
        encoded = [id_core.table.encode_unique(q) for q in queries]
        for k in range(40):
            candidate = frozenset(
                rng.sample(vocab, rng.randint(5, 60)) + [f"novel{k}"]
            )
            label = rng.random() < 0.7
            id_core.learn(candidate, label)
            spec.learn(candidate, label)
            assert id_core.score_many_ids(encoded) == _oracle_scores(spec, queries)
            id_core.unlearn_repeated(candidate, label, 1)
            spec.unlearn(candidate, label)
            assert id_core.score_many_ids(encoded) == _oracle_scores(spec, queries)
        assert_matches_oracle(id_core, spec)

    def test_snapshot_restore_round_trips_bit_exact(self):
        rng = random.Random(13)
        vocab = [f"v{i}" for i in range(300)]
        id_core, spec = _paired()
        for tokens, is_spam in _random_messages(rng, vocab, 120):
            id_core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        queries = [frozenset(rng.sample(vocab, 30)) for _ in range(30)]
        encoded = [id_core.table.encode_unique(q) for q in queries]
        baseline = _oracle_scores(spec, queries)
        for round_index in range(12):
            id_snap = id_core.snapshot()
            batch = frozenset(rng.sample(vocab, 50)) | {f"atk{round_index}"}
            id_core.learn_repeated(batch, True, 7)
            spec.learn(batch, True, 7)
            stripe = _random_messages(rng, vocab, 5)
            for tokens, is_spam in stripe:
                id_core.learn(tokens, is_spam)
                spec.learn(tokens, is_spam)
            assert id_core.score_many_ids(encoded) == _oracle_scores(spec, queries)
            id_core.restore(id_snap)
            spec.unlearn(batch, True, 7)
            for tokens, is_spam in stripe:
                spec.unlearn(tokens, is_spam)
            assert id_core.score_many_ids(encoded) == baseline
        assert_matches_oracle(id_core, spec)

    def test_empty_token_set_training_still_invalidates_memos(self):
        """Regression: a mutation with no tokens still moves (nspam,
        nham), which every memoized probability depends on."""
        id_core, spec = _paired()
        id_core.learn(["a", "b"], True)
        spec.learn(["a", "b"], True)
        id_core.learn(["a"], False)
        spec.learn(["a"], False)
        assert id_core.score(["a", "b"]) == spec.score(["a", "b"])
        id_core.learn([], True)  # empty message: counts move, no tokens
        spec.learn([], True)
        assert id_core.score(["a", "b"]) == spec.score(["a", "b"])
        ids = id_core.table.encode_unique(["a", "b"])
        assert id_core.score_ids(ids) == spec.score(["a", "b"])
        id_core.unlearn_repeated([], True, 1)
        spec.unlearn([], True)
        assert id_core.score_ids(ids) == spec.score(["a", "b"])

    def test_scoring_never_interns_unseen_tokens(self):
        """Scoring is read-only on the vocabulary: unseen query tokens
        score the prior without growing the shared table."""
        id_core, spec = _paired()
        id_core.learn({"cash", "wire"}, True)
        spec.learn({"cash", "wire"}, True)
        id_core.learn({"meeting"}, False)
        spec.learn({"meeting"}, False)
        table_size = len(id_core.table)
        queries = [
            {"cash", "never-seen-1"},
            {"never-seen-2", "never-seen-3", "meeting"},
            {"never-seen-1"},
        ]
        assert id_core.score_many(queries) == _oracle_scores(spec, queries)
        assert [id_core.score(q) for q in queries] == _oracle_scores(spec, queries)
        assert id_core.spam_prob("never-seen-4") == spec.spam_prob("never-seen-4")
        evidence = id_core.significant_tokens({"cash", "never-seen-5"})
        expected = spec.significant({"cash", "never-seen-5"})
        assert [(ts.token, ts.spam_prob) for ts in evidence] == expected
        assert len(id_core.table) == table_size  # nothing interned

    @pytest.mark.parametrize(
        "options",
        [
            ClassifierOptions(),
            # Significant priors: x = 0.5 at strength 0, and Graham's
            # x = 0.4; a tight cap makes the text tie-break decide which
            # unseen tokens make the cut.
            ClassifierOptions(minimum_prob_strength=0.0, max_discriminators=3),
            ClassifierOptions(
                unknown_word_prob=0.4, minimum_prob_strength=0.0, max_discriminators=4
            ),
        ],
        ids=["default-prior", "prior-0.5-significant", "prior-0.4-significant"],
    )
    def test_unseen_tokens_score_like_zero_count_ids(self, options):
        """``score_many`` over unseen tokens is the oracle's score,
        whether or not the prior is significant — and once interned,
        those tokens are zero-count IDs that the ID path scores to the
        same floats.  The threshold fit scores validation mail through
        that ID path."""
        classifier, spec = _paired(options)
        for tokens, is_spam in (
            ({"cash", "wire", "offer"}, True),
            ({"cash", "prize"}, True),
            ({"meeting", "agenda", "offer"}, False),
        ):
            classifier.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        queries = [
            {"cash", "unseen-b", "unseen-a"},
            {"meeting", "unseen-c"},
            {"unseen-a"},
            {"zz-unseen", "aa-unseen", "offer", "agenda", "prize"},
            set(),
        ]
        table_size = len(classifier.table)
        expected = _oracle_scores(spec, queries)
        assert [classifier.score(query) for query in queries] == expected
        assert classifier.score_many(queries) == expected
        assert len(classifier.table) == table_size  # nothing interned
        encoded = [classifier.table.encode_unique(query) for query in queries]
        assert len(classifier.table) > table_size  # now zero-count IDs
        assert classifier.score_many_ids(encoded) == expected

    def test_repeated_and_unlearn_validation_parity(self):
        id_core, spec = _paired()
        id_core.learn_repeated({"a", "b"}, True, 5)
        spec.learn({"a", "b"}, True, 5)
        with pytest.raises(TrainingError):
            id_core.unlearn_repeated({"a"}, True, 6)
        with pytest.raises(TrainingError):
            id_core.unlearn_repeated({"zzz-never-seen"}, True, 1)
        # Failed unlearns leave the state untouched.
        assert_matches_oracle(id_core, spec)


class TestDifferentialPersistence:
    def test_dump_matches_oracle_counts_and_round_trips(self, tmp_path):
        rng = random.Random(17)
        vocab = [f"p{i}" for i in range(200)]
        id_core, spec = _paired()
        for tokens, is_spam in _random_messages(rng, vocab, 100):
            id_core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        dump = classifier_to_dict(id_core)
        assert dump["nspam"] == spec.nspam
        assert dump["nham"] == spec.nham
        assert dump["words"] == {
            token: list(counts) for token, counts in sorted(spec.counts().items())
        }
        restored = classifier_from_dict(dump)
        queries = [frozenset(rng.sample(vocab, 25)) for _ in range(40)]
        assert restored.score_many(queries) == _oracle_scores(spec, queries)
        assert_matches_oracle(restored, spec)

    def test_pickle_round_trip_preserves_scores(self):
        rng = random.Random(23)
        vocab = [f"q{i}" for i in range(150)]
        id_core, spec = _paired()
        for tokens, is_spam in _random_messages(rng, vocab, 80):
            id_core.learn(tokens, is_spam)
            spec.learn(tokens, is_spam)
        clone = pickle.loads(pickle.dumps(id_core))
        queries = [frozenset(rng.sample(vocab, 25)) for _ in range(30)]
        assert clone.score_many(queries) == _oracle_scores(spec, queries)
        # Shared-table identity survives one pickle graph.
        context = {"model": id_core, "table": id_core.table}
        thawed = pickle.loads(pickle.dumps(context))
        assert thawed["model"].table is thawed["table"]


# ----------------------------------------------------------------------
# Harness-level equivalence (engine + RONI, shared tables)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return TrecStyleCorpus.generate(n_ham=90, n_spam=90, profile=TINY_PROFILE, seed=29)


class TestHarnessEquivalence:
    def test_sweep_bit_identical_at_any_worker_count(self, small_corpus):
        from repro.attacks.dictionary import OptimalDictionaryAttack

        inbox = small_corpus.dataset.sample_inbox(120, 0.5, random.Random(4))
        attack = OptimalDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
        fractions = (0.0, 0.02, 0.05)

        def sweep(workers):
            spec = SweepSpec(key="optimal", attack=attack, fractions=fractions)
            points = run_attack_sweeps(
                inbox, [(spec, random.Random(11))], folds=3, workers=workers
            )[0].points
            return [point.confusion.as_dict() for point in points]

        expected = [
            confusion
            for _, _, confusion in sequential_sweep_signature(
                inbox, attack, fractions, 3, random.Random(11)
            )
        ]
        assert sweep(1) == expected
        assert sweep(2) == expected

    def test_roni_measure_many_matches_per_message(self, small_corpus):
        pool = small_corpus.dataset.sample_inbox(80, 0.5, random.Random(6))
        table = pool.encode()
        defense = RoniDefense(
            pool,
            random.Random(8),
            config=RoniConfig(train_size=10, validation_size=20, trials=3),
            table=table,
        )
        candidates = small_corpus.dataset.spam[:8] + small_corpus.dataset.ham[:4]
        batched = defense.measure_many(candidates)
        singly = [defense.measure(message) for message in candidates]
        assert batched == singly

    def test_shared_table_across_classifiers(self, small_corpus):
        """Two classifiers on one table see each other's interning only."""
        inbox = small_corpus.dataset.sample_inbox(60, 0.5, random.Random(9))
        table = inbox.encode()
        first = Classifier(table=table)
        second = Classifier(table=table)
        message = inbox[0]
        first.learn_ids(message.token_ids(table), message.is_spam)
        assert second.vocabulary_size == 0  # counts are private
        assert second.table is first.table  # interning is shared
        # Encoded IDs stay valid for both despite later growth.
        second.learn({"entirely-new-token"}, True)
        assert first.score_ids(message.token_ids(table)) == first.score(
            message.tokens()
        )
