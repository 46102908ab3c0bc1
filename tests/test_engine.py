"""Tests for the parallel experiment engine.

The engine's contract is absolute: any worker count produces
bit-identical results, and they equal
the plain per-fold loop the sweep stands for (written out test-locally
below; the golden records in ``tests/golden/`` pin the bytes).  These
tests pin that contract on small corpora, plus the classifier APIs the
engine is built on (snapshot/restore, bulk scoring).
"""

from __future__ import annotations

import json
import os
import pickle
import random

import pytest

from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.attacks.dictionary import OptimalDictionaryAttack, UsenetDictionaryAttack
from repro.engine.runner import ParallelRunner, WorkerPool, resolve_workers
from repro.engine.seeding import drawn_seeds
from repro.corpus.dataset import train_grouped, unlearn_grouped
from repro.engine.sweep import SweepSpec, attack_message_count, run_attack_sweeps
from repro.errors import EngineError, ExperimentError, TrainingError
from repro.experiments.metrics import ConfusionCounts
from repro.rng import SeedSpawner
from repro.scenarios import run_scenario
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import Label
from repro.spambayes.options import DEFAULT_OPTIONS
from spambayes_spec import SpecClassifier


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_corpus():
    return TrecStyleCorpus.generate(n_ham=150, n_spam=150, profile=TINY_PROFILE, seed=11)


@pytest.fixture(scope="module")
def sweep_inbox(sweep_corpus):
    inbox = sweep_corpus.dataset.sample_inbox(180, 0.5, random.Random(3))
    return inbox


def _classifier_state(classifier: Classifier):
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


def _trained_classifier(corpus) -> Classifier:
    classifier = Classifier()
    train_grouped(classifier, corpus.dataset)
    return classifier


# ----------------------------------------------------------------------
# ParallelRunner
# ----------------------------------------------------------------------


def _double(context, task):
    return context * task


def _fail_on_three(context, task):
    if task == 3:
        raise ValueError("boom")
    return task


class TestParallelRunner:
    def test_sequential_map_preserves_order(self):
        assert ParallelRunner(1).map(_double, 10, [3, 1, 2]) == [30, 10, 20]

    def test_parallel_map_matches_sequential(self):
        tasks = list(range(7))
        assert ParallelRunner(2).map(_double, 5, tasks) == ParallelRunner(1).map(
            _double, 5, tasks
        )

    def test_single_task_runs_inline_even_with_workers(self):
        assert ParallelRunner(4).map(_double, 2, [21]) == [42]

    def test_empty_map_returns_nothing(self):
        assert ParallelRunner(4).map(_double, 2, []) == []
        with WorkerPool(2) as pool:
            assert pool.run(_double, 2, []) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(2).map(_fail_on_three, None, [1, 2, 3, 4])

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(EngineError):
            resolve_workers(-1)


# ----------------------------------------------------------------------
# WorkerPool: by-value transport and respawn
# ----------------------------------------------------------------------


def _make_csr(n: int):
    np = pytest.importorskip("numpy")
    from repro.spambayes.ndkernel import CsrMatrix

    return CsrMatrix.from_rows(
        [np.arange(i, 2 * i + 1, dtype=np.int64) for i in range(n)]
    )


class _CorpusContext:
    """Minimal context carrying a CSR corpus by value."""

    def __init__(self, csr):
        self.csr = csr


def _read_row(context, i):
    return (os.getpid(), context.csr.row(i).tolist())


class TestCsrByValue:
    """The parallel nd sweep ships its inbox as one pickled CsrMatrix."""

    @pytest.mark.parametrize("n", [0, 1, 6], ids=["empty", "one", "many"])
    def test_pickle_round_trips_rows(self, n):
        csr = _make_csr(n)
        clone = pickle.loads(pickle.dumps(csr, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(clone) == len(csr) == n
        assert clone.nbytes() == csr.nbytes()
        assert clone.indices.dtype == csr.indices.dtype
        assert clone.indptr.dtype == csr.indptr.dtype
        assert [row.tolist() for row in clone.rows()] == [
            row.tolist() for row in csr.rows()
        ]

    def test_pickle_carries_the_buffers_themselves(self):
        np = pytest.importorskip("numpy")
        csr = _make_csr(40)
        blob = pickle.dumps(csr, protocol=pickle.HIGHEST_PROTOCOL)
        # By value: the corpus is in the blob, not a name pointing at it.
        assert len(blob) >= csr.nbytes()
        clone = pickle.loads(blob)
        assert not np.shares_memory(clone.indices, csr.indices)
        clone.indices[:] = -1
        assert csr.row(5).tolist() == list(range(5, 11))

    def test_rows_are_zero_copy_views(self):
        np = pytest.importorskip("numpy")
        csr = _make_csr(6)
        for i in range(1, len(csr)):
            assert np.shares_memory(csr.row(i), csr.indices)


class TestWorkerPoolTransport:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_read_every_row_by_value(self, workers):
        context = _CorpusContext(_make_csr(9))
        inline = [_read_row(context, i)[1] for i in range(9)]
        with WorkerPool(workers) as pool:
            pooled = pool.run(_read_row, context, list(range(9)))
        assert [rows for _, rows in pooled] == inline
        assert os.getpid() not in {pid for pid, _ in pooled}

    def test_respawned_workers_receive_the_context_again(self):
        context = _CorpusContext(_make_csr(5))
        with WorkerPool(2) as pool:
            before = pool.run(_read_row, context, list(range(5)))
            assert pool.respawn(pool.generation)
            after = pool.run(_read_row, context, list(range(5)))
        assert [rows for _, rows in after] == [rows for _, rows in before]
        # A fresh worker set, not the old one.
        assert not {pid for pid, _ in after} & {pid for pid, _ in before}

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        assert pool.run(_read_row, _CorpusContext(_make_csr(3)), [0, 2])
        pool.close()
        pool.close()
        with pytest.raises(EngineError):
            pool.run(_read_row, _CorpusContext(_make_csr(3)), [0, 2])

    def test_single_task_map_ships_and_matches_inline(self):
        context = _CorpusContext(_make_csr(4))
        inline = _read_row(context, 2)
        with WorkerPool(2) as pool:
            (pooled,) = pool.run(_read_row, context, [2])
        assert pooled[1] == inline[1]
        assert pooled[0] != os.getpid()

    def test_stale_respawn_is_a_noop(self):
        with WorkerPool(2) as pool:
            generation = pool.generation
            assert pool.respawn(generation)
            # A second caller holding the old generation lost the race.
            assert not pool.respawn(generation)
            assert pool.generation == generation + 1


class TestSweepContextRows:
    def test_csr_row_views_are_cached_per_process(self):
        # A worker builds its row views once across its tasks; the
        # cache itself never rides the pickle.
        from repro.engine.sweep import _SweepContext
        from repro.spambayes.token_table import TokenTable

        csr = _make_csr(6)
        context = _SweepContext(
            token_ids=None,
            labels=(False,) * 6,
            specs={},
            table=TokenTable(),
            full_model=None,
            csr=csr,
        )
        first = context.rows()
        assert all(a is b for a, b in zip(first, context.rows()))
        assert [row.tolist() for row in first] == [row.tolist() for row in csr.rows()]
        clone = pickle.loads(pickle.dumps(context))
        assert "_rows" not in clone.__dict__
        assert [row.tolist() for row in clone.rows()] == [
            row.tolist() for row in first
        ]

    def test_token_id_rows_pass_through_without_csr(self):
        from array import array

        from repro.engine.sweep import _SweepContext
        from repro.spambayes.token_table import TokenTable

        token_ids = (array("q", [1, 4]), array("q", [2]))
        context = _SweepContext(
            token_ids=token_ids,
            labels=(False, True),
            specs={},
            table=TokenTable(),
            full_model=None,
        )
        assert context.rows() is token_ids
        assert "_rows" not in context.__dict__

    @pytest.mark.parametrize("ham_only", [False, True], ids=["all", "ham-only"])
    def test_csr_scoring_matches_token_id_scoring(self, sweep_inbox, ham_only):
        # The two fields a context can carry its inbox in must give the
        # same confusion counts: a stripe over the CSR row views on
        # one, over the ID arrays on the other.
        from repro.engine.sweep import _Stripe, _SweepContext
        from repro.spambayes.ndkernel import CsrMatrix
        from repro.spambayes.token_table import TokenTable

        table = TokenTable()
        classifier = Classifier(table=table)
        train_grouped(classifier, sweep_inbox)
        token_ids = tuple(message.token_ids(table) for message in sweep_inbox)
        fields = dict(
            labels=tuple(message.is_spam for message in sweep_inbox),
            specs={},
            table=table,
            full_model=None,
        )
        by_rows = _SweepContext(token_ids=token_ids, **fields)
        by_csr = _SweepContext(
            token_ids=None, csr=CsrMatrix.from_rows(token_ids), **fields
        )
        indices = tuple(range(0, len(sweep_inbox), 2))
        want = _Stripe(by_rows, indices, ham_only).evaluate(classifier)
        assert _Stripe(by_csr, indices, ham_only).evaluate(classifier) == want
        assert sum(want.values()) > 0


def _echo_task(context, task):
    return {"task": task, "context": context}


class TestSingleTaskPoolMap:
    @pytest.mark.parametrize("path", ["pool", "runner"])
    def test_single_task_matches_inline_for_any_payload(self, path):
        # A lone task shipped to a pool worker and one run inline by
        # ParallelRunner both return exactly what inline execution does.
        context = {"weights": [0.25, 0.5], "name": "tiny"}
        inline = [_echo_task(context, 7)]
        if path == "runner":
            assert ParallelRunner(2).map(_echo_task, context, [7]) == inline
            return
        with WorkerPool(2) as pool:
            assert pool.run(_echo_task, context, [7]) == inline

    def test_stream_records_byte_identical_sequential_vs_pooled(self):
        # A whole stream is a single engine task, shipped to a worker.
        from repro.stream.runner import _run_stream_task, run_stream_experiment
        from repro.stream.spec import StreamSpec

        spec = StreamSpec(
            ticks=3,
            ham_per_tick=8,
            spam_per_tick=8,
            attack_variant="usenet",
            attack_start_tick=2,
            attack_per_tick=4,
            test_size=20,
            seed=97,
        )
        sequential = run_stream_experiment(spec).to_record().as_dict()
        with WorkerPool(2) as pool:
            (result,) = pool.run(_run_stream_task, spec, [0])
        pooled = result.to_record().as_dict()
        assert (
            json.dumps(sequential, sort_keys=True).encode()
            == json.dumps(pooled, sort_keys=True).encode()
        )


# ----------------------------------------------------------------------
# Seeding helpers
# ----------------------------------------------------------------------


class TestSeeding:
    def test_drawn_seeds_replays_sequential_draws(self):
        a, b = random.Random(9), random.Random(9)
        assert drawn_seeds(a, 5) == [b.getrandbits(64) for _ in range(5)]
        # Both generators end in the same state.
        assert a.random() == b.random()

    def test_labelled_spawning_is_stable(self):
        """Labelled task streams (repro.rng.spawn_seed) are the other
        determinism mechanism the engine relies on."""
        from repro.rng import spawn_seed

        assert spawn_seed(1, "fold[0]") == spawn_seed(1, "fold[0]")
        assert spawn_seed(1, "fold[0]") != spawn_seed(1, "fold[1]")
        assert spawn_seed(1, "fold[0]") != spawn_seed(2, "fold[0]")


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------


class TestSnapshotRestore:
    def test_round_trip_leaves_counts_untouched(self, sweep_corpus):
        classifier = _trained_classifier(sweep_corpus)
        before = _classifier_state(classifier)
        snap = classifier.snapshot()
        classifier.learn_repeated(frozenset(f"attack{i}" for i in range(200)), True, 50)
        classifier.unlearn_repeated(
            sweep_corpus.dataset[0].tokens(), sweep_corpus.dataset[0].is_spam, 1
        )
        assert _classifier_state(classifier) != before
        classifier.restore(snap)
        assert _classifier_state(classifier) == before
        assert classifier._snapshot is None

    def test_restored_scores_are_bit_identical(self, sweep_corpus):
        classifier = _trained_classifier(sweep_corpus)
        tests = [m.tokens() for m in sweep_corpus.dataset.messages[:40]]
        before = classifier.score_many(tests)
        snap = classifier.snapshot()
        classifier.learn_repeated(frozenset(["viagra", "casino", "winner"]), True, 500)
        classifier.restore(snap)
        assert classifier.score_many(tests) == before

    def test_unlearn_grouped_is_exact_inverse_of_train_grouped(self, sweep_corpus):
        classifier = _trained_classifier(sweep_corpus)
        before = _classifier_state(classifier)
        extra = sweep_corpus.dataset.messages[:25]
        snap = classifier.snapshot()
        unlearn_grouped(classifier, extra)
        train_grouped(classifier, extra)
        assert _classifier_state(classifier) == before
        classifier.restore(snap)
        assert _classifier_state(classifier) == before

    def test_fold_model_by_subtraction_equals_retraining(self, sweep_inbox):
        """full - stripe == train(K-1 folds): the engine's core identity."""
        pairs = sweep_inbox.k_fold_indices(3, random.Random(4))
        full = Classifier()
        train_grouped(full, sweep_inbox)
        for train_idx, test_idx in pairs:
            retrained = Classifier()
            train_grouped(retrained, (sweep_inbox[i] for i in train_idx))
            snap = full.snapshot()
            unlearn_grouped(full, [sweep_inbox[i] for i in test_idx])
            assert _classifier_state(full) == _classifier_state(retrained)
            full.restore(snap)

    def test_nested_snapshot_rejected(self):
        classifier = Classifier()
        classifier.snapshot()
        with pytest.raises(TrainingError):
            classifier.snapshot()

    def test_restore_requires_matching_owner_and_active(self):
        a, b = Classifier(), Classifier()
        snap = a.snapshot()
        with pytest.raises(TrainingError):
            b.restore(snap)
        a.restore(snap)
        with pytest.raises(TrainingError):
            a.restore(snap)  # single-use


# ----------------------------------------------------------------------
# Bulk scoring
# ----------------------------------------------------------------------


class TestScoreMany:
    def test_matches_per_message_score_exactly(self, sweep_corpus):
        classifier = _trained_classifier(sweep_corpus)
        token_sets = [m.tokens() for m in sweep_corpus.dataset.messages[:60]]
        token_sets.append(frozenset())  # no evidence -> 0.5
        token_sets.append(frozenset(["never-seen-token"]))
        bulk = classifier.score_many(token_sets)
        assert bulk == [classifier.score(ts) for ts in token_sets]

    def test_accepts_unhashed_iterables(self, sweep_corpus):
        classifier = _trained_classifier(sweep_corpus)
        tokens = list(sweep_corpus.dataset[0].tokens())
        assert classifier.score_many([tokens]) == [classifier.score(tokens)]


# ----------------------------------------------------------------------
# Sweep equivalence: sequential loop == engine(workers=1) == engine(workers=N)
# ----------------------------------------------------------------------


def _sweep_signature(points):
    return [
        (p.attack_fraction, p.attack_message_count, p.confusion.as_dict()) for p in points
    ]


def sequential_sweep_signature(inbox, attack, fractions, folds, rng):
    """The sweep written out as the plain loop it computes, on the
    formula oracle (``tests/spambayes_spec.py``).

    One oracle per fold trained from scratch on token texts, the attack
    batch layered on group by group, and every held-out message scored
    on its own.  No clean-model reuse, no ID encoding, no bulk scoring,
    no workers.
    """
    counts = [attack_message_count(len(inbox), fraction) for fraction in fractions]
    confusions = [ConfusionCounts() for _ in fractions]
    for train_indices, test_indices in inbox.k_fold_indices(folds, rng):
        classifier = SpecClassifier()
        for message in inbox.subset(train_indices):
            classifier.learn(message.tokens(), message.is_spam)
        batch = attack.generate(counts[-1], random.Random(rng.getrandbits(64)))
        groups = iter(batch.groups)
        trained = 0
        group, used = None, 0
        for count, confusion in zip(counts, confusions):
            while trained < count:
                if group is None or used == group.count:
                    group, used = next(groups), 0
                take = min(group.count - used, count - trained)
                classifier.learn(group.training_tokens, True, take)
                used += take
                trained += take
            for message in inbox.subset(test_indices):
                score = classifier.score(message.tokens())
                if score <= DEFAULT_OPTIONS.ham_cutoff:
                    label = Label.HAM
                elif score <= DEFAULT_OPTIONS.spam_cutoff:
                    label = Label.UNSURE
                else:
                    label = Label.SPAM
                confusion.record(message.is_spam, label)
    return [
        (fraction, count, confusion.as_dict())
        for fraction, count, confusion in zip(fractions, counts, confusions)
    ]


class TestSweepEquivalence:
    FRACTIONS = (0.0, 0.01, 0.05)

    def _sweep(self, inbox, attack, workers):
        """One spec's points over 3 folds with a fixed planning rng."""
        spec = SweepSpec(key="optimal", attack=attack, fractions=self.FRACTIONS)
        (result,) = run_attack_sweeps(
            inbox, [(spec, random.Random(77))], 3, workers=workers
        )
        return result.points

    def test_engine_matches_sequential_reference(self, sweep_corpus, sweep_inbox):
        attack = OptimalDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary)
        reference = sequential_sweep_signature(
            sweep_inbox, attack, self.FRACTIONS, 3, random.Random(77)
        )
        engine = self._sweep(sweep_inbox, attack, workers=1)
        assert _sweep_signature(engine) == reference

    def test_parallel_matches_sequential(self, sweep_corpus, sweep_inbox):
        # A parallel sweep ships the inbox as one CsrMatrix, a
        # sequential one scores per-message ID arrays; both agree.
        attack = OptimalDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary)
        sequential = self._sweep(sweep_inbox, attack, workers=1)
        for workers in (2, 3):
            parallel = self._sweep(sweep_inbox, attack, workers=workers)
            assert _sweep_signature(parallel) == _sweep_signature(sequential)

    def test_multi_spec_sweep_results(self, sweep_corpus, sweep_inbox, monkeypatch):
        """Several variants share the planning rng layout of the
        sequential per-variant loop at any worker count, and every
        fold's clean model — the shared full-inbox model with the
        fold's stripe unlearned — holds exactly the counts of a fresh
        classifier trained on that fold's train stripe."""
        from repro.engine import sweep

        def build_specs():
            spawner = SeedSpawner(5).spawn("test-sweeps")
            return [
                (
                    SweepSpec(
                        key=name,
                        attack=attack,
                        fractions=self.FRACTIONS,
                    ),
                    spawner.rng(f"sweep:{name}"),
                )
                for name, attack in (
                    ("optimal", OptimalDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary)),
                    ("usenet", UsenetDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary)),
                )
            ]

        checked = []
        unlearned_fold = sweep._fold_classifier

        def checked_fold(context, task):
            classifier, snap = unlearned_fold(context, task)
            held_out = set(task.test_indices)
            train_stripe = tuple(i for i in range(len(context.labels)) if i not in held_out)
            fresh = type(classifier)(classifier.options, table=context.table)
            fresh.learn_groups(sweep._grouped_id_indices(context, train_stripe))
            classifier._ensure_columns()
            fresh._ensure_columns()
            n = len(context.table)
            assert (classifier.nspam, classifier.nham) == (fresh.nspam, fresh.nham)
            assert list(classifier._spam[:n]) == list(fresh._spam[:n])
            assert list(classifier._ham[:n]) == list(fresh._ham[:n])
            checked.append(task.fold_index)
            return classifier, snap

        monkeypatch.setattr(sweep, "_fold_classifier", checked_fold)
        sequential = run_attack_sweeps(sweep_inbox, build_specs(), 3, workers=1)
        monkeypatch.undo()
        assert checked == [0, 1, 2] * 2
        parallel = run_attack_sweeps(sweep_inbox, build_specs(), 3, workers=2)
        signatures = [
            [(result.key, [point.confusion.as_dict() for point in result.points]) for result in run]
            for run in (sequential, parallel)
        ]
        assert signatures[0] == signatures[1]

    def test_rejects_descending_fractions(self, sweep_corpus):
        with pytest.raises(ExperimentError):
            SweepSpec(
                key="x",
                attack=OptimalDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary),
                fractions=(0.05, 0.01),
            )

    def test_rejects_duplicate_spec_keys(self, sweep_corpus, sweep_inbox):
        attack = OptimalDictionaryAttack.from_vocabulary(sweep_corpus.vocabulary)
        specs = [
            (SweepSpec(key="dup", attack=attack, fractions=(0.0,)), random.Random(1)),
            (SweepSpec(key="dup", attack=attack, fractions=(0.0,)), random.Random(2)),
        ]
        with pytest.raises(EngineError):
            run_attack_sweeps(sweep_inbox, specs, 3)


# ----------------------------------------------------------------------
# Driver-level equivalence: workers=2 == workers=1
# ----------------------------------------------------------------------


def _at_one_and_two_workers(name, config):
    """The scenario's result objects at ``workers`` 1 and 2."""
    from dataclasses import replace

    return (
        run_scenario(name, config=config).result,
        run_scenario(name, config=replace(config, workers=2)).result,
    )


class TestDriverEquivalence:
    def test_dictionary_experiment(self):
        from repro.scenarios.dictionary_exp import DictionaryExperimentConfig

        config = DictionaryExperimentConfig(
            inbox_size=120,
            folds=3,
            attack_fractions=(0.0, 0.05),
            variants=("optimal", "usenet"),
            profile=TINY_PROFILE,
            corpus_ham=120,
            corpus_spam=120,
            seed=2,
        )
        sequential, parallel = _at_one_and_two_workers("figure1-dictionary", config)
        assert sequential.to_record().as_dict() == parallel.to_record().as_dict()

    def test_threshold_experiment(self):
        from repro.scenarios.threshold_exp import ThresholdExperimentConfig

        config = ThresholdExperimentConfig(
            inbox_size=120,
            folds=3,
            attack_fractions=(0.0, 0.05),
            quantiles=(0.10,),
            profile=TINY_PROFILE,
            corpus_ham=120,
            corpus_spam=120,
            seed=2,
        )
        sequential, parallel = _at_one_and_two_workers("figure5-threshold", config)
        assert sequential.to_record().as_dict() == parallel.to_record().as_dict()
        assert sequential.fitted_thresholds == parallel.fitted_thresholds

    def test_threshold_fold_scores_each_test_message_once_per_count(self, monkeypatch):
        """The static and every fitted (θ0, θ1) pair are tallied from
        one scoring pass of the fold's test set per contamination
        level."""
        from repro.scenarios import threshold_exp

        calls: list[int] = []
        fold_sizes: list[int] = []
        run_fold = threshold_exp._run_threshold_fold

        def spying_fold(context, task):
            model = context.full_model

            def score_workspace(workspace):
                calls.append(len(workspace.rows))
                return type(model).score_workspace(model, workspace)

            fold_sizes.append(len(task.test_indices))
            model.score_workspace = score_workspace
            try:
                return run_fold(context, task)
            finally:
                del model.score_workspace

        monkeypatch.setattr(threshold_exp, "_run_threshold_fold", spying_fold)
        config = threshold_exp.ThresholdExperimentConfig(
            inbox_size=120,
            folds=3,
            attack_fractions=(0.0, 0.05, 0.10),
            quantiles=(0.05, 0.10),
            profile=TINY_PROFILE,
            corpus_ham=120,
            corpus_spam=120,
            seed=2,
        )
        run_scenario("figure5-threshold", config=config)
        assert len(fold_sizes) == 3
        assert calls == [size for size in fold_sizes for _ in range(3)]

    def test_focused_experiments(self):
        from repro.scenarios.focused_exp import FocusedExperimentConfig

        config = FocusedExperimentConfig(
            inbox_size=100,
            n_targets=3,
            repetitions=2,
            attack_count=10,
            guess_probabilities=(0.3, 0.9),
            size_sweep_fractions=(0.0, 0.05),
            profile=TINY_PROFILE,
            corpus_ham=120,
            corpus_spam=120,
            seed=2,
        )
        for name in ("figure2-focused-knowledge", "figure3-focused-size"):
            sequential, parallel = _at_one_and_two_workers(name, config)
            assert sequential.to_record().as_dict() == parallel.to_record().as_dict()

    def test_roni_experiment(self):
        from repro.defenses.roni import RoniConfig
        from repro.scenarios.roni_exp import RoniExperimentConfig

        config = RoniExperimentConfig(
            pool_size=80,
            roni=RoniConfig(train_size=10, validation_size=20, trials=2),
            n_nonattack_spam=6,
            repetitions_per_variant=2,
            variants=("optimal", "usenet"),
            profile=TINY_PROFILE,
            corpus_ham=120,
            corpus_spam=120,
            seed=2,
        )
        sequential, parallel = _at_one_and_two_workers("roni-defense", config)
        assert sequential.attack_impacts == parallel.attack_impacts
        assert sequential.nonattack_spam_impacts == parallel.nonattack_spam_impacts

    def test_goodword_experiment(self):
        from repro.scenarios.goodword_exp import GoodWordExperimentConfig

        config = GoodWordExperimentConfig(
            inbox_size=120,
            n_test_spam=8,
            word_budgets=(0, 20, 80),
            oracle_candidates=200,
            profile=TINY_PROFILE,
            corpus_ham=140,
            corpus_spam=140,
            seed=2,
        )
        sequential, parallel = _at_one_and_two_workers("goodword-evasion", config)
        assert sequential.evasion == parallel.evasion
        assert sequential.median_words_to_evade == parallel.median_words_to_evade
