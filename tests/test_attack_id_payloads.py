"""Differential tests: ID-native attack payloads vs the string path.

Attack payloads are ID-native end to end —
:meth:`AttackBatch.encode` interns each payload once and the engine,
the focused cells and the RONI gate consume the encoded arrays
directly.  The public string-payload path (``learn_repeated`` over
``AttackMessageGroup.training_tokens``, as :meth:`AttackBatch.train_into`
runs it) stays, and these tests hold the two side by side across
**every attack class**: identical training counts, identical scores,
identical RONI measurements; full sweeps agree at workers ∈ {1, 2}.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.attacks.dictionary import (
    AspellDictionaryAttack,
    OptimalDictionaryAttack,
    UsenetDictionaryAttack,
)
from repro.attacks.focused import FocusedAttack
from repro.attacks.knowledge import EmpiricalHamDistribution, budgeted_attack
from repro.corpus.trec import TrecStyleCorpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.defenses.roni import RoniDefense
from repro.engine.sweep import IncrementalAttackTrainer, SweepSpec, run_attack_sweeps
from repro.corpus.dataset import train_grouped
from repro.spambayes.classifier import Classifier
from repro.spambayes.token_table import TokenTable

WORKER_COUNTS = (1, 2)


@pytest.fixture(scope="module")
def corpus():
    return TrecStyleCorpus.generate(n_ham=140, n_spam=140, profile=TINY_PROFILE, seed=13)


@pytest.fixture(scope="module")
def inbox(corpus):
    inbox = corpus.dataset.sample_inbox(160, 0.5, random.Random(4))
    return inbox


def _all_attacks(corpus, inbox):
    """One instance of every attack class (name -> attack)."""
    target = next(m for m in corpus.dataset.ham if m not in inbox.messages)
    return {
        "optimal": OptimalDictionaryAttack.from_vocabulary(corpus.vocabulary),
        "usenet": UsenetDictionaryAttack.from_vocabulary(corpus.vocabulary, seed=1),
        "aspell": AspellDictionaryAttack.from_vocabulary(corpus.vocabulary),
        "focused": FocusedAttack(
            target.email,
            guess_probability=0.5,
            header_pool=[m.email for m in inbox.spam],
        ),
        "informed": budgeted_attack(
            EmpiricalHamDistribution(m.email for m in corpus.dataset.ham[:60]),
            budget=120,
        ),
    }


def _attack_params():
    return ["optimal", "usenet", "aspell", "focused", "informed"]


def _state(classifier: Classifier):
    return (
        classifier.nspam,
        classifier.nham,
        {
            token: (info.spamcount, info.hamcount)
            for token in classifier.iter_vocabulary()
            for info in (classifier.word_info(token),)
        },
    )


@pytest.mark.parametrize("name", _attack_params())
class TestTrainingEquivalence:
    """String-trained and ID-trained classifiers are indistinguishable."""

    def _batch(self, corpus, inbox, name, count=8):
        attack = _all_attacks(corpus, inbox)[name]
        return attack.generate(count, random.Random(99))

    def test_train_into_ids_matches_train_into(self, corpus, inbox, name):
        batch = self._batch(corpus, inbox, name)
        via_strings = Classifier()
        train_grouped(via_strings, inbox)
        via_ids = Classifier()
        train_grouped(via_ids, inbox)

        batch.train_into(via_strings)
        batch.train_into_ids(via_ids)
        assert _state(via_ids) == _state(via_strings)

        # Scores over real mail are float-identical, not just counts.
        probes = [m.tokens() for m in corpus.dataset.messages[:30]]
        assert via_ids.score_many(probes) == via_strings.score_many(probes)

    def test_untrain_from_reverses_train_into_ids(self, corpus, inbox, name):
        batch = self._batch(corpus, inbox, name)
        classifier = Classifier()
        train_grouped(classifier, inbox)
        before = _state(classifier)
        batch.train_into_ids(classifier)
        batch.untrain_from(classifier)
        assert _state(classifier) == before

    def test_incremental_trainer_matches_string_prefix(self, corpus, inbox, name):
        """Partial groups: at every target the ID trainer's state is the
        first ``target`` messages of the batch trained as strings."""
        batch = self._batch(corpus, inbox, name, count=10)
        clean = Classifier()
        train_grouped(clean, inbox)
        via_ids = clean.copy()

        id_trainer = IncrementalAttackTrainer(via_ids, batch)
        for target in (0, 3, 7, 10):
            id_trainer.advance_to(target)
            via_strings = clean.copy()
            remaining = target
            for group in batch.groups:
                take = min(group.count, remaining)
                via_strings.learn_repeated(group.training_tokens, True, take)
                remaining -= take
            assert _state(via_ids) == _state(via_strings)

    def test_roni_measure_batch_matches_measure_tokens(self, corpus, inbox, name):
        batch = self._batch(corpus, inbox, name, count=3)
        table = inbox.encode()
        defense = RoniDefense(inbox, random.Random(5), table=table)
        reference = [
            defense.measure_tokens(group.training_tokens, is_spam=True)
            for group in batch.groups
        ]
        assert defense.measure_batch(batch) == reference


class TestEncodeCache:
    def test_encode_caches_per_table(self, corpus, inbox):
        batch = _all_attacks(corpus, inbox)["focused"].generate(5, random.Random(1))
        table = TokenTable()
        first = batch.encode(table)
        assert batch.encode(table) is first  # cached
        other = TokenTable()
        assert batch.encode(other) is not first  # new table re-encodes
        decoded = {
            frozenset(other.decode(ids)) for ids, _ in batch.encode(other)
        }
        assert decoded == {group.training_tokens for group in batch.groups}

    def test_encode_counts_and_order_follow_groups(self, corpus, inbox):
        batch = _all_attacks(corpus, inbox)["usenet"].generate(7, random.Random(1))
        table = TokenTable()
        encoded = batch.encode(table)
        assert [count for _, count in encoded] == [g.count for g in batch.groups]
        for ids, _ in encoded:
            assert list(ids) == sorted(set(ids))  # sorted, duplicate-free

    def test_pickle_drops_the_cache(self, corpus, inbox):
        batch = _all_attacks(corpus, inbox)["optimal"].generate(4, random.Random(1))
        table = TokenTable()
        batch.encode(table)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._encoded is None and clone._encoded_table is None
        fresh = TokenTable()
        assert [
            (frozenset(fresh.decode(ids)), count) for ids, count in clone.encode(fresh)
        ] == [(g.training_tokens, g.count) for g in batch.groups]


class TestSweepEquivalenceAcrossWorkers:
    """Full sweeps through the ID engine: workers 1 and 2 agree."""

    FRACTIONS = (0.0, 0.02, 0.05)

    @pytest.mark.parametrize("name", ["usenet", "focused"])
    def test_engine_identical_across_workers(self, corpus, inbox, name):
        spec = SweepSpec(
            key=name, attack=_all_attacks(corpus, inbox)[name], fractions=self.FRACTIONS
        )
        signatures = {}
        for workers in WORKER_COUNTS:
            (result,) = run_attack_sweeps(
                inbox, [(spec, random.Random(21))], 3, workers=workers
            )
            signatures[workers] = [
                (p.attack_fraction, p.attack_message_count, p.confusion.as_dict())
                for p in result.points
            ]
        assert signatures[1] == signatures[2]
        # The top fraction trains attack mail into every fold.
        assert signatures[1][-1][1] > 0
