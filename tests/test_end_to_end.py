"""End-to-end story test: the paper's narrative as one scenario.

A single deterministic walk through the whole system — corpus, clean
filter, both attacks, both defenses — asserting at each step what the
paper says should happen.  If this test passes, the headline narrative
of the paper reproduces on this machine.
"""

from __future__ import annotations

import pytest

from repro import SpamFilter, TrecStyleCorpus
from repro.attacks import FocusedAttack, UsenetDictionaryAttack
from repro.defenses import DynamicThresholdDefense, RoniDefense
from repro.corpus.dataset import Dataset, train_grouped
from repro.experiments.attack_data import attack_messages_as_dataset
from repro.engine.sweep import attack_message_count, evaluate_dataset
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import Label


@pytest.fixture(scope="module")
def world(small_corpus):
    spawner = SeedSpawner(2008).spawn("end-to-end")
    inbox = small_corpus.dataset.sample_inbox(600, 0.5, spawner.rng("inbox"))
    inbox_ids = {m.msgid for m in inbox}
    held_out = [m for m in small_corpus.dataset if m.msgid not in inbox_ids]
    spam_filter = SpamFilter()
    train_grouped(spam_filter.classifier, inbox)
    return spawner, inbox, held_out, spam_filter


def test_act1_clean_filter_works(world):
    _, _, held_out, spam_filter = world
    counts = evaluate_dataset(spam_filter.classifier, held_out[:300])
    assert counts.ham_misclassified_rate < 0.05
    assert counts.spam_as_spam_rate > 0.85


def test_act2_dictionary_attack_disables_filter(world, small_corpus):
    spawner, inbox, held_out, spam_filter = world
    attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
    batch = attack.generate(
        attack_message_count(len(inbox), 0.01), spawner.rng("dict-attack")
    )
    poisoned = spam_filter.classifier.copy()
    batch.train_into(poisoned)
    counts = evaluate_dataset(poisoned, held_out[:300])
    # "renders the filter unusable with as little as 1% control"
    assert counts.ham_misclassified_rate > 0.5


def test_act3_focused_attack_buries_the_bid(world):
    spawner, inbox, held_out, spam_filter = world
    target = next(m for m in held_out if not m.is_spam)
    assert spam_filter.label_for_score(spam_filter.classifier.score(target.tokens())) is Label.HAM
    attack = FocusedAttack(
        target.email,
        guess_probability=0.9,
        header_pool=[m.email for m in inbox.spam],
    )
    batch = attack.generate(36, spawner.rng("focused-attack"))  # 6% of inbox
    working = spam_filter.classifier.copy()
    batch.train_into(working)
    # The bid no longer reaches the inbox...
    assert working.score(target.tokens()) > spam_filter.classifier.options.ham_cutoff
    # ...while other ham is barely disturbed (Targeted, not Indiscriminate).
    other_ham = [m for m in held_out[:200] if not m.is_spam and m.msgid != target.msgid]
    counts = evaluate_dataset(working, other_ham)
    assert counts.ham_misclassified_rate < 0.25


def test_act4_roni_stops_the_dictionary_attack(world, small_corpus):
    spawner, inbox, held_out, _ = world
    defense = RoniDefense(inbox, spawner.rng("roni"))
    attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
    batch = attack.generate(3, spawner.rng("roni-attack"))
    for measurement in defense.measure_batch(batch):
        assert defense._verdict(measurement).rejected
    # And does not reject ordinary traffic.
    for measurement in defense.measure_many(held_out[:6]):
        assert not defense._verdict(measurement).rejected


def test_act5_dynamic_threshold_rescues_ham_at_a_price(world, small_corpus):
    spawner, inbox, held_out, spam_filter = world
    attack = UsenetDictionaryAttack.from_vocabulary(small_corpus.vocabulary)
    count = attack_message_count(len(inbox), 0.05)
    batch = attack.generate(count, spawner.rng("thr-attack"))
    poisoned_training = Dataset(
        inbox.messages + attack_messages_as_dataset(batch), name="poisoned"
    )
    fit = DynamicThresholdDefense().fit(poisoned_training, spawner.rng("thr-fit"))
    assert fit.ham_cutoff > spam_filter.classifier.options.ham_cutoff
    defended = Classifier()
    train_grouped(defended, poisoned_training)
    counts = evaluate_dataset(
        defended, held_out[:300], cutoffs=(fit.ham_cutoff, fit.spam_cutoff)
    )
    # Ham rescued from the spam folder...
    assert counts.ham_as_spam_rate < 0.1
    # ...but spam piles up in unsure (the paper's closing caveat).
    assert counts.spam_as_unsure_rate > 0.1
