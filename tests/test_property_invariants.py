"""Cross-module property-based invariants.

These hypothesis tests exercise the couplings the experiments rely on:
batched vs sequential training equivalence, attack train/untrain
round-trips, prefix-training consistency, and persistence fidelity
under arbitrary training histories.  The last section fuzzes the input
layer (parse, tokenize, TREC file ingest) with hostile text, seeded with
visual-spoofing mail: homoglyphs, zero-width characters, byte-order
marks, right-to-left overrides and mixed scripts.
"""

from __future__ import annotations

import functools
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.base import AttackBatch, AttackMessageGroup
from repro.corpus.trec import TrecStyleCorpus, load_trec_corpus
from repro.corpus.vocabulary import TINY_PROFILE
from repro.errors import ReproError
from repro.engine.sweep import IncrementalAttackTrainer
from repro.serve import ServeClient, ServeConfig
from harness import serve_in_thread
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email
from repro.spambayes.ndkernel import create_classifier
from repro.spambayes.persistence import classifier_from_dict, classifier_to_dict
from repro.spambayes.tokenizer import Tokenizer

token_sets = st.sets(st.sampled_from([f"w{i}" for i in range(25)]), min_size=1, max_size=8)
histories = st.lists(st.tuples(token_sets, st.booleans()), min_size=1, max_size=25)


def _state(classifier: Classifier) -> tuple:
    vocabulary = {
        token: (classifier.word_info(token).spamcount, classifier.word_info(token).hamcount)
        for token in classifier.iter_vocabulary()
    }
    return classifier.nspam, classifier.nham, vocabulary


@given(history=histories, tokens=token_sets, count=st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_learn_repeated_equals_sequential(history, tokens, count):
    sequential = Classifier()
    batched = Classifier()
    for message_tokens, is_spam in history:
        sequential.learn(message_tokens, is_spam)
        batched.learn(message_tokens, is_spam)
    for _ in range(count):
        sequential.learn(tokens, True)
    batched.learn_repeated(tokens, True, count)
    assert _state(sequential) == _state(batched)
    probe = set(list(tokens)[:3]) | {"w0"}
    assert sequential.score(probe) == batched.score(probe)


@given(
    history=histories,
    groups=st.lists(
        st.tuples(token_sets, st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=40, deadline=None)
def test_attack_batch_roundtrip(history, groups):
    classifier = Classifier()
    for message_tokens, is_spam in history:
        classifier.learn(message_tokens, is_spam)
    snapshot = _state(classifier)
    batch = AttackBatch(
        "prop",
        [AttackMessageGroup(tokens=frozenset(t), count=c) for t, c in groups],
    )
    batch.train_into(classifier)
    assert classifier.nspam == snapshot[0] + batch.message_count
    batch.untrain_from(classifier)
    assert _state(classifier) == snapshot


@given(
    groups=st.lists(
        st.tuples(token_sets, st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=5,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_incremental_prefix_equals_fresh_training(groups, data):
    """Advancing a trainer to N must equal training the first N batch
    messages from scratch, for any N and any group structure."""
    batch = AttackBatch(
        "prop",
        [AttackMessageGroup(tokens=frozenset(t), count=c) for t, c in groups],
    )
    target = data.draw(st.integers(min_value=0, max_value=batch.message_count))
    incremental = Classifier()
    incremental.learn({"base"}, False)
    trainer = IncrementalAttackTrainer(incremental, batch)
    trainer.advance_to(target)

    fresh = Classifier()
    fresh.learn({"base"}, False)
    remaining = target
    for group in batch.groups:
        take = min(group.count, remaining)
        fresh.learn_repeated(group.training_tokens, True, take)
        remaining -= take
        if remaining == 0:
            break
    assert _state(incremental) == _state(fresh)


@given(history=histories)
@settings(max_examples=40, deadline=None)
def test_persistence_is_faithful_for_any_history(history):
    original = Classifier()
    for message_tokens, is_spam in history:
        original.learn(message_tokens, is_spam)
    restored = classifier_from_dict(classifier_to_dict(original))
    assert _state(restored) == _state(original)
    probe = {"w0", "w1", "w2"}
    assert restored.score(probe) == original.score(probe)


@given(history=histories)
@settings(max_examples=30, deadline=None)
def test_copy_never_aliases(history):
    original = Classifier()
    for message_tokens, is_spam in history:
        original.learn(message_tokens, is_spam)
    clone = original.copy()
    snapshot = _state(original)
    clone.learn({"w0", "w1"}, True)
    clone.learn_repeated({"w2"}, False, 3)
    assert _state(original) == snapshot


# ----------------------------------------------------------------------
# Input layer: hostile text parses or fails with ReproError, tokenizes
# the same way twice, and scores inside [0, 1]
# ----------------------------------------------------------------------

# Cyrillic a inside Latin words; zero-width space, non-joiner, joiner;
# byte-order marks; a right-to-left override; Latin/Cyrillic/Greek mix.
SPOOFED = (
    "Subject: verify your p\u0430ypal account\n\nlog in to p\u0430ypal now",
    "Subject: win\n\nfree\u200bmoney cl\u200cick\u200dhere \u200b\u200c\u200d",
    "\ufeffSubject: invoice\n\n\ufeffpayment due",
    "Subject: invoice\u202egpj.exe\n\nopen the attached invoice\u202etxt.exe",
    "From: B\u0430nk \u0405ecurity <alert@b\u0430nk.example>\n\nW\u0456nner \u03a1rize \u0412\u0410NK",
)
hostile_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)  # UTF-8 writable


def _spoofed_examples(test):
    for text in SPOOFED:
        test = example(text=text)(test)
    return test


@functools.cache
def _training_set() -> list[tuple[list[str], bool]]:
    corpus = TrecStyleCorpus.generate(n_ham=20, n_spam=20, profile=TINY_PROFILE, seed=5)
    return [(sorted(m.tokens()), m.is_spam) for m in corpus.dataset.sample_inbox(40, 0.5, random.Random(5))]


@functools.cache
def _trained():
    classifier = create_classifier()
    for tokens, is_spam in _training_set():
        classifier.learn(tokens, is_spam)
    return classifier


# Warmed by every earlier example of the hostile-input tests, the
# spoofing seeds included, so its chunk memo answers with hits where a
# fresh tokenizer computes.
_WARM_TOKENIZER = Tokenizer()


def _assert_tokenizes_stably(email: Email) -> None:
    tokens = Tokenizer().tokenize(email)
    assert _WARM_TOKENIZER.tokenize(email) == tokens
    assert _WARM_TOKENIZER.tokenize(email) == tokens  # every body chunk a hit
    assert 0.0 <= _trained().score(frozenset(tokens)) <= 1.0


@_spoofed_examples
@given(text=hostile_text)
@settings(max_examples=150, deadline=None)
def test_hostile_text_parses_tokenizes_and_scores(text):
    try:
        email = Email.from_text(text)
    except ReproError:
        return
    _assert_tokenizes_stably(email)


@_spoofed_examples
@given(text=hostile_text)
@settings(max_examples=60, deadline=None)
def test_hostile_trec_files_load_or_raise_repro_error(text):
    # The raw text as a message file under a well-formed index, and as
    # the index itself.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "full").mkdir()
        (root / "data").mkdir()
        (root / "data" / "inmail.1").write_text(text, encoding="utf-8")
        for index in ("spam ../data/inmail.1\n", text):
            (root / "full" / "index").write_text(index, encoding="utf-8")
            try:
                emails = [message.email for message in load_trec_corpus(root)]
            except ReproError:
                continue
            for email in emails:
                _assert_tokenizes_stably(email)


def test_served_scores_equal_library_on_spoofed_mail(tmp_path):
    probes = [sorted(set(Tokenizer().tokenize(Email.from_text(text)))) for text in SPOOFED]
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"), batch_window_ms=0.0)
    with serve_in_thread(config) as service, ServeClient(service.address) as client:
        for tokens, is_spam in _training_set():
            client.train(tokens, is_spam)
        served = [client.score(tokens) for tokens in probes]
    assert served == [_trained().score(tokens) for tokens in probes]
