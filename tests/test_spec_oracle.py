"""The classifier against the formula oracle, bit for bit.

:class:`spambayes_spec.SpecClassifier` is the paper's learner written
out as counts plus formulas.  Hypothesis draws the options, a training
history and a query batch; every per-token probability and every
message score of :class:`~repro.spambayes.classifier.Classifier` must
equal the oracle's with ``==``, through the string path
(``score_many``, ``spam_prob``) and the ID path (``score_many_ids``).
Options the combiner cannot take (``s = 0`` leaves one-class tokens at
exactly 0 or 1) must raise ``ValueError`` everywhere; the exact message
is pinned by ``test_ndkernel_differential.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions
from repro.spambayes.token_table import TokenTable
from spambayes_spec import SpecClassifier

VOCAB = [f"t{i:02d}" for i in range(40)]
UNSEEN = [f"u{i}" for i in range(6)]

options_strategy = st.builds(
    ClassifierOptions,
    unknown_word_strength=st.floats(0.0, 5.0),
    unknown_word_prob=st.floats(0.0, 1.0),
    minimum_prob_strength=st.floats(0.0, 0.5),
    max_discriminators=st.integers(1, 30),
)
token_sets = st.frozensets(st.sampled_from(VOCAB), max_size=20)
training = st.lists(st.tuples(token_sets, st.booleans()), max_size=25)
queries = st.lists(st.frozensets(st.sampled_from(VOCAB + UNSEEN), max_size=25), max_size=8)


def _outcome(score, *args):
    """``score(*args)``, or the exception type it raised."""
    try:
        return score(*args)
    except ValueError:
        return ValueError


@given(options=options_strategy, history=training, batch=queries)
@settings(max_examples=300, deadline=None)
def test_probabilities_and_scores_match_oracle(options, history, batch):
    core = Classifier(options, table=TokenTable())
    spec = SpecClassifier(options)
    for tokens, is_spam in history:
        core.learn(tokens, is_spam)
        spec.learn(tokens, is_spam)

    assert [core.spam_prob(t) for t in VOCAB + UNSEEN] == [
        spec.spam_prob(t) for t in VOCAB + UNSEEN
    ]
    expected = _outcome(lambda: [spec.score(q) for q in batch])
    assert _outcome(core.score_many, batch) == expected
    # Encoding interns the unseen tokens as zero-count IDs, which score
    # the prior just as unseen texts do.
    encoded = [core.table.encode_unique(q) for q in batch]
    assert _outcome(core.score_many_ids, encoded) == expected


ops = st.lists(
    st.tuples(token_sets, st.booleans(), st.integers(1, 3), st.booleans(), st.integers(0, 99)),
    min_size=1,
    max_size=20,
)


@given(steps=ops, batch=queries)
@settings(max_examples=100, deadline=None)
def test_learn_unlearn_interleavings_match_oracle_counts(steps, batch):
    """Random learn/unlearn interleavings, string and ID paths mixed:
    the kernel's counts equal the oracle's counters after every step,
    and so do its scores (each step evicts part of the memo)."""
    core = Classifier(table=TokenTable())
    spec = SpecClassifier()
    learned: list[tuple[frozenset, bool, int]] = []
    encoded = [core.table.encode_unique(q) for q in batch]
    for tokens, is_spam, count, undo, pick in steps:
        if undo and learned:
            tokens, is_spam, count = learned.pop(pick % len(learned))
            core.unlearn_ids_repeated(core.table.encode_unique(tokens), is_spam, count)
            spec.unlearn(tokens, is_spam, count)
        else:
            learned.append((tokens, is_spam, count))
            core.learn_repeated(tokens, is_spam, count)
            spec.learn(tokens, is_spam, count)
        assert_matches_oracle(core, spec)
        assert core.score_many_ids(encoded) == [spec.score(q) for q in batch]


def assert_matches_oracle(core: Classifier, spec: SpecClassifier) -> None:
    """The kernel's training state equals the oracle's counters."""
    counts = spec.counts()
    assert (core.nspam, core.nham) == (spec.nspam, spec.nham)
    assert core.vocabulary_size == len(counts)
    assert sorted(core.iter_vocabulary()) == sorted(counts)
    assert {
        token: (core.word_info(token).spamcount, core.word_info(token).hamcount)
        for token in counts
    } == counts


def test_zero_count_ids_at_zero_strength_score_without_dividing():
    """At ``unknown_word_strength`` 0, f(w) of a zero-count token is
    0/0 by the formula; the classifier must give it the prior without
    computing that quotient (no ``RuntimeWarning``) and match the
    oracle."""
    import warnings

    options = ClassifierOptions(unknown_word_strength=0.0, unknown_word_prob=0.3)
    core = Classifier(options, table=TokenTable())
    spec = SpecClassifier(options)
    # Both tokens seen in both classes, so no f(w) is exactly 0 or 1
    # and the combiner accepts s = 0.
    for tokens, is_spam in (({"t00", "t01"}, True), ({"t00"}, False), ({"t01"}, False)):
        core.learn(tokens, is_spam)
        spec.learn(tokens, is_spam)
    batch = [frozenset({"t00", "u0"}), frozenset({"u1"})]
    encoded = [core.table.encode_unique(q) for q in batch]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = core.score_many_ids(encoded)
        probs = [core.spam_prob(t) for t in ("t00", "t01", "u0", "u1")]
    assert scores == [spec.score(q) for q in batch]
    assert probs == [spec.spam_prob(t) for t in ("t00", "t01", "u0", "u1")]
