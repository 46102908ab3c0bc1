"""Randomized property tests for snapshot/restore.

:meth:`Classifier.snapshot` copies the two count columns and
:meth:`Classifier.restore` writes them back; the sweep engine and the
streaming engine stand on that round-trip, and example-based tests only
walk a handful of op shapes through it.  These tests drive **seeded
random interleavings** of every mutating training call (``learn`` /
``unlearn`` / ``learn_repeated`` / ``unlearn_repeated``, plus learns of
never-seen tokens that grow the columns past the copy) mixed with
scoring calls (``score_ids`` / ``score`` / ``spam_prob`` — which build
and partially evict the significance memos a restore must void) between
``snapshot()`` and ``restore()``, on both count-column stores and on
classifiers rebuilt by ``copy()``, pickling and ``classifier_from_dict``
(whose columns are re-adopted in memory), then assert the classifier is
**bit-exactly** the classifier that never took the excursion:

* the serialized dump (token → counts mapping, table-layout
  independent) matches a freshly trained twin that replayed only the
  committed operations,
* every probe message — including tokens first interned during an
  excursion — scores identically on both: floats compared for
  equality, which catches any memo entry the restore failed to void,
* the excursion/restore cycle repeats, with more committed work in
  between, so a classifier is proven re-snapshottable mid-history.

Everything is driven by ``random.Random(seed)`` over a parametrized
seed list — fully deterministic, no external fuzzing dependency.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import TrainingError
from repro.spambayes.classifier import Classifier
from repro.spambayes.persistence import classifier_from_dict, classifier_to_dict
from repro.storage import STORE_DIR_ENV, DiskBackend

VOCABULARY = [f"tok{i:02d}" for i in range(40)]


def _rebuilt(how: str, source: Classifier) -> Classifier:
    """``source`` as ``copy()``, a pickle round trip or a dump reload
    give it back: same counts, columns re-adopted in memory."""
    if how == "copy":
        return source.copy()
    if how == "pickle":
        return pickle.loads(pickle.dumps(source))
    return classifier_from_dict(classifier_to_dict(source))


@pytest.fixture(params=["memory", "disk", "disk-copy", "pickle", "from-dict"])
def make_classifier(request, tmp_path, monkeypatch):
    """A factory for empty classifiers on one count-column store, or
    rebuilt from an empty one whose table already interned the
    vocabulary (so the rebuilt columns start shorter than the table)."""
    if request.param == "memory":
        yield Classifier
        return
    if request.param in ("pickle", "from-dict"):

        def rebuilt() -> Classifier:
            source = Classifier()
            source.table.encode_unique(VOCABULARY)
            return _rebuilt(request.param, source)

        yield rebuilt
        return
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
    backend = DiskBackend.create()

    def on_disk() -> Classifier:
        classifier = Classifier(
            table=backend.new_token_table(), columns=backend.count_columns()
        )
        if request.param == "disk-copy":
            classifier.table.encode_unique(VOCABULARY)
            classifier = _rebuilt("copy", classifier)
        return classifier

    try:
        yield on_disk
    finally:
        backend.destroy()


def random_message(rng: random.Random) -> frozenset[str]:
    return frozenset(rng.sample(VOCABULARY, rng.randint(1, 12)))


class OpDriver:
    """Applies a random mutating op and logs it for replay.

    ``live`` tracks every (tokens, is_spam, count) unit currently
    trained, so generated unlearns are always *valid* — the property
    under test is snapshot round-tripping, not error handling.
    ``novel`` lists every token first learned through ``learn_novel``.
    """

    def __init__(self, classifier: Classifier, rng: random.Random) -> None:
        self.classifier = classifier
        self.rng = rng
        self.live: list[tuple[frozenset[str], bool, int]] = []
        self.log: list[tuple] = []
        self.novel: list[str] = []

    def apply_random_op(self) -> None:
        choices = [
            "learn", "learn", "learn_repeated", "learn_novel", "score", "score_ids", "prob",
        ]
        if self.live:
            choices += ["unlearn", "unlearn_repeated"]
        op = self.rng.choice(choices)
        getattr(self, f"_op_{op}")()

    # -- mutations ------------------------------------------------------

    def _op_learn(self) -> None:
        tokens = random_message(self.rng)
        is_spam = self.rng.random() < 0.5
        self.classifier.learn(tokens, is_spam)
        self.live.append((tokens, is_spam, 1))
        self.log.append(("learn", tokens, is_spam, 1))

    def _op_learn_repeated(self) -> None:
        tokens = random_message(self.rng)
        is_spam = self.rng.random() < 0.5
        count = self.rng.randint(2, 5)
        self.classifier.learn_repeated(tokens, is_spam, count)
        self.live.append((tokens, is_spam, count))
        self.log.append(("learn", tokens, is_spam, count))

    def _op_learn_novel(self) -> None:
        # Interns tokens the table has never seen, so the count columns
        # grow past the length a snapshot copied.
        fresh = [f"novel{len(self.novel) + k}" for k in range(self.rng.randint(1, 40))]
        self.novel += fresh
        tokens = random_message(self.rng) | frozenset(fresh)
        is_spam = self.rng.random() < 0.5
        self.classifier.learn(tokens, is_spam)
        self.live.append((tokens, is_spam, 1))
        self.log.append(("learn", tokens, is_spam, 1))

    def _pop_live(self) -> tuple[frozenset[str], bool, int]:
        return self.live.pop(self.rng.randrange(len(self.live)))

    def _op_unlearn(self) -> None:
        tokens, is_spam, count = self._pop_live()
        self.classifier.unlearn_repeated(tokens, is_spam, 1)
        if count > 1:
            self.live.append((tokens, is_spam, count - 1))
        self.log.append(("unlearn", tokens, is_spam, 1))

    def _op_unlearn_repeated(self) -> None:
        tokens, is_spam, count = self._pop_live()
        self.classifier.unlearn_repeated(tokens, is_spam, count)
        self.log.append(("unlearn", tokens, is_spam, count))

    # -- scoring (memo-warming, never mutating) -------------------------

    def _op_score(self) -> None:
        self.classifier.score(random_message(self.rng))

    def _op_score_ids(self) -> None:
        ids = self.classifier.table.encode_unique(random_message(self.rng))
        self.classifier.score_ids(ids)

    def _op_prob(self) -> None:
        self.classifier.spam_prob(self.rng.choice(VOCABULARY))


def replay(log: list[tuple]) -> Classifier:
    """A fresh twin trained from a committed op log alone."""
    twin = Classifier()
    for op, tokens, is_spam, count in log:
        if op == "learn":
            twin.learn_repeated(tokens, is_spam, count)
        else:
            twin.unlearn_repeated(tokens, is_spam, count)
    return twin


def assert_bit_identical(driver: OpDriver, twin: Classifier, rng: random.Random):
    classifier = driver.classifier
    assert classifier.nspam == twin.nspam
    assert classifier.nham == twin.nham
    assert classifier.vocabulary_size == twin.vocabulary_size
    assert classifier_to_dict(classifier) == classifier_to_dict(twin)
    for _ in range(15):
        probe = random_message(rng)
        if driver.novel:
            probe |= frozenset(rng.sample(driver.novel, min(5, len(driver.novel))))
        assert classifier.score(probe) == twin.score(probe)
        ids = classifier.table.encode_unique(probe)
        assert classifier.score_many_ids([ids]) == [twin.score(probe)]


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234, 99991])
class TestSnapshotRoundTripProperties:
    def test_random_interleavings_round_trip_bit_exactly(self, seed, make_classifier):
        rng = random.Random(seed)
        driver = OpDriver(make_classifier(), rng)

        # Committed prelude.
        for _ in range(rng.randint(4, 10)):
            driver.apply_random_op()

        for _round in range(3):
            committed_log = list(driver.log)
            committed_live = list(driver.live)
            snap = driver.classifier.snapshot()
            assert driver.classifier._snapshot is not None
            # The excursion: a random interleaving of every op kind.
            for _ in range(rng.randint(5, 20)):
                driver.apply_random_op()
            driver.classifier.restore(snap)
            assert driver.classifier._snapshot is None
            # Discard the excursion from the driver's book-keeping too.
            driver.log = committed_log
            driver.live = committed_live

            assert_bit_identical(driver, replay(driver.log), random.Random(seed + 1))

            # More committed work between rounds: snapshots must be
            # re-armable mid-history, not just once on a fresh model.
            for _ in range(rng.randint(2, 6)):
                driver.apply_random_op()

        assert_bit_identical(driver, replay(driver.log), random.Random(seed + 2))

    def test_restored_classifier_keeps_training_like_the_twin(self, seed, make_classifier):
        # After a restore, future training must behave as if the
        # excursion never happened — counts, memos and snapshots alike.
        rng = random.Random(seed)
        driver = OpDriver(make_classifier(), rng)
        for _ in range(6):
            driver.apply_random_op()
        committed_log = list(driver.log)
        committed_live = list(driver.live)
        snap = driver.classifier.snapshot()
        for _ in range(8):
            driver.apply_random_op()
        driver.classifier.restore(snap)
        driver.log, driver.live = committed_log, committed_live

        # Same continuation applied to both sides.
        continuation = [
            (random_message(rng), rng.random() < 0.5, rng.randint(1, 3))
            for _ in range(5)
        ]
        twin = replay(driver.log)
        for tokens, is_spam, count in continuation:
            driver.classifier.learn_repeated(tokens, is_spam, count)
            twin.learn_repeated(tokens, is_spam, count)
        assert_bit_identical(driver, twin, random.Random(seed + 3))


class TestSnapshotContract:
    def test_single_use_and_ownership(self, make_classifier):
        classifier = make_classifier()
        classifier.learn({"a", "b"}, True)
        snap = classifier.snapshot()
        with pytest.raises(TrainingError, match="already active"):
            classifier.snapshot()  # one active snapshot at a time
        classifier.restore(snap)
        with pytest.raises(TrainingError, match="not active"):
            classifier.restore(snap)  # single-use
        other = make_classifier()
        other_snap = other.snapshot()
        with pytest.raises(TrainingError, match="different classifier"):
            classifier.restore(other_snap)  # owner-bound

    def test_restore_voids_memo_entries_of_an_unchanged_tag(self, make_classifier):
        # The excursion leaves (nspam, nham) where the snapshot found it,
        # and the memo is reconciled inside it: only restore can tell
        # the memo that "a" and "b" went back to their old counts.
        classifier = make_classifier()
        twin = Classifier()
        for tokens in ({"a", "c"}, {"b", "c"}):
            classifier.learn(tokens, True)
            twin.learn(tokens, True)
        classifier.learn({"x"}, False)
        twin.learn({"x"}, False)
        probe = {"a", "b", "c", "x"}
        classifier.score(probe)
        snap = classifier.snapshot()
        classifier.learn({"a", "a2"}, True)
        classifier.unlearn_repeated({"b", "c"}, True, 1)
        classifier.score(probe)
        classifier.restore(snap)
        assert classifier.score(probe) == twin.score(probe)
        ids = classifier.table.encode_unique(probe)
        assert classifier.score_many_ids([ids]) == [twin.score(probe)]

    def test_no_pickling_while_armed(self, make_classifier):
        import pickle

        classifier = make_classifier()
        classifier.learn({"a", "b"}, True)
        snap = classifier.snapshot()
        with pytest.raises(TrainingError, match="snapshot is active"):
            pickle.dumps(classifier)
        classifier.restore(snap)
        assert pickle.loads(pickle.dumps(classifier)).score({"a"}) == classifier.score({"a"})
