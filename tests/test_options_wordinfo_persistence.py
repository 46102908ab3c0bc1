"""Tests for options validation, WordInfo, and persistence."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import ConfigurationError, PersistenceError
from repro.spambayes.classifier import Classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.persistence import (
    classifier_from_dict,
    classifier_to_dict,
    load_classifier,
    save_classifier,
)
from repro.spambayes.wordinfo import WordInfo


class TestOptions:
    def test_defaults_match_paper(self):
        assert DEFAULT_OPTIONS.unknown_word_prob == 0.5
        assert DEFAULT_OPTIONS.unknown_word_strength == 0.45
        assert DEFAULT_OPTIONS.minimum_prob_strength == 0.1
        assert DEFAULT_OPTIONS.max_discriminators == 150
        assert DEFAULT_OPTIONS.ham_cutoff == 0.15
        assert DEFAULT_OPTIONS.spam_cutoff == 0.90

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"unknown_word_prob": 1.5},
            {"unknown_word_prob": -0.1},
            {"unknown_word_strength": -1.0},
            {"minimum_prob_strength": 0.6},
            {"max_discriminators": 0},
            {"ham_cutoff": 0.95, "spam_cutoff": 0.9},
            {"ham_cutoff": -0.1},
            {"spam_cutoff": 1.1},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClassifierOptions(**kwargs)

    def test_with_cutoffs(self):
        derived = DEFAULT_OPTIONS.with_cutoffs(0.3, 0.7)
        assert derived.ham_cutoff == 0.3
        assert derived.spam_cutoff == 0.7
        assert derived.unknown_word_strength == DEFAULT_OPTIONS.unknown_word_strength
        assert DEFAULT_OPTIONS.ham_cutoff == 0.15  # original untouched

    def test_with_cutoffs_is_validated(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPTIONS.with_cutoffs(0.8, 0.2)

    def test_options_are_frozen_hashable_values(self):
        with pytest.raises(AttributeError):
            DEFAULT_OPTIONS.ham_cutoff = 0.5
        assert ClassifierOptions() == DEFAULT_OPTIONS
        assert hash(ClassifierOptions()) == hash(DEFAULT_OPTIONS)


class TestWordInfo:
    def test_total(self):
        assert WordInfo(3, 4).total == 7

    def test_copy_and_equality(self):
        record = WordInfo(2, 5)
        clone = record.copy()
        assert record == clone
        clone.spamcount += 1
        assert record != clone

    def test_equality_with_other_types(self):
        assert WordInfo(1, 1) != "not a wordinfo"

    def test_pickles_as_a_bare_count_pair(self):
        record = WordInfo(2, 5)
        assert record.__getstate__() == (2, 5)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and clone is not record


class TestPersistence:
    def _trained(self) -> Classifier:
        classifier = Classifier()
        for _ in range(3):
            classifier.learn({"cash", "offer"}, True)
            classifier.learn({"meeting", "notes"}, False)
        return classifier

    def test_dict_roundtrip(self):
        original = self._trained()
        restored = classifier_from_dict(classifier_to_dict(original))
        assert restored.nspam == original.nspam
        assert restored.nham == original.nham
        assert restored.spam_prob("cash") == original.spam_prob("cash")
        assert restored.score({"cash", "meeting"}) == original.score({"cash", "meeting"})

    def test_file_roundtrip_plain(self, tmp_path):
        original = self._trained()
        path = tmp_path / "db.json"
        save_classifier(original, path)
        restored = load_classifier(path)
        assert restored.vocabulary_size == original.vocabulary_size

    def test_file_roundtrip_gzip(self, tmp_path):
        original = self._trained()
        path = tmp_path / "db.json.gz"
        save_classifier(original, path)
        restored = load_classifier(path)
        assert restored.score({"cash"}) == original.score({"cash"})

    @pytest.mark.parametrize("suffix", [".GZ", ".Gz", ".gz"])
    def test_gzip_suffix_casing_roundtrip(self, tmp_path, suffix):
        # .GZ must select the gzip codec exactly like .gz — silently
        # writing plain text under a .GZ name used to make the dump
        # unreadable by any case-normalizing reader.
        import gzip

        original = self._trained()
        path = tmp_path / f"db.json{suffix}"
        save_classifier(original, path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert json.load(handle)["format"] == "repro-spambayes-v1"
        restored = load_classifier(path)
        assert restored.score({"cash", "meeting"}) == original.score({"cash", "meeting"})

    def test_loaded_classifier_keeps_training_like_the_original(self, tmp_path):
        # Persistence restores through the supported bulk-load
        # constructor, so a loaded classifier must behave identically
        # to one that never went to disk — including *further* training
        # (memo/dirty invariants) and snapshot cycling.
        original = self._trained()
        path = tmp_path / "db.json"
        save_classifier(original, path)
        restored = load_classifier(path)
        probe = {"cash", "meeting", "fresh"}
        for classifier in (original, restored):
            classifier.score(probe)  # warm the memos before mutating
            classifier.learn({"cash", "fresh", "prize"}, True)
            classifier.unlearn_repeated({"meeting", "notes"}, False, 1)
            snap = classifier.snapshot()
            classifier.learn_repeated({"prize", "offer"}, True, 5)
            classifier.restore(snap)
        assert restored.nspam == original.nspam
        assert restored.nham == original.nham
        assert restored.score(probe) == original.score(probe)
        assert restored.score_many([probe, {"prize"}]) == original.score_many(
            [probe, {"prize"}]
        )

    def test_bulk_load_validation(self):
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            Classifier.from_token_counts([("a", -1, 0)], nspam=1, nham=0)
        with pytest.raises(TrainingError):
            Classifier.from_token_counts(
                [("a", 1, 0), ("a", 0, 1)], nspam=1, nham=1
            )
        with pytest.raises(TrainingError):
            Classifier.from_token_counts([], nspam=-1, nham=0)

    def test_bulk_load_into_shared_table(self):
        from repro.spambayes.token_table import TokenTable

        table = TokenTable(["pre", "existing"])
        classifier = Classifier.from_token_counts(
            [("existing", 2, 1), ("novel", 0, 3)], nspam=2, nham=3, table=table
        )
        assert classifier.table is table
        assert classifier.vocabulary_size == 2
        assert classifier.word_info("existing").spamcount == 2
        assert classifier.word_info("novel").hamcount == 3
        assert classifier.word_info("pre") is None

    def test_gzip_smaller_for_large_db(self, tmp_path):
        classifier = Classifier()
        classifier.learn({f"token{i}" for i in range(5000)}, True)
        plain, gz = tmp_path / "db.json", tmp_path / "db.json.gz"
        save_classifier(classifier, plain)
        save_classifier(classifier, gz)
        assert gz.stat().st_size < plain.stat().st_size

    def test_options_preserved(self, tmp_path):
        classifier = Classifier(ClassifierOptions(ham_cutoff=0.25, spam_cutoff=0.8))
        classifier.learn({"a", "b", "c"}, True)
        path = tmp_path / "db.json"
        save_classifier(classifier, path)
        assert load_classifier(path).options.ham_cutoff == 0.25

    def test_unknown_format_rejected(self):
        with pytest.raises(PersistenceError):
            classifier_from_dict({"format": "bogus-v9"})

    def test_corrupt_dump_rejected(self):
        with pytest.raises(PersistenceError):
            classifier_from_dict(
                {"format": "repro-spambayes-v1", "nspam": "x", "nham": 0,
                 "options": {}, "words": {}}
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(PersistenceError):
            classifier_from_dict(
                {
                    "format": "repro-spambayes-v1",
                    "nspam": -1,
                    "nham": 0,
                    "options": {},
                    "words": {},
                }
            )

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_classifier(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_classifier(tmp_path / "absent.json")
