"""Tests for the TREC-style corpus bundle, mbox IO and corpus stats."""

from __future__ import annotations

import gc

import pytest

from repro.errors import CorpusError
from repro.corpus.mbox import load_mbox, save_mbox
from repro.corpus.stats import corpus_statistics, coverage_report
from repro.corpus.trec import (
    TREC05_HAM_COUNT,
    TREC05_SPAM_COUNT,
    TrecStyleCorpus,
    load_trec_corpus,
)
from repro.corpus.vocabulary import TINY_PROFILE
from repro.corpus.wordlists import build_aspell_dictionary, build_usenet_wordlist
from repro.spambayes.message import Email
from repro.storage import STORE_DIR_ENV, STORE_ENV


class TestTrecStyleCorpus:
    def test_explicit_sizes(self, tiny_corpus):
        assert tiny_corpus.dataset.counts() == (120, 120)

    def test_default_prevalence_matches_trec05(self):
        corpus = TrecStyleCorpus.generate(n_ham=100, profile=TINY_PROFILE, seed=1)
        n_ham, n_spam = corpus.dataset.counts()
        trec_ratio = TREC05_SPAM_COUNT / TREC05_HAM_COUNT
        assert n_spam == pytest.approx(n_ham * trec_ratio, abs=2)

    def test_deterministic(self):
        a = TrecStyleCorpus.generate(n_ham=30, n_spam=30, profile=TINY_PROFILE, seed=5)
        b = TrecStyleCorpus.generate(n_ham=30, n_spam=30, profile=TINY_PROFILE, seed=5)
        assert [m.msgid for m in a.dataset] == [m.msgid for m in b.dataset]

    def test_order_carries_no_label_signal(self, tiny_corpus):
        """Labels must be interleaved, not ham-block then spam-block."""
        labels = [m.is_spam for m in tiny_corpus.dataset]
        first_half_spam = sum(labels[: len(labels) // 2])
        assert 30 < first_half_spam < 90

    def test_invalid_sizes_rejected(self):
        with pytest.raises(CorpusError):
            TrecStyleCorpus.generate(n_ham=0, profile=TINY_PROFILE)
        with pytest.raises(CorpusError):
            TrecStyleCorpus.generate(n_ham=5, n_spam=-1, profile=TINY_PROFILE)


class TestRealTrecLoader:
    def _make_layout(self, tmp_path, index_lines, messages):
        full = tmp_path / "full"
        data = tmp_path / "data"
        full.mkdir()
        data.mkdir()
        (full / "index").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
        for name, text in messages.items():
            (data / name).write_text(text, encoding="utf-8")

    def test_loads_standard_layout(self, tmp_path):
        self._make_layout(
            tmp_path,
            ["spam ../data/inmail.1", "ham ../data/inmail.2"],
            {
                "inmail.1": "Subject: buy\n\ncheap pills",
                "inmail.2": "Subject: meeting\n\nagenda attached",
            },
        )
        dataset = load_trec_corpus(tmp_path)
        assert dataset.counts() == (1, 1)
        assert dataset.spam[0].email.subject == "buy"

    def test_limit(self, tmp_path):
        self._make_layout(
            tmp_path,
            ["spam ../data/inmail.1", "ham ../data/inmail.2"],
            {"inmail.1": "a b c", "inmail.2": "d e f"},
        )
        assert len(load_trec_corpus(tmp_path, limit=1)) == 1

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            load_trec_corpus(tmp_path)

    def test_bad_label_rejected(self, tmp_path):
        self._make_layout(tmp_path, ["junk ../data/inmail.1"], {"inmail.1": "x"})
        with pytest.raises(CorpusError):
            load_trec_corpus(tmp_path)

    def test_malformed_line_rejected(self, tmp_path):
        self._make_layout(tmp_path, ["spam"], {})
        with pytest.raises(CorpusError):
            load_trec_corpus(tmp_path)

    def test_missing_message_file_rejected(self, tmp_path):
        self._make_layout(tmp_path, ["spam ../data/absent.1"], {})
        with pytest.raises(CorpusError):
            load_trec_corpus(tmp_path)


class TestMbox:
    def test_roundtrip(self, tiny_corpus, tmp_path):
        subset = tiny_corpus.dataset.subset(range(10))
        path = tmp_path / "box.mbox"
        assert save_mbox(subset, path) == 10
        loaded = load_mbox(path)
        assert len(loaded) == 10
        for original, restored in zip(subset, loaded):
            assert restored.msgid == original.msgid
            assert restored.is_spam == original.is_spam
            assert restored.email.body == original.email.body
            assert restored.email.headers == original.email.headers

    def test_from_quoting(self, tmp_path):
        from repro.corpus.dataset import Dataset, LabeledMessage
        from repro.spambayes.message import Email

        tricky = Dataset(
            [
                LabeledMessage(
                    Email.build(body="From the start\nnormal line", msgid="m1"),
                    False,
                )
            ]
        )
        path = tmp_path / "box.mbox"
        save_mbox(tricky, path)
        loaded = load_mbox(path)
        assert loaded[0].email.body == "From the start\nnormal line"

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_loaded_messages_hold_no_email(self, store, tiny_corpus, tmp_path, monkeypatch):
        # A loaded mailbox is handles over the file: each message keeps
        # its block's position and, once encoded, its row (in SQLite on
        # the disk backend), never its email.
        monkeypatch.setenv(STORE_ENV, store)
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        subset = tiny_corpus.dataset.subset(range(10))
        path = tmp_path / "box.mbox"
        save_mbox(subset, path)
        loaded = load_mbox(path)
        table = loaded.encode()
        for original, restored in zip(subset, loaded):
            for obj in gc.get_referents(restored):
                assert not isinstance(obj, (Email, frozenset, set, list))
            assert set(table.decode(restored.token_ids(table))) == original.tokens()
            assert restored.email.headers == original.email.headers
        if store == "disk":
            assert all(isinstance(message._row, int) for message in loaded)

    def test_changed_mailbox_is_detected(self, tiny_corpus, tmp_path):
        path = tmp_path / "box.mbox"
        save_mbox(tiny_corpus.dataset.subset(range(3)), path)
        loaded = load_mbox(path)
        save_mbox(tiny_corpus.dataset.subset(range(3, 6)), path)
        with pytest.raises(CorpusError):
            loaded[0].email

    def test_empty_mbox_rejected(self, tmp_path):
        path = tmp_path / "empty.mbox"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError):
            load_mbox(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            load_mbox(tmp_path / "absent.mbox")


class TestStats:
    def test_statistics_shape(self, tiny_corpus):
        stats = corpus_statistics(tiny_corpus.dataset)
        assert stats.message_count == 240
        assert stats.distinct_tokens > 100
        assert stats.token_occurrences > stats.distinct_tokens
        assert 0.0 < stats.singleton_fraction < 1.0
        assert stats.mean_tokens_per_message > 20

    def test_coverage_ordering(self, small_corpus):
        """The calibration the attacks rely on: optimal > usenet > aspell."""
        dataset = small_corpus.dataset
        aspell = coverage_report(
            dataset, "aspell", build_aspell_dictionary(small_corpus.vocabulary).words
        )
        usenet = coverage_report(
            dataset, "usenet", build_usenet_wordlist(small_corpus.vocabulary).words
        )
        optimal = coverage_report(dataset, "optimal", small_corpus.vocabulary.all_words())
        assert optimal.distinct_coverage == pytest.approx(1.0)
        assert usenet.distinct_coverage > aspell.distinct_coverage
        assert usenet.occurrence_coverage > aspell.occurrence_coverage
        assert aspell.distinct_coverage > 0.5

    def test_coverage_describe(self, tiny_corpus):
        report = coverage_report(tiny_corpus.dataset, "x", ["nothing"])
        assert "x" in report.describe()
        assert report.distinct_coverage == pytest.approx(0.0, abs=0.01)

    def test_empty_coverage_edges(self):
        from repro.corpus.dataset import Dataset

        report = coverage_report(Dataset([]), "empty", [])
        assert report.distinct_coverage == 0.0
        assert report.occurrence_coverage == 0.0
