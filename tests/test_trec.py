"""Tests for the TREC-style corpus bundle and the real-corpus loader."""

from __future__ import annotations

import pytest

from repro.errors import CorpusError
from repro.corpus.trec import (
    TREC05_HAM_COUNT,
    TREC05_SPAM_COUNT,
    TrecStyleCorpus,
    load_trec_corpus,
)
from repro.corpus.vocabulary import TINY_PROFILE


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
