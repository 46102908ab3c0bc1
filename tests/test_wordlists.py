"""Tests for the Aspell/Usenet attack word sources."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.corpus.vocabulary import PAPER_PROFILE, SMALL_PROFILE, Vocabulary
from repro.corpus.wordlists import (
    AttackWordlist,
    build_aspell_dictionary,
    build_usenet_wordlist,
)
from test_vocabulary import aspell_size, usenet_pool_size


@pytest.fixture(scope="module")
def small_vocab() -> Vocabulary:
    return Vocabulary.build(SMALL_PROFILE, seed=7)


class TestAspell:
    def test_size_matches_profile(self, small_vocab):
        aspell = build_aspell_dictionary(small_vocab)
        assert len(aspell) == aspell_size(SMALL_PROFILE)

    def test_alphabetical(self, small_vocab):
        aspell = build_aspell_dictionary(small_vocab)
        assert list(aspell.words) == sorted(aspell.words)

    def test_no_slang_no_entities(self, small_vocab):
        aspell = set(build_aspell_dictionary(small_vocab))
        assert not (aspell & set(small_vocab.colloquial))
        assert not (aspell & set(small_vocab.entity))
        assert not (aspell & set(small_vocab.spam_unlisted))


class TestUsenet:
    def test_default_size_is_top_slice_of_pool(self, small_vocab):
        usenet = build_usenet_wordlist(small_vocab)
        pool_size = usenet_pool_size(SMALL_PROFILE)
        assert len(usenet) < pool_size
        assert len(usenet) > 0.95 * pool_size

    def test_overlap_with_aspell_calibrated(self, small_vocab):
        """Paper: |Aspell|=98,568, |Usenet|=90,000, overlap ~61,000 —
        i.e. ~62% of Aspell; same proportion must hold at small scale."""
        aspell = build_aspell_dictionary(small_vocab)
        usenet = build_usenet_wordlist(small_vocab)
        overlap = len(set(aspell) & set(usenet))
        assert 0.55 * len(aspell) < overlap < 0.70 * len(aspell)

    def test_contains_colloquialisms(self, small_vocab):
        usenet = set(build_usenet_wordlist(small_vocab))
        colloquial_covered = len(usenet & set(small_vocab.colloquial))
        assert colloquial_covered > 0.8 * len(small_vocab.colloquial)

    def test_excludes_formal_tail(self, small_vocab):
        usenet = set(build_usenet_wordlist(small_vocab))
        assert not (usenet & set(small_vocab.formal))

    def test_frequency_ranked_core_first(self, small_vocab):
        """The head of the ranking is dominated by core words (which are
        61% of the pool but carry ~3x the posting weight of slang)."""
        usenet = build_usenet_wordlist(small_vocab)
        head = usenet.words[:200]
        core = set(small_vocab.core)
        assert sum(1 for word in head if word in core) > 120

    def test_top_k_request(self, small_vocab):
        usenet = build_usenet_wordlist(small_vocab, top_k=100)
        assert len(usenet) == 100

    def test_top_k_exceeding_pool_rejected(self, small_vocab):
        with pytest.raises(ConfigurationError):
            build_usenet_wordlist(small_vocab, top_k=10**7)

    def test_deterministic(self, small_vocab):
        a = build_usenet_wordlist(small_vocab, seed=3)
        b = build_usenet_wordlist(small_vocab, seed=3)
        assert a.words == b.words


class TestAttackWordlist:
    def test_truncated_prefix(self):
        wordlist = AttackWordlist("usenet", "test", ("a", "b", "c", "d"))
        top2 = wordlist.truncated(2)
        assert top2.words == ("a", "b")
        assert top2.name == "usenet-top2"

    def test_truncated_invalid(self):
        wordlist = AttackWordlist("x", "test", ("a",))
        with pytest.raises(ConfigurationError):
            wordlist.truncated(0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackWordlist("x", "test", ())

    def test_iteration_and_len(self):
        wordlist = AttackWordlist("a", "t", ("x", "y"))
        assert list(wordlist) == ["x", "y"]
        assert len(wordlist) == 2


class TestPaperScaleCalibration:
    """The headline counts from Sections 3.2 / 4.2 at full scale."""

    @pytest.fixture(scope="class")
    def paper_vocab(self) -> Vocabulary:
        return Vocabulary.build(PAPER_PROFILE, seed=0)

    def test_aspell_is_98568_words(self, paper_vocab):
        assert len(build_aspell_dictionary(paper_vocab)) == 98_568

    def test_usenet_is_90000_words(self, paper_vocab):
        assert len(build_usenet_wordlist(paper_vocab)) == 90_000

    def test_overlap_near_61000(self, paper_vocab):
        aspell = build_aspell_dictionary(paper_vocab)
        usenet = build_usenet_wordlist(paper_vocab)
        assert 57_000 < len(set(aspell) & set(usenet)) < 63_000
