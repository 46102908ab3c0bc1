"""Tests for the Exploratory good-word attacks."""

from __future__ import annotations

import pytest

from repro.attacks.goodword import (
    CommonWordGoodWordAttack,
    OracleGoodWordAttack,
)
from repro.errors import AttackError
from repro.rng import SeedSpawner
from repro.spambayes.classifier import Classifier
from repro.spambayes.filter import SpamFilter
from repro.spambayes.message import Email


@pytest.fixture(scope="module")
def trained_filter() -> SpamFilter:
    spam_filter = SpamFilter()
    for i in range(30):
        spam_filter.train(
            Email.build(body="cheap pills lottery winner cash offer", msgid=f"s{i}"), True
        )
        spam_filter.train(
            Email.build(body="meeting agenda budget quarterly review notes", msgid=f"h{i}"),
            False,
        )
    return spam_filter


@pytest.fixture(scope="module")
def spam_email() -> Email:
    return Email.build(body="cheap pills lottery winner", msgid="victim-spam")


class TestCommonWordAttack:
    def test_empty_source_rejected(self):
        with pytest.raises(AttackError):
            CommonWordGoodWordAttack([])

    def test_zero_padding_is_identity(self, spam_email):
        attack = CommonWordGoodWordAttack(["meeting", "agenda"])
        result = attack.pad(spam_email, 0)
        assert result.padded is spam_email
        assert result.added_words == ()

    def test_negative_padding_rejected(self, spam_email):
        attack = CommonWordGoodWordAttack(["meeting"])
        with pytest.raises(AttackError):
            attack.pad(spam_email, -1)

    def test_deterministic_head_take(self, spam_email):
        attack = CommonWordGoodWordAttack(["alpha", "beta", "gamma"])
        result = attack.pad(spam_email, 2)
        assert result.added_words == ("alpha", "beta")
        assert "alpha" in result.padded.body
        assert result.padded.headers == spam_email.headers

    def test_rng_samples_from_head(self, spam_email):
        attack = CommonWordGoodWordAttack([f"w{i}" for i in range(100)])
        result = attack.pad(spam_email, 5, SeedSpawner(1).rng("pad"))
        assert len(result.added_words) == 5
        assert set(result.added_words) <= {f"w{i}" for i in range(20)}

    def test_padding_lowers_score(self, trained_filter, spam_email):
        attack = CommonWordGoodWordAttack(
            ["meeting", "agenda", "budget", "quarterly", "review", "notes"]
        )
        tokenizer = trained_filter.tokenizer
        before = trained_filter.classifier.score(tokenizer.tokenize(spam_email))
        padded = attack.pad(spam_email, 6).padded
        after = trained_filter.classifier.score(tokenizer.tokenize(padded))
        assert after < before


class TestOracleAttack:
    def test_empty_candidates_rejected(self, trained_filter):
        with pytest.raises(AttackError):
            OracleGoodWordAttack(trained_filter.classifier, [])

    def test_ranks_hammiest_first(self, trained_filter):
        attack = OracleGoodWordAttack(
            trained_filter.classifier, ["cheap", "meeting", "unknownword"]
        )
        assert attack.ranked_words[0] == "meeting"
        assert attack.ranked_words[-1] == "cheap"

    def test_batched_ranking_matches_the_per_token_ranking(self, trained_filter):
        """One vectorized f(w) ranks exactly as one spam_prob per word:
        same floats, same (prob, word) order — ties between the words
        trained together break by text, unseen words sit at the prior."""
        classifier = trained_filter.classifier
        candidates = [
            "winner", "cheap", "notes", "agenda", "meeting", "unseen-b",
            "unseen-a", "review", "lottery", "budget", "cash", "zzz",
        ]
        probs = classifier.spam_probs(candidates)
        assert probs == [classifier.spam_prob(word) for word in candidates]
        assert all(type(prob) is float for prob in probs)
        attack = OracleGoodWordAttack(classifier, candidates)
        assert attack.ranked_words == sorted(
            candidates, key=lambda word: (classifier.spam_prob(word), word)
        )
        assert attack.ranked_words[:2] == ["agenda", "budget"]
        assert classifier.spam_probs([]) == []

    def test_oracle_beats_blind_at_equal_budget(self, trained_filter, spam_email):
        """Query access buys efficiency — the Lowd & Meek point."""
        candidates = ["meeting", "agenda", "budget", "quarterly", "review",
                      "notes", "cheap", "offer", "unknown1", "unknown2"]
        oracle = OracleGoodWordAttack(trained_filter.classifier, candidates)
        blind = CommonWordGoodWordAttack(list(reversed(candidates)))
        tokenizer = trained_filter.tokenizer
        budget = 3
        oracle_score = trained_filter.classifier.score(
            tokenizer.tokenize(oracle.pad(spam_email, budget).padded)
        )
        blind_score = trained_filter.classifier.score(
            tokenizer.tokenize(blind.pad(spam_email, budget).padded)
        )
        assert oracle_score <= blind_score
