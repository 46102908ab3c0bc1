"""Tests for the Section 3.4 knowledge/optimal-attack framework."""

from __future__ import annotations

import pytest

from repro.attacks.knowledge import (
    EmpiricalHamDistribution,
    budgeted_attack,
    optimal_attack_tokens,
)
from repro.errors import AttackError
from repro.spambayes.message import Email
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER


class ExplicitTokenDistribution:
    """A :class:`~repro.attacks.knowledge.TokenDistribution` given
    directly as a mapping."""

    def __init__(self, probabilities: dict[str, float]) -> None:
        self.probabilities = probabilities

    def probability(self, word: str) -> float:
        return self.probabilities.get(word, 0.0)

    def ranked_words(self) -> list[tuple[str, float]]:
        return sorted(self.probabilities.items(), key=lambda item: (-item[1], item[0]))


def ham_samples() -> list[Email]:
    return [
        Email.build(body="alpha beta gamma"),
        Email.build(body="alpha beta"),
        Email.build(body="alpha delta"),
        Email.build(body="alpha epsilon zeta"),
    ]


class TestEmpiricalDistribution:
    def test_document_frequencies(self):
        dist = EmpiricalHamDistribution(ham_samples())
        assert dist.probability("alpha") == 1.0
        assert dist.probability("beta") == 0.5
        assert dist.probability("delta") == 0.25
        assert dist.probability("unknown") == 0.0

    def test_ranked_words_descending(self):
        dist = EmpiricalHamDistribution(ham_samples())
        ranked = dist.ranked_words()
        probabilities = [p for _, p in ranked]
        assert probabilities == sorted(probabilities, reverse=True)
        assert ranked[0][0] == "alpha"

    def test_accepts_labeled_messages(self, tiny_corpus):
        dist = EmpiricalHamDistribution(tiny_corpus.dataset.ham[:10])
        assert dist.sample_size == 10
        assert len(dist) > 0

    def test_headers_excluded(self):
        emails = [Email.build(body="bodyword", subject="subjectword")]
        dist = EmpiricalHamDistribution(emails)
        assert dist.probability("bodyword") == 1.0
        assert dist.probability("subject:subjectword") == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(AttackError):
            EmpiricalHamDistribution([])


class TestOptimalAttackTokens:
    def test_unbudgeted_takes_all_positive(self):
        dist = ExplicitTokenDistribution({"a": 0.9, "b": 0.1, "c": 0.0})
        assert optimal_attack_tokens(dist) == {"a", "b"}

    def test_budget_takes_top_k(self):
        dist = ExplicitTokenDistribution({"a": 0.9, "b": 0.5, "c": 0.1})
        assert optimal_attack_tokens(dist, budget=2) == {"a", "b"}

    def test_budget_tie_break_deterministic(self):
        dist = ExplicitTokenDistribution({"x": 0.5, "y": 0.5, "z": 0.5})
        assert optimal_attack_tokens(dist, budget=2) == {"x", "y"}

    def test_invalid_budget_rejected(self):
        dist = ExplicitTokenDistribution({"a": 1.0})
        with pytest.raises(AttackError):
            optimal_attack_tokens(dist, budget=0)

    def test_all_zero_distribution_rejected(self):
        with pytest.raises(AttackError):
            optimal_attack_tokens(ExplicitTokenDistribution({"a": 0.0}))

    def test_extremes_recover_paper_attacks(self):
        """Uniform knowledge -> dictionary; indicator -> focused."""
        universe = {f"w{i}": 1.0 for i in range(50)}
        dictionary_like = optimal_attack_tokens(ExplicitTokenDistribution(universe))
        assert dictionary_like == set(universe)

        target = Email.build(body="alpha beta gamma")
        indicator = {word: 1.0 for word in DEFAULT_TOKENIZER.tokenize_body(target.body)}
        focused_like = optimal_attack_tokens(ExplicitTokenDistribution(indicator))
        assert focused_like == {"alpha", "beta", "gamma"}


class TestBudgetedAttack:
    def test_wraps_as_dictionary_attack(self):
        dist = ExplicitTokenDistribution({"a": 0.9, "b": 0.5})
        attack = budgeted_attack(dist, budget=1, name="informed")
        assert attack.name == "informed"
        assert attack.tokens == {"a"}

    def test_better_informed_attack_covers_more_ham_mass(self):
        """An attacker with the true ham distribution beats a random
        subset of the same size at covering ham tokens — the premise of
        the Section 3.4 'constrained optimal' discussion."""
        samples = ham_samples()
        dist = EmpiricalHamDistribution(samples)
        informed = optimal_attack_tokens(dist, budget=2)
        # Top-2 by document frequency is {alpha, beta}; together they
        # cover more sample emails than any other 2-subset.
        coverage = sum(
            1 for email in samples
            if informed & set(email.body.split())
        )
        assert coverage == 4
