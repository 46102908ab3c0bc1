"""Tests for the focused attack and its knowledge model."""

from __future__ import annotations

import pytest

from repro.attacks.focused import FocusedAttack
from repro.errors import AttackError
from repro.rng import SeedSpawner
from repro.spambayes.message import Email
from repro.spambayes.tokenizer import DEFAULT_TOKENIZER


def make_target(word_count: int = 40) -> Email:
    body = " ".join(f"tgt{i:03d}" for i in range(word_count))
    return Email.build(body=body, subject="bid proposal", msgid="target-1")


def spam_pool(size: int = 5) -> list[Email]:
    return [
        Email.build(body="spam body", sender=f"promo{i}@junk{i}.biz", subject=f"deal {i}",
                    msgid=f"pool-{i}")
        for i in range(size)
    ]


class TestConstruction:
    def test_invalid_probability_rejected(self):
        with pytest.raises(AttackError):
            FocusedAttack(make_target(), guess_probability=1.5)
        with pytest.raises(AttackError):
            FocusedAttack(make_target(), guess_probability=-0.1)

    def test_empty_target_rejected(self):
        with pytest.raises(AttackError):
            FocusedAttack(Email.build(body=""), guess_probability=0.5)

    def test_target_tokens_are_body_only(self):
        attack = FocusedAttack(make_target())
        assert all(not token.startswith("subject:") for token in attack.target_tokens)


class TestKnowledge:
    def test_full_knowledge_guesses_everything(self):
        attack = FocusedAttack(make_target(), guess_probability=1.0)
        knowledge = attack.draw_knowledge(SeedSpawner(1).rng("k"))
        assert knowledge.guessed_tokens == knowledge.target_tokens

    def test_zero_knowledge_guesses_nothing(self):
        attack = FocusedAttack(make_target(), guess_probability=0.0)
        knowledge = attack.draw_knowledge(SeedSpawner(1).rng("k"))
        assert knowledge.guessed_tokens == frozenset()

    def test_partial_knowledge_near_p(self):
        attack = FocusedAttack(make_target(200), guess_probability=0.5)
        knowledge = attack.draw_knowledge(SeedSpawner(1).rng("k"))
        fraction = len(knowledge.guessed_tokens) / len(knowledge.target_tokens)
        assert 0.35 < fraction < 0.65

    def test_guessed_subset_of_target(self):
        attack = FocusedAttack(make_target(), guess_probability=0.3)
        knowledge = attack.draw_knowledge(SeedSpawner(2).rng("k"))
        assert knowledge.guessed_tokens <= knowledge.target_tokens


class TestGenerate:
    def test_without_pool_single_group(self):
        attack = FocusedAttack(make_target(), guess_probability=1.0)
        batch = attack.generate(5, SeedSpawner(1).rng("g"))
        assert batch.message_count == 5
        assert len(batch.groups) == 1

    def test_with_pool_one_group_per_email(self):
        attack = FocusedAttack(make_target(), guess_probability=1.0, header_pool=spam_pool())
        batch = attack.generate(5, SeedSpawner(1).rng("g"))
        assert batch.message_count == 5
        assert len(batch.groups) == 5
        for group in batch.groups:
            assert group.header_tokens

    def test_shared_guess_across_emails(self):
        attack = FocusedAttack(make_target(), guess_probability=0.5, header_pool=spam_pool())
        batch = attack.generate(4, SeedSpawner(3).rng("g"))
        payloads = {group.tokens for group in batch.groups}
        assert len(payloads) == 1  # one knowledge draw per attack

    def test_header_tokens_match_source(self):
        pool = spam_pool(1)
        attack = FocusedAttack(make_target(), guess_probability=1.0, header_pool=pool)
        batch = attack.generate(1, SeedSpawner(1).rng("g"))
        expected = frozenset(DEFAULT_TOKENIZER.tokenize_headers(pool[0]))
        assert batch.groups[0].header_tokens == expected

    def test_extra_words_included(self):
        attack = FocusedAttack(
            make_target(), guess_probability=1.0, extra_words=("competitorco",)
        )
        batch = attack.generate(1, SeedSpawner(1).rng("g"))
        assert "competitorco" in batch.groups[0].tokens

    def test_zero_count(self):
        attack = FocusedAttack(make_target())
        assert attack.generate(0, SeedSpawner(1).rng("g")).message_count == 0

    def test_negative_count_rejected(self):
        with pytest.raises(AttackError):
            FocusedAttack(make_target()).generate(-2, SeedSpawner(1).rng("g"))

    def test_zero_probability_headerless_yields_empty_batch(self):
        attack = FocusedAttack(make_target(), guess_probability=0.0)
        batch = attack.generate(3, SeedSpawner(1).rng("g"))
        assert batch.message_count == 0
