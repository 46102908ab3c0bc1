"""Tests for the dictionary attack family."""

from __future__ import annotations

import pytest

from repro.attacks.dictionary import (
    AspellDictionaryAttack,
    DictionaryAttack,
    OptimalDictionaryAttack,
    UsenetDictionaryAttack,
)
from repro.corpus.wordlists import AttackWordlist, build_aspell_dictionary, build_usenet_wordlist
from repro.errors import AttackError
from repro.rng import SeedSpawner


class TestDictionaryAttack:
    def test_empty_words_rejected(self):
        with pytest.raises(AttackError):
            DictionaryAttack([])

    def test_generate_single_identical_group(self):
        attack = DictionaryAttack(["a", "b", "c"], name="tiny")
        batch = attack.generate(10, SeedSpawner(1).rng("x"))
        assert batch.message_count == 10
        assert len(batch.groups) == 1
        assert batch.groups[0].tokens == {"a", "b", "c"}

    def test_generate_zero_messages(self):
        attack = DictionaryAttack(["a"])
        assert attack.generate(0, SeedSpawner(1).rng("x")).message_count == 0

    def test_negative_count_rejected(self):
        with pytest.raises(AttackError):
            DictionaryAttack(["a"]).generate(-1, SeedSpawner(1).rng("x"))

    def test_rng_independent(self):
        attack = DictionaryAttack(["a", "b"])
        a = attack.generate(3, SeedSpawner(1).rng("x"))
        b = attack.generate(3, SeedSpawner(2).rng("y"))
        assert a.groups[0].tokens == b.groups[0].tokens


class TestVariants:
    def test_optimal_covers_all_words(self, tiny_vocabulary):
        attack = OptimalDictionaryAttack.from_vocabulary(tiny_vocabulary)
        assert attack.tokens == frozenset(tiny_vocabulary.all_words())
        assert attack.name == "optimal"

    def test_aspell_from_vocabulary(self, tiny_vocabulary):
        attack = AspellDictionaryAttack.from_vocabulary(tiny_vocabulary)
        profile = tiny_vocabulary.profile
        assert len(attack.tokens) == (
            profile.core_size
            + profile.formal_size
            + profile.ham_topic_size
            + profile.spam_shared_size
        )
        assert attack.name == "aspell"

    def test_aspell_rejects_wrong_wordlist(self, tiny_vocabulary):
        usenet = build_usenet_wordlist(tiny_vocabulary)
        with pytest.raises(AttackError):
            AspellDictionaryAttack(usenet)

    def test_usenet_rejects_wrong_wordlist(self, tiny_vocabulary):
        aspell = build_aspell_dictionary(tiny_vocabulary)
        with pytest.raises(AttackError):
            UsenetDictionaryAttack(aspell)

    def test_usenet_top_k(self, tiny_vocabulary):
        attack = UsenetDictionaryAttack.from_vocabulary(tiny_vocabulary, top_k=50)
        assert len(attack.tokens) == 50
        assert attack.name == "usenet-top50"

    def test_usenet_full(self, tiny_vocabulary):
        full = UsenetDictionaryAttack.from_vocabulary(tiny_vocabulary)
        truncated = UsenetDictionaryAttack.from_vocabulary(tiny_vocabulary, top_k=10)
        assert truncated.tokens < full.tokens

    def test_strength_ordering_by_construction(self, tiny_vocabulary):
        """Optimal's payload must be a strict superset of both lists'
        ham-relevant words (entities are in neither list)."""
        optimal = OptimalDictionaryAttack.from_vocabulary(tiny_vocabulary)
        aspell = AspellDictionaryAttack.from_vocabulary(tiny_vocabulary)
        usenet = UsenetDictionaryAttack.from_vocabulary(tiny_vocabulary)
        assert aspell.tokens < optimal.tokens
        assert usenet.tokens < optimal.tokens
        assert set(tiny_vocabulary.entity) <= optimal.tokens
        assert not (set(tiny_vocabulary.entity) & aspell.tokens)
        assert not (set(tiny_vocabulary.entity) & usenet.tokens)
