"""Tests for the Zipfian language models."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.rng import SeedSpawner
from repro.corpus.language_model import (
    HamLanguageModel,
    MixtureModel,
    SpamLanguageModel,
    ZipfSampler,
)


class TestZipfSampler:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler([])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(["a"], exponent=-1.0)

    def test_head_more_frequent_than_tail(self):
        sampler = ZipfSampler([f"w{i}" for i in range(100)], exponent=1.0)
        rng = SeedSpawner(1).rng("zipf")
        counts = Counter(sampler.sample(rng, 20_000))
        assert counts["w0"] > counts["w50"] > 0

    def test_probability_normalized(self):
        sampler = ZipfSampler(["a", "b", "c"], exponent=1.0)
        total = sum(sampler.probability(w) for w in ("a", "b", "c"))
        assert total == pytest.approx(1.0)

    def test_probability_of_unknown_word(self):
        assert ZipfSampler(["a"]).probability("zz") == 0.0

    def test_zero_count_sample(self):
        sampler = ZipfSampler(["a"])
        assert sampler.sample(SeedSpawner(1).rng("z"), 0) == []

    def test_exponent_zero_is_uniformish(self):
        sampler = ZipfSampler(["a", "b"], exponent=0.0)
        assert sampler.probability("a") == pytest.approx(sampler.probability("b"))


class TestMixtureModel:
    def _mixture(self) -> MixtureModel:
        return MixtureModel(
            [
                ("first", ZipfSampler(["a", "b"]), 0.75),
                ("second", ZipfSampler(["c"]), 0.25),
            ]
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MixtureModel([])

    def test_zero_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            MixtureModel([("a", ZipfSampler(["x"]), 0.0)])

    def test_component_weights_respected(self):
        words = self._mixture().sample(SeedSpawner(1).rng("weights"), 20_000)
        first = sum(word in ("a", "b") for word in words) / len(words)
        assert first == pytest.approx(0.75, abs=0.02)

    def test_sampling_stays_in_vocabulary(self):
        mixture = self._mixture()
        rng = SeedSpawner(2).rng("mix")
        assert set(mixture.sample(rng, 500)) <= {"a", "b", "c"}


class TestLanguageModels:
    def test_ham_body_lengths_bounded(self, tiny_vocabulary):
        model = HamLanguageModel(tiny_vocabulary, topic_count=5)
        rng = SeedSpawner(3).rng("ham")
        for _ in range(20):
            tokens = model.sample_body_tokens(rng)
            assert 20 <= len(tokens) <= 600

    def test_spam_body_lengths_bounded(self, tiny_vocabulary):
        model = SpamLanguageModel(tiny_vocabulary)
        rng = SeedSpawner(3).rng("spam")
        for _ in range(20):
            tokens = model.sample_body_tokens(rng)
            assert 15 <= len(tokens) <= 500

    def test_invalid_topic_count(self, tiny_vocabulary):
        with pytest.raises(ConfigurationError):
            HamLanguageModel(tiny_vocabulary, topic_count=0)

    def test_ham_and_spam_vocabulary_diverge(self, tiny_vocabulary):
        """Spam text must hit obfuscated tokens ham never uses."""
        ham = HamLanguageModel(tiny_vocabulary, topic_count=5)
        spam = SpamLanguageModel(tiny_vocabulary)
        rng = SeedSpawner(4)
        ham_tokens = set()
        spam_tokens = set()
        ham_rng, spam_rng = rng.rng("h"), rng.rng("s")
        for _ in range(50):
            ham_tokens |= set(ham.sample_body_tokens(ham_rng))
            spam_tokens |= set(spam.sample_body_tokens(spam_rng))
        unlisted = set(tiny_vocabulary.spam_unlisted)
        assert len(spam_tokens & unlisted) > 5
        assert len(ham_tokens & unlisted) == 0

    def test_topic_windows_bias_content(self, tiny_vocabulary):
        """Same topic twice shares more jargon than different topics."""
        model = HamLanguageModel(tiny_vocabulary, topic_count=6)
        spawner = SeedSpawner(5)
        topic_words = set(tiny_vocabulary.ham_topic)
        same_a = set(model.sample_body_tokens(spawner.rng("a"), topic=2)) & topic_words
        same_b = set(model.sample_body_tokens(spawner.rng("b"), topic=2)) & topic_words
        other = set(model.sample_body_tokens(spawner.rng("c"), topic=5)) & topic_words
        assert len(same_a & same_b) > len(same_a & other)

    def test_deterministic_given_rng(self, tiny_vocabulary):
        model = HamLanguageModel(tiny_vocabulary, topic_count=5)
        a = model.sample_body_tokens(SeedSpawner(6).rng("x"))
        b = model.sample_body_tokens(SeedSpawner(6).rng("x"))
        assert a == b
