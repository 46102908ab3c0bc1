"""Zipfian unigram language models for ham and spam text.

The attacks operate on token statistics, so the corpus generator needs
language models with the right *statistical* shape rather than fluent
English:

* Zipf-distributed word frequencies — so every email carries a long
  tail of rare tokens.  This is load-bearing: dictionary attacks win by
  flipping exactly those rare tokens (their ham counts are small, so a
  few spam-labeled attack occurrences dominate Equation 1), and the
  focused attack identifies its target by them.
* Distinct but overlapping ham/spam mixtures — both draw mostly from
  the shared core, then diverge on topical, colloquial and obfuscated
  slices (see :mod:`repro.corpus.vocabulary`).
* Per-email *topic windows* in ham — business threads share jargon, so
  a focused attacker who knows the thread can guess rare tokens.

Both models are deterministic given (vocabulary, seed) and sample with
``random.choices`` against precomputed cumulative weights, which keeps
10k-message corpus generation in the seconds range.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.corpus.vocabulary import Vocabulary

__all__ = ["ZipfSampler", "MixtureModel", "HamLanguageModel", "SpamLanguageModel"]


class ZipfSampler:
    """Samples words with probability ∝ 1/rank^exponent.

    The word order given at construction *is* the frequency ranking.
    """

    def __init__(self, words: Sequence[str], exponent: float = 1.05) -> None:
        if not words:
            raise ConfigurationError("ZipfSampler needs at least one word")
        if exponent < 0:
            raise ConfigurationError(f"Zipf exponent must be >= 0, got {exponent}")
        self.words = list(words)
        self.exponent = exponent
        weights = [1.0 / (rank + 1.0) ** exponent for rank in range(len(words))]
        self._cum_weights = list(itertools.accumulate(weights))
        self._total = self._cum_weights[-1]

    def sample(self, rng: random.Random, count: int) -> list[str]:
        """Draw ``count`` words i.i.d. from the Zipf distribution."""
        if count <= 0:
            return []
        return rng.choices(self.words, cum_weights=self._cum_weights, k=count)

    def probability(self, word: str) -> float:
        """Unigram probability of ``word`` (0.0 if not in this sampler)."""
        try:
            rank = self.words.index(word)
        except ValueError:
            return 0.0
        weight = 1.0 / (rank + 1.0) ** self.exponent
        return weight / self._total

    def __len__(self) -> int:
        return len(self.words)


class MixtureModel:
    """A weighted mixture of named :class:`ZipfSampler` components.

    Internally flattened into one cumulative-weight table so sampling a
    whole email body is a single ``random.choices`` call.
    """

    def __init__(self, components: Sequence[tuple[str, ZipfSampler, float]]) -> None:
        if not components:
            raise ConfigurationError("MixtureModel needs at least one component")
        if sum(weight for _, _, weight in components) <= 0:
            raise ConfigurationError("mixture weights must sum to a positive value")
        self.components = list(components)
        self._population: list[str] = []
        cumulative: list[float] = []
        running = 0.0
        for word, word_weight in self._weighted_words():
            running += word_weight
            self._population.append(word)
            cumulative.append(running)
        # Normalize the tail to exactly 1.0 to protect bisect edge cases.
        self._cum_weights = [value / running for value in cumulative]
        # Built on first use: sampling never reads it.
        self._unigram: dict[str, float] | None = None

    def _weighted_words(self) -> Iterator[tuple[str, float]]:
        """Every component word with its mixture weight, in table order."""
        total_weight = sum(weight for _, _, weight in self.components)
        for _, sampler, weight in self.components:
            share = weight / total_weight
            for rank, word in enumerate(sampler.words):
                yield word, share * (1.0 / (rank + 1.0) ** sampler.exponent) / sampler._total

    def _unigram_table(self) -> dict[str, float]:
        if self._unigram is None:
            unigram: dict[str, float] = {}
            running = 0.0
            for word, word_weight in self._weighted_words():
                running += word_weight
                unigram[word] = unigram.get(word, 0.0) + word_weight
            scale = 1.0 / running
            self._unigram = {word: p * scale for word, p in unigram.items()}
        return self._unigram

    def sample(self, rng: random.Random, count: int) -> list[str]:
        if count <= 0:
            return []
        return rng.choices(self._population, cum_weights=self._cum_weights, k=count)

    def unigram_probability(self, word: str) -> float:
        """Marginal probability of drawing ``word`` per token."""
        return self._unigram_table().get(word, 0.0)

    def inclusion_probability(self, word: str, length: int) -> float:
        """P[``word`` appears at least once in a ``length``-token email]."""
        p = self.unigram_probability(word)
        if p <= 0.0:
            return 0.0
        return 1.0 - (1.0 - p) ** length

    @property
    def vocabulary(self) -> set[str]:
        return set(self._unigram_table())


class _LengthModel:
    """Log-normal email length in tokens, clipped to a sane band."""

    def __init__(self, median: int, sigma: float, minimum: int, maximum: int) -> None:
        if not minimum <= median <= maximum:
            raise ConfigurationError(
                f"length model needs minimum <= median <= maximum, got "
                f"{minimum}/{median}/{maximum}"
            )
        self.median = median
        self.sigma = sigma
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, rng: random.Random) -> int:
        length = int(round(math.exp(rng.gauss(math.log(self.median), self.sigma))))
        return max(self.minimum, min(self.maximum, length))


class HamLanguageModel:
    """Legitimate business email: core English + topical jargon.

    Each email belongs to one of ``topic_count`` threads; a slice of
    the ham-topic vocabulary is boosted for that thread, giving related
    emails shared rare jargon (the paper's "bid messages may even
    follow a common template").
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        topic_count: int = 40,
        length_median: int = 90,
        length_sigma: float = 0.55,
    ) -> None:
        if topic_count < 1:
            raise ConfigurationError(f"topic_count must be >= 1, got {topic_count}")
        self.vocabulary = vocabulary
        self.topic_count = topic_count
        self.lengths = _LengthModel(length_median, length_sigma, 20, 600)
        self.base = MixtureModel(
            [
                ("core", ZipfSampler(vocabulary.core, 1.05), 0.60),
                ("colloquial", ZipfSampler(vocabulary.colloquial, 1.10), 0.13),
                ("ham_topic", ZipfSampler(vocabulary.ham_topic, 0.90), 0.12),
                ("entity", ZipfSampler(vocabulary.entity, 0.80), 0.08),
                ("formal", ZipfSampler(vocabulary.formal, 1.20), 0.05),
                ("spam_shared", ZipfSampler(vocabulary.spam_shared, 1.00), 0.02),
            ]
        )
        # Partition ham_topic into per-thread jargon windows.
        words = list(vocabulary.ham_topic)
        window = max(1, len(words) // topic_count)
        self._topic_samplers = [
            ZipfSampler(words[i * window : (i + 1) * window] or words[:window], 0.7)
            for i in range(topic_count)
        ]
        self._topic_token_fraction = 0.12

    def sample_body_tokens(self, rng: random.Random, topic: int | None = None) -> list[str]:
        """Draw one email body as a token list (topic chosen if None)."""
        length = self.lengths.sample(rng)
        if topic is None:
            topic = rng.randrange(self.topic_count)
        topic_tokens = int(length * self._topic_token_fraction)
        tokens = self.base.sample(rng, length - topic_tokens)
        tokens.extend(self._topic_samplers[topic % self.topic_count].sample(rng, topic_tokens))
        rng.shuffle(tokens)
        return tokens


class SpamLanguageModel:
    """Unsolicited email: core English + promotional/obfuscated slices."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        length_median: int = 70,
        length_sigma: float = 0.60,
    ) -> None:
        self.vocabulary = vocabulary
        self.lengths = _LengthModel(length_median, length_sigma, 15, 500)
        self.base = MixtureModel(
            [
                ("core", ZipfSampler(vocabulary.core, 1.10), 0.55),
                ("spam_shared", ZipfSampler(vocabulary.spam_shared, 0.80), 0.14),
                ("spam_unlisted", ZipfSampler(vocabulary.spam_unlisted, 0.85), 0.12),
                ("colloquial", ZipfSampler(vocabulary.colloquial, 1.10), 0.09),
                ("entity", ZipfSampler(vocabulary.entity, 0.90), 0.04),
                ("ham_topic", ZipfSampler(vocabulary.ham_topic, 1.10), 0.03),
                ("formal", ZipfSampler(vocabulary.formal, 1.30), 0.03),
            ]
        )

    def sample_body_tokens(self, rng: random.Random) -> list[str]:
        """Draw one spam body as a token list."""
        return self.base.sample(rng, self.lengths.sample(rng))
