"""The exact-draw contract of the inlined ``getrandbits`` loops.

``WordForge.word`` and :func:`repro.rng.shuffle_exact` (the ham body
shuffle) run CPython's ``Random._randbelow_with_getrandbits`` loop
inline instead of calling ``randint``/``choice``/``shuffle``.  Every
golden record depends on those draws, so these tests pin two things:

* the loop itself returns what ``Random.choice``, ``Random.randint``
  and ``Random.shuffle`` return and leaves the same ``getstate()``, for
  ``n`` in {1, 2^k - 1, 2^k, 2^k + 1}.  A CPython release that changes
  ``_randbelow`` fails here, by name, before any golden drifts;
* the inlined users equal their call-based forms (the previous code,
  kept here as oracles): the forge's words and whole vocabularies, and
  the ham language model's bodies.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import language_model, vocabulary
from repro.corpus.vocabulary import TINY_PROFILE, Vocabulary, WordForge
from repro.rng import SeedSpawner, shuffle_exact

CONTRACT = (
    "CPython's Random._randbelow no longer draws getrandbits(n.bit_length()) "
    "until the value is below n; the inlined loops in WordForge.word and "
    "repro.rng.shuffle_exact must follow the new rule, or every golden drifts"
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)
# n in {1, 2^k - 1, 2^k, 2^k + 1}: the rejection loop's edges (k <= 62 keeps
# range(n) within len()).
bounds = st.builds(
    lambda k, offset: max(1, 2**k + offset),
    st.integers(min_value=0, max_value=62),
    st.sampled_from((-1, 0, 1)),
)


def below(rng: random.Random, n: int) -> int:
    """The loop as the source inlines it."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class TestLoopMatchesRandom:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, n=bounds)
    def test_choice(self, seed, n):
        inlined, stock = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert below(inlined, n) == stock.choice(range(n)), CONTRACT
        assert inlined.getstate() == stock.getstate(), CONTRACT

    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, n=bounds, low=st.integers(min_value=-5, max_value=5))
    def test_randint(self, seed, n, low):
        inlined, stock = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert low + below(inlined, n) == stock.randint(low, low + n - 1), CONTRACT
        assert inlined.getstate() == stock.getstate(), CONTRACT

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        n=st.builds(
            lambda k, offset: max(0, 2**k + offset),
            st.integers(min_value=0, max_value=9),
            st.sampled_from((-1, 0, 1)),
        ),
    )
    def test_shuffle(self, seed, n):
        inlined, stock = random.Random(seed), random.Random(seed)
        items, expected = list(range(n)), list(range(n))
        shuffle_exact(inlined, items)
        stock.shuffle(expected)
        assert items == expected, CONTRACT
        assert inlined.getstate() == stock.getstate(), CONTRACT


class _CallingForge(WordForge):
    """The forge before inlining: ``randint`` and ``choice`` calls."""

    def word(self, min_syllables: int = 2, max_syllables: int = 4) -> str:
        rng = self._rng
        while True:
            count = rng.randint(min_syllables, max_syllables)
            candidate = "".join(
                rng.choice(vocabulary._CONSONANTS)
                + rng.choice(vocabulary._VOWELS)
                + (rng.choice(vocabulary._CODA) if rng.random() < 0.35 else "")
                for _ in range(count)
            )[:12]
            if len(candidate) >= 3 and candidate not in self._seen:
                self._seen.add(candidate)
                return candidate


class TestInlinedUsersMatchCalls:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=seeds,
        min_syllables=st.integers(min_value=1, max_value=4),
        span=st.integers(min_value=1, max_value=5),
        count=st.integers(min_value=1, max_value=40),
    )
    def test_forge_words(self, seed, min_syllables, span, count):
        max_syllables = min_syllables + span - 1
        inlined = WordForge(SeedSpawner(seed))
        calling = _CallingForge(SeedSpawner(seed))
        assert inlined.words(count, min_syllables, max_syllables) == calling.words(
            count, min_syllables, max_syllables
        )
        assert inlined._rng.getstate() == calling._rng.getstate()

    def test_empty_syllable_range_is_rejected(self):
        with pytest.raises(ValueError):
            WordForge(SeedSpawner(0)).word(3, 2)

    @settings(max_examples=5, deadline=None)
    @given(seed=seeds)
    def test_vocabulary(self, seed):
        with mock.patch.object(vocabulary, "WordForge", _CallingForge):
            expected = Vocabulary._generate(TINY_PROFILE, seed)
        assert Vocabulary._generate(TINY_PROFILE, seed) == expected

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds, topic=st.one_of(st.none(), st.integers(min_value=0, max_value=80)))
    def test_ham_bodies(self, seed, topic, tiny_vocabulary):
        model = language_model.HamLanguageModel(tiny_vocabulary)
        with mock.patch.object(language_model, "shuffle_exact", random.Random.shuffle):
            expected = model.sample_body_tokens(random.Random(seed), topic)
        assert model.sample_body_tokens(random.Random(seed), topic) == expected
