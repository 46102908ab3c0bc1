"""The synthetic word universe.

Every word any generated email can contain comes from a
:class:`Vocabulary`, which is partitioned into six disjoint slices.
The slices exist because the *dictionary membership* of a word is what
the paper's attacks care about:

=============  =========================  ==========================
slice          in Aspell dictionary?      in Usenet top-k list?
=============  =========================  ==========================
core           yes                        yes
formal         yes                        no (too rare on Usenet)
colloquial     no (slang, misspellings)   yes
ham_topic      yes                        yes
spam_shared    yes                        yes
spam_unlisted  no (obfuscations)          partially (the slangy half)
entity         no (names, account ids)    no
=============  =========================  ==========================

The paper's Usenet-beats-Aspell result (Figure 1) hinges on ham email
containing colloquialisms that only the Usenet list covers; the
optimal-beats-everything result hinges on ham also containing entity
tokens that neither list covers.  The slice sizes of
:data:`PAPER_PROFILE` are calibrated so the synthetic Aspell list has
98,568 words, the Usenet list 90,000, and their overlap ≈61,000 —
the counts reported in Sections 3.2 and 4.2.

Words themselves are pronounceable consonant-vowel gibberish (plus
mutation-derived "misspellings" for the colloquial slice and digit
obfuscations for spam), generated deterministically from a seed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Iterator

from repro.errors import ConfigurationError
from repro.rng import SeedSpawner

__all__ = [
    "VocabularyProfile",
    "Vocabulary",
    "WordForge",
    "PAPER_PROFILE",
    "SMALL_PROFILE",
    "TINY_PROFILE",
]

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_CODA = "nrstlmdk"


@dataclass(frozen=True, slots=True)
class VocabularyProfile:
    """Slice sizes for a vocabulary universe.

    ``aspell_words()``/``usenet_words()`` on :class:`Vocabulary` derive
    the dictionary sizes from these; see the table in the module
    docstring for the membership rules.
    """

    name: str
    core_size: int
    formal_size: int
    colloquial_size: int
    ham_topic_size: int
    spam_shared_size: int
    spam_unlisted_size: int
    entity_size: int

    def __post_init__(self) -> None:
        for field_name in (
            "core_size",
            "formal_size",
            "colloquial_size",
            "ham_topic_size",
            "spam_shared_size",
            "spam_unlisted_size",
            "entity_size",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be >= 0")
        if self.core_size == 0:
            raise ConfigurationError("core_size must be positive")

    @property
    def total_size(self) -> int:
        return (
            self.core_size
            + self.formal_size
            + self.colloquial_size
            + self.ham_topic_size
            + self.spam_shared_size
            + self.spam_unlisted_size
            + self.entity_size
        )


# Calibrated to the paper: |Aspell| = 98,568; |Usenet list| = 90,000
# (taken from a 91,160-word eligible pool); overlap ≈ 61,000.
PAPER_PROFILE = VocabularyProfile(
    name="paper",
    core_size=55_400,
    formal_size=37_568,
    colloquial_size=28_000,
    ham_topic_size=4_800,
    spam_shared_size=800,
    spam_unlisted_size=4_320,
    entity_size=8_000,
)

# One tenth of the paper scale: the default for tests and quick benches.
SMALL_PROFILE = VocabularyProfile(
    name="small",
    core_size=5_540,
    formal_size=3_757,
    colloquial_size=2_800,
    ham_topic_size=480,
    spam_shared_size=80,
    spam_unlisted_size=432,
    entity_size=800,
)

# Minimal universe for unit tests that only need structure, not scale.
TINY_PROFILE = VocabularyProfile(
    name="tiny",
    core_size=400,
    formal_size=150,
    colloquial_size=120,
    ham_topic_size=60,
    spam_shared_size=20,
    spam_unlisted_size=40,
    entity_size=60,
)


class WordForge:
    """Deterministic generator of distinct pronounceable words.

    Words are CV-syllable strings of 3-12 characters, which keeps them
    inside the tokenizer's accepted length band so no generated word is
    silently dropped or skip-tokenized.
    """

    def __init__(self, seed_spawner: SeedSpawner) -> None:
        self._rng = seed_spawner.rng("word-forge")
        self._seen: set[str] = set()

    def word(self, min_syllables: int = 2, max_syllables: int = 4) -> str:
        """Return a fresh word not produced before by this forge.

        A word is ``randint(min_syllables, max_syllables)`` syllables of
        ``choice(_CONSONANTS) + choice(_VOWELS)``, plus ``choice(_CODA)``
        when ``random() < 0.35``.  Each draw inlines the loop of CPython's
        ``Random._randbelow_with_getrandbits`` (``k = n.bit_length()``,
        even for a power of two), so the draws are exactly those calls'.
        """
        span = max_syllables - min_syllables + 1
        if span < 1:
            raise ValueError(f"empty syllable range ({min_syllables}, {max_syllables})")
        getrandbits = self._rng.getrandbits
        random = self._rng.random
        k_span = span.bit_length()
        n_c, k_c = len(_CONSONANTS), len(_CONSONANTS).bit_length()
        n_v, k_v = len(_VOWELS), len(_VOWELS).bit_length()
        n_d, k_d = len(_CODA), len(_CODA).bit_length()  # 8 letters take 4 bits
        while True:
            count = getrandbits(k_span)
            while count >= span:
                count = getrandbits(k_span)
            letters = []
            for _ in range(min_syllables + count):
                c = getrandbits(k_c)
                while c >= n_c:
                    c = getrandbits(k_c)
                v = getrandbits(k_v)
                while v >= n_v:
                    v = getrandbits(k_v)
                letters.append(_CONSONANTS[c])
                letters.append(_VOWELS[v])
                if random() < 0.35:
                    d = getrandbits(k_d)
                    while d >= n_d:
                        d = getrandbits(k_d)
                    letters.append(_CODA[d])
            candidate = "".join(letters)[:12]
            if len(candidate) >= 3 and candidate not in self._seen:
                self._seen.add(candidate)
                return candidate

    def words(self, count: int, min_syllables: int = 2, max_syllables: int = 4) -> list[str]:
        return [self.word(min_syllables, max_syllables) for _ in range(count)]

    def misspelling_of(self, word: str) -> str:
        """Mutate ``word`` into a distinct colloquial variant.

        Applies one of: adjacent transposition ("teh"), vowel drop
        ("thx"), or doubling — the typo classes that make Usenet text
        diverge from a formal dictionary.
        """
        rng = self._rng
        while True:
            kind = rng.randrange(3)
            chars = list(word)
            if kind == 0 and len(chars) >= 4:
                i = rng.randrange(len(chars) - 1)
                chars[i], chars[i + 1] = chars[i + 1], chars[i]
            elif kind == 1 and any(c in _VOWELS for c in chars[1:]):
                vowel_positions = [i for i, c in enumerate(chars) if c in _VOWELS and i > 0]
                del chars[rng.choice(vowel_positions)]
            else:
                i = rng.randrange(len(chars))
                chars.insert(i, chars[i])
            candidate = "".join(chars)[:12]
            if len(candidate) >= 3 and candidate != word and candidate not in self._seen:
                self._seen.add(candidate)
                return candidate

    def obfuscation_of(self, word: str) -> str:
        """Digit-substitute ``word`` ("viagra" -> "v1agra")-style."""
        substitutions = {"a": "4", "e": "3", "i": "1", "o": "0", "u": "v"}
        rng = self._rng
        while True:
            chars = list(word)
            positions = [i for i, c in enumerate(chars) if c in substitutions]
            if not positions:
                chars.append(rng.choice("0123456789"))
            else:
                i = rng.choice(positions)
                chars[i] = substitutions[chars[i]]
            candidate = "".join(chars)[:12]
            if len(candidate) >= 3 and candidate != word and candidate not in self._seen:
                self._seen.add(candidate)
                return candidate
            # Extremely unlikely collision: perturb again from scratch.
            word = candidate + rng.choice("0123456789")

    def entity(self) -> str:
        """Name-or-id style token ("kopels2004", "acct7731")."""
        rng = self._rng
        while True:
            if rng.random() < 0.6:
                base = self.word(2, 3)
                candidate = f"{base}{rng.randrange(1990, 2010)}"[:12]
            else:
                candidate = f"{self.word(1, 2)}{rng.randrange(100, 9999)}"[:12]
            if len(candidate) >= 3 and candidate not in self._seen:
                self._seen.add(candidate)
                return candidate


_BUILT: "weakref.WeakValueDictionary[tuple[VocabularyProfile, int], Vocabulary]" = (
    weakref.WeakValueDictionary()
)
"""The live vocabularies :meth:`Vocabulary.build` made in this process,
by ``(profile, seed)``.  Weak, so a vocabulary nothing else holds is
freed; a forked process inherits the parent's entries."""


@dataclass(frozen=True)
class Vocabulary:
    """A fully realized word universe, sliced per the module table.

    A vocabulary :meth:`build` made is a pure function of
    ``(profile, seed)``, so it pickles as those two and unpickles
    through :meth:`build`, which returns the live one of this process
    when there is one.  Any other vocabulary pickles by value.
    """

    profile: VocabularyProfile
    seed: int
    core: tuple[str, ...]
    formal: tuple[str, ...]
    colloquial: tuple[str, ...]
    ham_topic: tuple[str, ...]
    spam_shared: tuple[str, ...]
    spam_unlisted: tuple[str, ...]
    entity: tuple[str, ...]

    @classmethod
    def build(cls, profile: VocabularyProfile = SMALL_PROFILE, seed: int = 0) -> "Vocabulary":
        """Generate the universe for ``profile`` deterministically, or
        return this process's live one for ``(profile, seed)``."""
        vocabulary = _BUILT.get((profile, seed))
        if vocabulary is None:
            vocabulary = cls._generate(profile, seed)
            _BUILT[profile, seed] = vocabulary
        return vocabulary

    @classmethod
    def _generate(cls, profile: VocabularyProfile, seed: int) -> "Vocabulary":
        spawner = SeedSpawner(seed).spawn(f"vocabulary:{profile.name}")
        forge = WordForge(spawner)
        core = forge.words(profile.core_size)
        formal = forge.words(profile.formal_size, min_syllables=3, max_syllables=5)
        # Colloquialisms: half fresh slang, half misspellings of core words.
        slang_count = profile.colloquial_size // 2
        slang = forge.words(slang_count, min_syllables=1, max_syllables=3)
        source_rng = spawner.rng("misspell-sources")
        misspellings = [
            forge.misspelling_of(source_rng.choice(core))
            for _ in range(profile.colloquial_size - slang_count)
        ]
        ham_topic = forge.words(profile.ham_topic_size)
        spam_shared = forge.words(profile.spam_shared_size)
        # Unlisted spam words: half slangy (Usenet sees them), half
        # obfuscations (nothing lists them).
        slangy_count = profile.spam_unlisted_size // 2
        spam_slangy = forge.words(slangy_count, min_syllables=1, max_syllables=3)
        obfuscation_rng = spawner.rng("obfuscation-sources")
        pool = spam_shared if spam_shared else core
        spam_obfuscated = [
            forge.obfuscation_of(obfuscation_rng.choice(pool))
            for _ in range(profile.spam_unlisted_size - slangy_count)
        ]
        entity = [forge.entity() for _ in range(profile.entity_size)]
        return cls(
            profile=profile,
            seed=seed,
            core=tuple(core),
            formal=tuple(formal),
            colloquial=tuple(slang + misspellings),
            ham_topic=tuple(ham_topic),
            spam_shared=tuple(spam_shared),
            spam_unlisted=tuple(spam_slangy + spam_obfuscated),
            entity=tuple(entity),
        )

    @property
    def seeded(self) -> bool:
        """Whether this is the live vocabulary :meth:`build` made for
        its ``(profile, seed)``, so the pair alone rebuilds it."""
        return _BUILT.get((self.profile, self.seed)) is self

    def __reduce__(self):
        if self.seeded:
            return (Vocabulary.build, (self.profile, self.seed))
        return (Vocabulary, tuple(getattr(self, field.name) for field in fields(self)))

    # ------------------------------------------------------------------
    # Derived word sets
    # ------------------------------------------------------------------

    @property
    def spam_unlisted_slangy(self) -> tuple[str, ...]:
        """The Usenet-visible half of the unlisted spam words."""
        return self.spam_unlisted[: len(self.spam_unlisted) // 2]

    def aspell_words(self) -> list[str]:
        """Every word the synthetic Aspell dictionary contains."""
        return list(self.core) + list(self.formal) + list(self.ham_topic) + list(self.spam_shared)

    def all_words(self) -> Iterator[str]:
        """Every word in the universe (dictionary members or not)."""
        for slice_words in (
            self.core,
            self.formal,
            self.colloquial,
            self.ham_topic,
            self.spam_shared,
            self.spam_unlisted,
            self.entity,
        ):
            yield from slice_words

    def __len__(self) -> int:
        return self.profile.total_size
