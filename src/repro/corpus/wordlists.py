"""The attacker's word sources.

Section 3.2 of the paper uses two public word sources to build
dictionary attacks:

* the GNU Aspell English dictionary 6.0-0 — 98,568 words, and
* the top 90,000 words of a Usenet posting corpus (Shaoul & Westbury),
  whose overlap with Aspell is roughly 61,000 words.

This module synthesizes both from a :class:`Vocabulary`.  The Aspell
list is membership-defined (every formal word, no slang).  The Usenet
list is *frequency-ranked*: we simulate per-word Usenet frequencies
(core words common, slang medium, formal words absent) and keep the
``top_k`` — exactly the construction the paper describes, so the
"smaller but better targeted dictionary" trade-off of Section 3.2 is
reproducible by varying ``top_k`` (benchmark E-A1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.rng import SeedSpawner
from repro.corpus.vocabulary import Vocabulary

__all__ = ["AttackWordlist", "build_aspell_dictionary", "build_usenet_wordlist"]

# Default kept fraction of the eligible pool: exactly 90,000 of the
# 91,160 paper-scale pool, the paper's "90,000 top ranked words".
_USENET_DEFAULT_FRACTION = 90_000 / 91_160

# Relative Usenet posting frequency by vocabulary slice. Core English
# dominates; topical/business words appear but rarer; slang sits in
# between; obfuscated spam words are rare but present.
_USENET_SLICE_WEIGHT = {
    "core": 1.0,
    "colloquial": 0.35,
    "ham_topic": 0.15,
    "spam_shared": 0.12,
    "spam_unlisted_slangy": 0.08,
}


@dataclass(frozen=True)
class AttackWordlist:
    """An ordered word list an attacker can stuff into attack emails.

    ``words`` is ordered most-useful-first (for the Usenet list this is
    descending simulated frequency), so ``truncated(k)`` gives the
    natural "top-k words" sub-dictionary.
    """

    name: str
    source: str
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ConfigurationError(f"wordlist {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def truncated(self, top_k: int) -> "AttackWordlist":
        """The ``top_k`` most useful words as a new list."""
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        return AttackWordlist(
            name=f"{self.name}-top{top_k}",
            source=self.source,
            words=self.words[:top_k],
        )


def build_aspell_dictionary(vocabulary: Vocabulary) -> AttackWordlist:
    """The synthetic GNU Aspell dictionary for this universe.

    Contains every formally spelled word — the core, the formal tail,
    and the topical vocabularies — but no slang, no misspellings, no
    obfuscations, and no entities.  Sorted alphabetically like a real
    dictionary file; order carries no frequency information, which is
    precisely the Aspell attack's weakness.
    """
    words = sorted(vocabulary.aspell_words())
    return AttackWordlist(
        name="aspell",
        source="synthetic GNU Aspell en 6.0-0 equivalent",
        words=tuple(words),
    )


def build_usenet_wordlist(
    vocabulary: Vocabulary,
    top_k: int | None = None,
    seed: int = 0,
) -> AttackWordlist:
    """The synthetic Usenet frequency-ranked word list.

    Simulates a Usenet frequency for every eligible word: a Zipf-like
    positional decay within its slice, scaled by the slice's posting
    weight, with multiplicative jitter so slices interleave like real
    rank lists do.  Keeps the ``top_k`` most frequent (defaults to ~99%
    of the eligible pool, matching 90,000-of-91,160 at paper scale).
    """
    rng = SeedSpawner(seed).spawn("usenet-wordlist").rng("jitter")
    pool: list[tuple[float, str]] = []
    slices: list[tuple[str, Sequence[str]]] = [
        ("core", vocabulary.core),
        ("colloquial", vocabulary.colloquial),
        ("ham_topic", vocabulary.ham_topic),
        ("spam_shared", vocabulary.spam_shared),
        ("spam_unlisted_slangy", vocabulary.spam_unlisted_slangy),
    ]
    for slice_name, words in slices:
        weight = _USENET_SLICE_WEIGHT[slice_name]
        for rank, word in enumerate(words):
            # Zipf positional decay inside the slice; jitter keeps the
            # merged ranking from being a deterministic slice-by-slice
            # interleave.
            frequency = weight / (1.0 + rank) ** 0.85
            frequency *= math.exp(rng.gauss(0.0, 0.4))
            pool.append((frequency, word))
    pool.sort(key=lambda item: (-item[0], item[1]))
    if top_k is None:
        top_k = max(1, round(len(pool) * _USENET_DEFAULT_FRACTION))
    if top_k > len(pool):
        raise ConfigurationError(
            f"top_k={top_k} exceeds the Usenet-eligible pool ({len(pool)} words)"
        )
    return AttackWordlist(
        name="usenet",
        source="synthetic Shaoul & Westbury Usenet corpus equivalent",
        words=tuple(word for _, word in pool[:top_k]),
    )
