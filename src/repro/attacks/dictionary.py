"""Indiscriminate dictionary attacks (Section 3.2).

All three variants inject spam-labeled emails whose body is a fixed,
huge word list; training on them raises the spam score of every listed
word, dragging future ham toward the unsure/spam bands.  They differ
only in the attacker's knowledge of the victim's word distribution:

* :class:`OptimalDictionaryAttack` — the Section 3.4 optimum under
  total ignorance modeled as "include every possible token".  In
  practice we instantiate it with the full vocabulary universe of the
  synthetic corpus (or any token set the caller supplies).
* :class:`AspellDictionaryAttack` — an English dictionary: formal
  words only, 98,568 entries at paper scale.
* :class:`UsenetDictionaryAttack` — the top-k words of a Usenet
  corpus: smaller, but covering colloquialisms real ham uses, hence
  stronger per Figure 1.

Every variant produces one :class:`AttackMessageGroup` with all
messages identical — which is what lets the harness train a 10%
contamination run in a single pass.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.attacks.base import Attack, AttackBatch, AttackMessageGroup
from repro.corpus.vocabulary import Vocabulary
from repro.corpus.wordlists import AttackWordlist, build_aspell_dictionary, build_usenet_wordlist
from repro.errors import AttackError

__all__ = [
    "DictionaryAttack",
    "OptimalDictionaryAttack",
    "AspellDictionaryAttack",
    "UsenetDictionaryAttack",
]


class DictionaryAttack(Attack):
    """Base class: inject identical emails containing ``words``."""

    def __init__(self, words: Iterable[str], name: str = "dictionary") -> None:
        self.tokens = frozenset(words)
        if not self.tokens:
            raise AttackError(f"dictionary attack {name!r} has no words")
        self.name = name

    def generate(self, count: int, rng: random.Random) -> AttackBatch:
        """``count`` identical attack messages as one group.

        ``rng`` is unused — dictionary attacks are deterministic — but
        stays in the signature so all attacks are interchangeable.
        """
        if count < 0:
            raise AttackError(f"attack count must be >= 0, got {count}")
        if count == 0:
            return AttackBatch(self.name, [])
        return AttackBatch(self.name, [AttackMessageGroup(tokens=self.tokens, count=count)])


class OptimalDictionaryAttack(DictionaryAttack):
    """The optimal Indiscriminate attack of Section 3.4.

    Under a uniform prior over future email, the expected-spam-score
    maximizer includes *all possible words*.  That ideal is infeasible
    over real text but simulable here: the synthetic universe is finite
    and known, so "all possible words" is exactly
    ``vocabulary.all_words()``.
    """

    def __init__(self, words: Iterable[str], name: str = "optimal") -> None:
        super().__init__(words, name)

    @classmethod
    def from_vocabulary(cls, vocabulary: Vocabulary) -> "OptimalDictionaryAttack":
        return cls(vocabulary.all_words())


class AspellDictionaryAttack(DictionaryAttack):
    """Dictionary attack from the (synthetic) GNU Aspell word list."""

    def __init__(self, wordlist: AttackWordlist) -> None:
        if wordlist.name.split("-")[0] != "aspell":
            raise AttackError(
                f"AspellDictionaryAttack expects an aspell wordlist, got {wordlist.name!r}"
            )
        super().__init__(wordlist.words, name="aspell")
        self.wordlist = wordlist

    @classmethod
    def from_vocabulary(cls, vocabulary: Vocabulary) -> "AspellDictionaryAttack":
        return cls(build_aspell_dictionary(vocabulary))


class UsenetDictionaryAttack(DictionaryAttack):
    """Dictionary attack from the top-k Usenet corpus words.

    ``top_k`` trades email size against coverage (Section 3.2's
    "smaller emails without losing much effectiveness"); benchmark
    E-A1 sweeps it.
    """

    def __init__(self, wordlist: AttackWordlist, top_k: int | None = None) -> None:
        if wordlist.name.split("-")[0] != "usenet":
            raise AttackError(
                f"UsenetDictionaryAttack expects a usenet wordlist, got {wordlist.name!r}"
            )
        if top_k is not None:
            wordlist = wordlist.truncated(top_k)
        super().__init__(wordlist.words, name=wordlist.name)
        self.wordlist = wordlist

    @classmethod
    def from_vocabulary(
        cls, vocabulary: Vocabulary, top_k: int | None = None, seed: int = 0
    ) -> "UsenetDictionaryAttack":
        return cls(build_usenet_wordlist(vocabulary, seed=seed), top_k=top_k)
