"""Deterministic randomness plumbing.

Every stochastic component in this library draws from a
:class:`random.Random` instance that was *spawned* from a named root
seed. Spawning hashes the parent seed together with a string label, so:

* two runs with the same root seed are bit-identical,
* sibling components (e.g. "ham generator" vs "spam generator") get
  decorrelated streams even though they share a root, and
* adding a new consumer never perturbs the streams of existing ones
  (unlike sharing a single ``Random`` and interleaving draws).

The scheme is intentionally simple — SHA-256 of ``parent_seed || label``
— rather than numpy's ``SeedSequence``, because the hot paths use the
stdlib ``random`` module (generating token sets, shuffling folds) and we
want zero numpy dependency in the core engine.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["spawn_seed", "shuffle_exact", "SeedSpawner", "DEFAULT_SEED"]

DEFAULT_SEED = 20080415
"""Default root seed (the LEET'08 workshop date) used across examples."""


def spawn_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a string ``label``.

    The derivation is a SHA-256 hash truncated to 64 bits, which is
    stable across Python versions and platforms (``hash()`` is not,
    because of string-hash randomization).
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shuffle_exact(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)``: the same permutation and stream position,
    with CPython's per-element ``_randbelow_with_getrandbits(i + 1)``
    call inlined (``getrandbits(n.bit_length())`` until below ``n``)."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


class SeedSpawner:
    """A root seed that hands out named, decorrelated child streams.

    >>> spawner = SeedSpawner(1234)
    >>> ham_rng = spawner.rng("ham")
    >>> spam_rng = spawner.rng("spam")
    >>> spawner.rng("ham").random() == ham_rng.random()  # same stream
    False

    Repeated requests for the same label return *new* generator objects
    positioned at the start of the same stream, so a component can be
    re-created mid-experiment and replay its own randomness.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)

    def child_seed(self, label: str) -> int:
        """Derive the child seed for ``label`` without building an RNG."""
        return spawn_seed(self.seed, label)

    def rng(self, label: str) -> random.Random:
        """Return a ``random.Random`` for ``label``, always at stream start."""
        return random.Random(self.child_seed(label))

    def spawn(self, label: str) -> "SeedSpawner":
        """Return a sub-spawner rooted at the child seed for ``label``."""
        return SeedSpawner(self.child_seed(label))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SeedSpawner(seed={self.seed})"
