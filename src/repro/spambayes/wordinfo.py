"""Per-token training statistics.

One :class:`WordInfo` record exists per token ever seen in training.
It stores only the two counts the Robinson score needs — how many spam
and how many ham training messages contained the token.  Counts are
per-*message* (presence/absence), not per-occurrence, matching the
independence model of Section 2.3.
"""

from __future__ import annotations

__all__ = ["WordInfo"]


class WordInfo:
    """Mutable (spamcount, hamcount) pair with a tiny footprint.

    A trained classifier holds one of these per vocabulary entry —
    a dictionary attack pushes the vocabulary towards 10^5 tokens, so
    ``__slots__`` keeps memory linear and small.
    """

    __slots__ = ("spamcount", "hamcount")

    def __init__(self, spamcount: int = 0, hamcount: int = 0) -> None:
        self.spamcount = spamcount
        self.hamcount = hamcount

    @property
    def total(self) -> int:
        """N(w): number of training messages containing the token."""
        return self.spamcount + self.hamcount

    def copy(self) -> "WordInfo":
        return WordInfo(self.spamcount, self.hamcount)

    def __getstate__(self) -> tuple[int, int]:
        # A bare (spam, ham) tuple instead of the default __slots__
        # dict: a trained classifier pickles one record per vocabulary
        # entry when shipped to sweep workers, so state compactness is
        # transfer speed.
        return (self.spamcount, self.hamcount)

    def __setstate__(self, state: tuple[int, int]) -> None:
        self.spamcount, self.hamcount = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordInfo):
            return NotImplemented
        return self.spamcount == other.spamcount and self.hamcount == other.hamcount

    def __repr__(self) -> str:
        return f"WordInfo(spamcount={self.spamcount}, hamcount={self.hamcount})"
