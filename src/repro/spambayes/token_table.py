"""String <-> integer token interning.

Every hot loop in this reproduction — bulk fold scoring, attack-batch
training, the RONI gate — used to probe a ``dict[str, WordInfo]`` once
per token occurrence.  A :class:`TokenTable` removes the strings from
those loops: each distinct token is assigned a small dense integer ID
the first time it is seen, and everything downstream (count columns,
probability memos, encoded messages) is indexed by that ID.

Properties the rest of the system leans on:

* **append-only** — an ID, once assigned, never changes and never goes
  away, so encoded messages stay valid as the table grows (new attack
  vocabulary, new folds, new candidates);
* **shared per corpus** — one table serves a dataset and every
  classifier derived from it, so a message is encoded once and its ID
  array is reused across folds, attack batches, repetitions and worker
  processes;
* **dense** — IDs are ``0..len(table)-1``, which is what lets the
  classifier store counts in flat ``array`` columns and memoize
  probabilities in flat lists instead of hash tables;
* **seed-stable layout** — when a *batch* of new tokens is interned
  (:meth:`TokenTable.encode_unique`, the path every message, attack
  payload and training call goes through), the new tokens are assigned
  IDs in sorted text order.  Token sets arrive as ``set``/``frozenset``
  objects whose iteration order depends on ``PYTHONHASHSEED``; sorting
  before assignment makes the table layout — and everything ID-keyed
  downstream (count columns, snapshots, persisted dumps, encoded
  arrays) — a pure function of *which* tokens were interned in *which
  batch order*, never of string-hash randomization.

Pickling ships only the token list (the dict side is rebuilt), so a
table crosses process boundaries at the cost of its vocabulary, not
twice it.
"""

from __future__ import annotations

from array import array
from typing import Callable, Collection, Iterable, Iterator, Sequence

__all__ = ["TokenTable", "build_text_ranks", "finish_encode"]

TOKEN_ID_TYPECODE = "l"
"""Array typecode used for token-ID storage throughout the project."""


def finish_encode(ids: list[int], new: list[str], intern: Callable[[str], int]) -> array:
    """Finish a bulk encode: intern ``new`` tokens, return sorted IDs.

    The seed-stability half of the encoding contract lives here, shared
    by every table implementation (in-memory and disk-backed): new
    tokens are interned in **sorted text order** so ID assignment never
    depends on set iteration order, and the combined ID list is sorted
    so identical token sets always encode to identical arrays.
    """
    if new:
        new.sort()
        for token in new:
            ids.append(intern(token))
    ids.sort()
    return array(TOKEN_ID_TYPECODE, ids)


def build_text_ranks(tokens: Sequence[str]) -> array:
    """Rank of each token's text in the sorted vocabulary.

    ``ranks[tid]`` is the position token ``tid`` would occupy if the
    vocabulary were sorted by text; Python's ``sorted`` does the
    ordering so the ranks reproduce exactly the string comparisons of
    the δ(E) tie-break.  Shared by every table implementation.
    """
    n = len(tokens)
    ranks = array(TOKEN_ID_TYPECODE, bytes(n * array(TOKEN_ID_TYPECODE).itemsize))
    order = sorted(range(n), key=tokens.__getitem__)
    for rank, tid in enumerate(order):
        ranks[tid] = rank
    return ranks


class TokenTable:
    """Append-only bidirectional ``str <-> int`` token registry."""

    __slots__ = ("_ids", "_tokens", "_rank_cache")

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        self._rank_cache: array | None = None
        for token in tokens:
            self.intern(token)

    # ------------------------------------------------------------------
    # Core interning
    # ------------------------------------------------------------------

    def intern(self, token: str) -> int:
        """Return ``token``'s ID, assigning the next dense ID if new."""
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def id_of(self, token: str) -> int | None:
        """The ID of ``token`` if already interned, else ``None``."""
        return self._ids.get(token)

    def lookup(self, tokens: Collection[str]) -> list[int | None]:
        """:meth:`id_of` for every token, aligned with the input.

        One call per message on the scoring path: it never interns, and
        it leaves the storage format (dict here, SQLite on disk) to the
        table instead of a per-token method call.
        """
        return list(map(self._ids.get, tokens))

    def token(self, token_id: int) -> str:
        """The token text for an assigned ID (raises IndexError if unassigned)."""
        return self._tokens[token_id]

    # ------------------------------------------------------------------
    # Bulk encoding
    # ------------------------------------------------------------------

    def encode_unique(self, tokens: Iterable[str]) -> array:
        """Encode a token stream as a sorted array of unique token IDs.

        Duplicates are collapsed (the classifier's presence/absence
        model) and new tokens are interned.  The result is sorted by ID
        so identical token sets encode to identical arrays — grouping
        and pickling stay deterministic.

        New tokens are interned in **sorted text order**, never in set
        iteration order: ``tokens`` is usually a ``set``/``frozenset``,
        whose iteration order varies with ``PYTHONHASHSEED``, and ID
        assignment must not.  Sorting pins the table layout (and every
        ID-keyed structure downstream) across runs, hash seeds and
        worker processes.
        """
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        lookup = self._ids.get
        new: list[str] = []
        ids: list[int] = []
        for token in unique:
            tid = lookup(token)
            if tid is None:
                new.append(token)
            else:
                ids.append(tid)
        return finish_encode(ids, new, self.intern)

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Token texts for a sequence of IDs (inverse of encoding)."""
        tokens = self._tokens
        return [tokens[tid] for tid in ids]

    def keep_row(self, ids: array):
        """Keep an encoded message row; returns the key to fetch it by.

        The in-memory table keeps nothing itself: the row is its own
        key, held by the message handle.  Disk-backed tables store the
        row and hand back a row number (see
        :class:`~repro.storage.disk.DiskTokenTable`).
        """
        return ids

    def fetch_row(self, key) -> array:
        """The row :meth:`keep_row` returned ``key`` for."""
        return key

    def text_order_ranks(self) -> array:
        """Rank of each token's text in the table's sorted vocabulary.

        ``ranks[tid]`` is the position token ``tid`` would occupy if the
        vocabulary were sorted by text.  The vectorized scoring paths
        use these ranks to reproduce δ(E)'s ``(−strength, token text)``
        tie-break without comparing strings per message.  The array is
        cached and rebuilt only when the table has grown (the table is
        append-only, so its length is a complete cache key); Python's
        ``sorted`` does the ordering, so the rank order is exactly the
        string order.
        """
        cached = self._rank_cache
        n = len(self._tokens)
        if cached is None or len(cached) != n:
            self._rank_cache = cached = build_text_ranks(self._tokens)
        return cached

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        """Iterate tokens in ID order (ID ``i`` is the ``i``-th token)."""
        return iter(self._tokens)

    # ------------------------------------------------------------------
    # Pickling: ship the list, rebuild the dict
    # ------------------------------------------------------------------

    def __getstate__(self) -> list[str]:
        return self._tokens

    def __setstate__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._ids = {token: tid for tid, token in enumerate(tokens)}
        self._rank_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenTable(len={len(self._tokens)})"
