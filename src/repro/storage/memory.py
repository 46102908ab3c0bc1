"""The in-memory storage backend: the reproduction's historical state.

Everything here is the pre-storage-layer behaviour *extracted*, not
rewritten: :class:`MemoryCountColumns.grow` is the classifier's old
``_ensure_columns`` body (``array.frombytes`` of a zero block) and
:class:`NDMemoryCountColumns.grow` is the ND kernel's old geometric
buffer doubling, moved verbatim so the memory path stays
byte-identical — including pickle payloads, which still ship plain
``array('l')`` / ``ndarray`` columns.

Its token tables keep no message rows: a message encoded against one
holds its own row (:meth:`~repro.spambayes.token_table.TokenTable.
keep_row`).
"""

from __future__ import annotations

from array import array

from repro.spambayes.token_table import TOKEN_ID_TYPECODE, TokenTable
from repro.storage.base import StorageBackend

__all__ = ["MemoryBackend", "MemoryCountColumns", "NDMemoryCountColumns"]


class MemoryCountColumns:
    """Plain ``array('l')`` spam/ham columns for the pure kernel.

    ``grow(n)`` extends both columns with zeros to cover ``n`` token
    IDs and returns them; the arrays are extended in place, so views
    handed out earlier stay valid (they are the same objects).
    """

    __slots__ = ("spam", "ham")

    def __init__(self, spam: array | None = None, ham: array | None = None) -> None:
        self.spam = spam if spam is not None else array(TOKEN_ID_TYPECODE)
        self.ham = ham if ham is not None else array(TOKEN_ID_TYPECODE)

    def grow(self, n: int) -> tuple[array, array]:
        grow = n - len(self.spam)
        if grow > 0:
            zeros = bytes(grow * self.spam.itemsize)
            self.spam.frombytes(zeros)
            self.ham.frombytes(zeros)
        return self.spam, self.ham


class NDMemoryCountColumns:
    """NumPy int64 spam/ham columns with geometric over-allocation.

    ``grow(n)`` returns length-``n`` views over capacity buffers that
    double when outgrown (the ND kernel's original strategy), so
    repeated single-token growth stays amortized O(1) instead of
    reallocating two vocab-sized arrays per new token.
    """

    __slots__ = ("_spam_buf", "_ham_buf", "_used")

    def __init__(self) -> None:
        import numpy as np

        self._spam_buf = np.zeros(0, dtype=np.int64)
        self._ham_buf = np.zeros(0, dtype=np.int64)
        self._used = 0

    @classmethod
    def adopt(cls, spam, ham) -> "NDMemoryCountColumns":
        """Wrap existing arrays (unpickling / ``copy()``), no copy."""
        columns = cls.__new__(cls)
        columns._spam_buf = spam
        columns._ham_buf = ham
        columns._used = spam.shape[0]
        return columns

    def grow(self, n: int):
        import numpy as np

        if self._spam_buf.shape[0] < n:
            capacity = max(n, 2 * self._spam_buf.shape[0], 256)
            spam_buf = np.zeros(capacity, dtype=np.int64)
            ham_buf = np.zeros(capacity, dtype=np.int64)
            used = self._used
            spam_buf[:used] = self._spam_buf[:used]
            ham_buf[:used] = self._ham_buf[:used]
            self._spam_buf = spam_buf
            self._ham_buf = ham_buf
        self._used = max(self._used, n)
        return self._spam_buf[:n], self._ham_buf[:n]


class MemoryBackend(StorageBackend):
    """Everything in RAM — the default and the determinism baseline."""

    name = "memory"

    def new_token_table(self) -> TokenTable:
        return TokenTable()

    def count_columns(self, kind: str):
        if kind == "nd":
            return NDMemoryCountColumns()
        return MemoryCountColumns()
