"""The in-memory storage backend: the reproduction's historical state.

:class:`MemoryCountColumns` holds the classifier's count columns as
NumPy int64 buffers with geometric over-allocation; pickle payloads
ship the ``ndarray`` columns themselves.

Its token tables keep no message rows: a message encoded against one
holds its own row (:meth:`~repro.spambayes.token_table.TokenTable.
keep_row`).
"""

from __future__ import annotations

from repro.spambayes.token_table import TokenTable
from repro.storage.base import StorageBackend

__all__ = ["MemoryBackend", "MemoryCountColumns"]


class MemoryCountColumns:
    """NumPy int64 spam/ham columns with geometric over-allocation.

    ``grow(n)`` returns length-``n`` views over capacity buffers that
    double when outgrown, so repeated single-token growth stays
    amortized O(1) instead of reallocating two vocab-sized arrays per
    new token.
    """

    __slots__ = ("_spam_buf", "_ham_buf", "_used")

    def __init__(self) -> None:
        import numpy as np

        self._spam_buf = np.zeros(0, dtype=np.int64)
        self._ham_buf = np.zeros(0, dtype=np.int64)
        self._used = 0

    @classmethod
    def adopt(cls, spam, ham) -> "MemoryCountColumns":
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

    def count_columns(self) -> MemoryCountColumns:
        return MemoryCountColumns()
