"""The corpus container and construction hook of the scoring engine.

* :class:`CsrMatrix` — a corpus of encoded messages as one contiguous
  ``(indices, indptr)`` pair, which a parallel fold sweep ships to its
  workers in one pickle;
* :func:`create_classifier` — the engine-wide construction hook, which
  takes a root classifier's table and count columns from the active
  storage backend.

The scoring arithmetic, and the
:class:`~repro.spambayes.classifier.ScoringWorkspace` every ID-scoring
call goes through, live in :mod:`repro.spambayes.classifier`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.spambayes.classifier import _ID_DTYPE, Classifier, _csr_arrays
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable

__all__ = [
    "CsrMatrix",
    "NDClassifier",
    "create_classifier",
    "kernel_name",
]

# Kept because e2ebench/launch.py and e2ebench/serve_session.py import it.
NDClassifier = Classifier


def kernel_name() -> str:
    """The scoring kernel's name, reported by the serve ``stats`` verb.

    There is one kernel; the constant stays because e2ebench/run.py
    records it in every run's host key.
    """
    return "nd"


def create_classifier(
    options: ClassifierOptions = DEFAULT_OPTIONS,
    table: TokenTable | None = None,
    columns=None,
) -> Classifier:
    """Build a classifier (the engine-wide construction hook).

    Every engine path builds its classifiers here, so the active
    storage backend (``REPRO_STORE``) decides where a *root*
    classifier's state lives: when no ``table`` is shared in, both the
    token table and the count columns come from that backend.
    Classifiers built over an existing table keep in-memory columns
    unless the caller passes a store explicitly (derived classifiers —
    RONI candidates, clean twins, fold copies — are ephemeral, so
    spilling them buys nothing).
    """
    if table is None:
        from repro import storage

        backend = storage.active_backend()
        table = backend.new_token_table()
        if columns is None:
            columns = backend.count_columns()
    return Classifier(options, table=table, columns=columns)


class CsrMatrix:
    """A corpus of encoded messages as one contiguous CSR pair.

    ``indices`` concatenates every message's sorted token-ID array;
    ``indptr[i]:indptr[i+1]`` delimits message ``i``.  Rows come back
    as zero-copy views, so a dataset's whole evaluation side lives in
    two buffers — which is also how a parallel fold sweep ships its
    inbox to workers: by value, two arrays in one pickle.
    """

    __slots__ = ("indices", "indptr")

    def __init__(self, indices: "np.ndarray", indptr: "np.ndarray") -> None:
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] < 1:
            raise ConfigurationError("CsrMatrix needs 1-D indices and indptr")
        self.indices = np.ascontiguousarray(indices, dtype=_ID_DTYPE)
        self.indptr = np.ascontiguousarray(indptr, dtype=_ID_DTYPE)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "CsrMatrix":
        return cls(*_csr_arrays(list(rows)))

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def row(self, i: int) -> "np.ndarray":
        """Zero-copy view of message ``i``'s sorted token IDs."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def rows(self) -> Iterable["np.ndarray"]:
        return (self.row(i) for i in range(len(self)))

    def nbytes(self) -> int:
        return int(self.indices.nbytes + self.indptr.nbytes)

    def __getstate__(self) -> tuple:
        return (self.indices, self.indptr)

    def __setstate__(self, state: tuple) -> None:
        self.indices, self.indptr = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CsrMatrix(messages={len(self)}, nnz={self.indices.shape[0]})"
