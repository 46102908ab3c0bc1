"""Batch-shape containers for the classifier's vectorized scoring paths.

* :class:`CsrMatrix` — a corpus of encoded messages as one contiguous
  ``(indices, indptr)`` pair, which
  :meth:`~repro.spambayes.classifier.Classifier.score_csr` scores
  without touching Python objects and a parallel fold sweep ships to
  its workers in one pickle;
* :class:`ScoringWorkspace` — the cached batch-shape state of one
  fixed evaluation batch (CSR encoding, unique IDs, local text ranks,
  scratch buffers) that
  :meth:`~repro.spambayes.classifier.Classifier.score_workspace` and
  :meth:`~repro.spambayes.classifier.Classifier.score_under_candidates`
  reuse across calls;
* :func:`create_classifier` — the engine-wide construction hook, which
  takes a root classifier's table and count columns from the active
  storage backend.

The scoring arithmetic itself lives in
:mod:`repro.spambayes.classifier`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.spambayes.classifier import _ID_DTYPE, Classifier, _csr_arrays
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TokenTable, build_text_ranks

__all__ = [
    "CsrMatrix",
    "NDClassifier",
    "ScoringWorkspace",
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
        return cls(*_csr_arrays(rows))

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


class ScoringWorkspace:
    """Reusable scoring-side state for one fixed evaluation batch.

    A streaming run scores the *same* held-out rows every tick against
    an evolving classifier, and a RONI trial re-scores its validation
    rows under every candidate.  Without a workspace each pass re-runs
    the batch-shape work — concatenating the rows into CSR form,
    gathering per-entry text ranks, allocating the reduceat/chi2
    scratch columns — even though none of it depends on the
    classifier's counts.  A workspace caches exactly that batch-shape
    state:

    * the CSR encoding of the rows, built once (rows are immutable
      encoded ID arrays, so it never goes stale);
    * the rows' sorted unique token IDs and the inverse index mapping
      each CSR entry to its unique slot;
    * workspace-local text ranks: the rank of each unique token's text
      among the workspace's own tokens.  Only tokens of one row are
      ever compared, so local ranks order them exactly as global ranks
      would — and since the table is append-only and the rows are
      fixed, they never go stale (new vocabulary elsewhere cannot
      reorder the workspace's tokens);
    * named scratch buffers, reallocated only when the requested shape
      changes.

    The cached state is a pure function of ``(rows, table)``, never of
    any classifier's counts — so one workspace is safely shared by
    several classifiers over the same table (the stream runner points
    the main classifier and its clean twin at a single workspace).
    Everything is built lazily, on the first scoring call that needs it.
    """

    __slots__ = ("rows", "_csr", "_unique", "_ranks", "_ranks_cat", "_buffers")

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        self.rows = list(rows)
        self._csr: tuple | None = None
        self._unique: tuple | None = None
        self._ranks = None
        self._ranks_cat = None
        self._buffers: dict = {}

    def csr(self) -> tuple:
        """The rows as one ``(ids_cat, indptr)`` CSR pair, cached."""
        if self._csr is None:
            matrix = CsrMatrix.from_rows(self.rows)
            self._csr = (matrix.indices, matrix.indptr)
        return self._csr

    def unique(self) -> tuple:
        """``(unique_ids, inverse)``: sorted distinct IDs, and each CSR
        entry's slot in them (``unique_ids[inverse] == ids_cat``)."""
        if self._unique is None:
            ids_cat, _ = self.csr()
            unique_ids, inverse = np.unique(ids_cat, return_inverse=True)
            self._unique = (unique_ids, inverse.astype(_ID_DTYPE, copy=False))
        return self._unique

    def text_ranks(self, table: TokenTable) -> "np.ndarray":
        """Text rank of each unique token among the workspace's tokens.

        Python's ``sorted`` orders the decoded texts, so the ranks
        reproduce exactly the string comparisons the string path's
        sort makes between any two tokens of one row.
        """
        if self._ranks is None:
            unique_ids, _ = self.unique()
            ranks = build_text_ranks(table.decode(unique_ids.tolist()))
            self._ranks = np.frombuffer(ranks, dtype=_ID_DTYPE)
        return self._ranks

    def ranks_cat(self, table: TokenTable) -> "np.ndarray":
        """Per-entry text ranks for the CSR entries, cached.

        The tie-break key the lexsort needs, gathered once: workspace-
        local ranks order each row's tokens exactly as the table-wide
        ranks would, and unlike those they never change.
        """
        if self._ranks_cat is None:
            _, inverse = self.unique()
            self._ranks_cat = self.text_ranks(table)[inverse]
        return self._ranks_cat

    def buffer(self, name: str, size: int, dtype) -> "np.ndarray":
        """A named scratch array of exactly ``size``, reused per shape.

        Contents are undefined on return — callers overwrite every
        element they read (the kernel fills or assigns before use), so
        reuse can never leak one call's values into the next.
        """
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] != size:
            buf = np.empty(size, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScoringWorkspace(rows={len(self.rows)})"
