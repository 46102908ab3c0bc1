"""Vectorized NumPy scoring core, bit-exact against the pure kernel.

:class:`NDClassifier` keeps the :class:`Classifier` contract — same
API, same floats, same exceptions — but moves the hot state onto
contiguous NumPy arrays:

* the per-token count columns become int64 ``ndarray`` columns with
  geometric over-allocation (so per-message interning stays amortized
  O(1), like ``array.frombytes`` was);
* the bulk paths keep their own significance memo, a pair of arrays —
  ``prob[id]`` (float64 token score) plus ``known[id]`` (bool
  validity) — that any count change marks stale and the next scoring
  call refills in one vectorized pass;
* ``score_many_ids`` becomes gather → log-prob accumulate → chi2
  survival over a whole batch, with no per-message Python loop.

Bit-exactness is a hard requirement (the differential suite asserts
``==`` on floats), and every vectorized expression is chosen so each
message sees the identical IEEE-754 operation sequence the pure core
executes:

* elementwise ``+ - * /`` between float64 arrays and Python scalars
  are the same correctly-rounded IEEE ops CPython performs (counts are
  far below 2**53, so int64→float64 conversion is exact);
* the combiner's sequential product with frexp renormalization is run
  column-by-column over a dense padded matrix.  Padding slots hold
  exactly ``1.0`` (in *both* the ``p`` and the ``1-p`` matrix — never
  ``1-1``), so a padded multiply is an exact no-op, and the invariant
  "post-step mantissa >= 1e-200" guarantees padding never triggers a
  spurious renormalization;
* transcendentals go through :func:`math.log` / :func:`math.exp` via
  ``np.frompyfunc`` — NumPy's SIMD ``np.log``/``np.exp`` may differ
  from libm in the last ulp, and only O(messages) calls are needed, so
  the exact scalar routines cost nothing;
* the ``(-strength, token text)`` tie-break is reproduced with text
  ranks computed by Python's own ``sorted`` — table-wide
  (:meth:`TokenTable.text_order_ranks`) or local to a
  :class:`ScoringWorkspace` — under one ``np.lexsort`` or a fused
  ``(row << 32) | ordinal`` key.

:meth:`NDClassifier.score_under_candidates` is the RONI gate's batched
form: the validation scores under every candidate of a batch, in one
vectorized pass per chunk of candidates, without mutating a count.

Snapshot/restore, training validation and the string path's memo are
inherited from :class:`Classifier`.  The pure-Python kernel stays the
differential oracle; kernel selection is explicit via
:func:`create_classifier` and the ``REPRO_KERNEL`` environment
variable (``nd`` | ``python`` | ``auto``).
"""

from __future__ import annotations

import math
import os
from array import array
from typing import Iterable, Sequence

try:  # pragma: no cover - exercised via the availability gates
    import numpy as np
except ImportError:  # pragma: no cover - numpy is in the baked image
    np = None  # type: ignore[assignment]

from repro.errors import ConfigurationError, TrainingError
from repro.spambayes.classifier import _MISSING, Classifier
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TOKEN_ID_TYPECODE, TokenTable, build_text_ranks
from repro.spambayes.wordinfo import WordInfo

__all__ = [
    "CsrMatrix",
    "NDClassifier",
    "ScoringWorkspace",
    "available",
    "classifier_class",
    "create_classifier",
    "kernel_name",
]

KERNEL_ENV = "REPRO_KERNEL"
"""Environment variable selecting the scoring kernel (nd/python/auto)."""

_LN2 = math.log(2.0)
_RENORM_THRESHOLD = 1e-200  # matches chi2.ln_product
_EXP_UNDERFLOW_LIMIT = 708.0  # matches chi2._EXP_UNDERFLOW_LIMIT
# (candidate, workspace entry) pairs NDClassifier.score_under_candidates
# expands at once; tracemalloc puts a chunk's peak at ~55 B per pair
# (3.4 MB for the tests/test_roni_batched.py fixture).  Smaller chunks
# pay each chunk's nonzero, key sort and chi-square tail too often.
_CANDIDATE_ENTRY_BUDGET = 1 << 16

if np is not None:
    _ID_DTYPE = np.dtype(np.int64)
    # array('l') shares int64's layout on every platform we run on;
    # np.frombuffer then gives zero-copy views of encoded messages.
    _FAST_ARRAY_VIEW = array(TOKEN_ID_TYPECODE).itemsize == _ID_DTYPE.itemsize
    # Exact scalar transcendentals, vectorized at the Python level.
    # Only O(messages) elements pass through these per batch.
    _exact_log_u = np.frompyfunc(math.log, 1, 1)
    _exact_exp_u = np.frompyfunc(math.exp, 1, 1)


def available() -> bool:
    """True when the NumPy kernel can run in this interpreter."""
    return np is not None


def kernel_name() -> str:
    """Resolve the active kernel name from ``REPRO_KERNEL``.

    ``auto`` (or unset) picks ``nd`` when NumPy imports and ``python``
    otherwise; explicit ``nd`` with no NumPy is a configuration error
    rather than a silent downgrade.
    """
    value = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if value == "auto":
        return "nd" if available() else "python"
    if value not in ("nd", "python"):
        raise ConfigurationError(
            f"{KERNEL_ENV} must be 'nd', 'python' or 'auto', got {value!r}"
        )
    if value == "nd" and not available():
        raise ConfigurationError(
            f"{KERNEL_ENV}=nd requested but numpy is not importable"
        )
    return value


def classifier_class() -> type[Classifier]:
    """The classifier class the active kernel maps to."""
    return NDClassifier if kernel_name() == "nd" else Classifier


def create_classifier(
    options: ClassifierOptions = DEFAULT_OPTIONS,
    table: TokenTable | None = None,
    columns=None,
) -> Classifier:
    """Build a classifier on the active kernel (the engine-wide hook).

    Every engine path that previously constructed ``Classifier(...)``
    directly goes through here, so one environment variable flips the
    whole system between the vectorized kernel and the pure oracle —
    and a second one (``REPRO_STORE``) decides where a *root*
    classifier's state lives: when no ``table`` is shared in, both the
    token table and the count columns come from the active storage
    backend.  Classifiers built over an existing table keep in-memory
    columns unless the caller passes a store explicitly (derived
    classifiers — RONI candidates, clean twins, fold copies — are
    ephemeral, so spilling them buys nothing).
    """
    cls = classifier_class()
    if table is None:
        from repro import storage

        backend = storage.active_backend()
        table = backend.new_token_table()
        if columns is None:
            columns = backend.count_columns("nd" if cls is NDClassifier else "pure")
    return cls(options, table=table, columns=columns)


def _as_id_index(ids: Sequence[int]) -> "np.ndarray":
    """An int64 index view/copy of one encoded message."""
    if type(ids) is array and _FAST_ARRAY_VIEW:
        return np.frombuffer(ids, dtype=_ID_DTYPE)
    if isinstance(ids, np.ndarray):
        return np.ascontiguousarray(ids, dtype=_ID_DTYPE)
    return np.asarray(ids, dtype=_ID_DTYPE)


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
        views = [_as_id_index(ids) for ids in rows]
        lengths = np.fromiter(
            (view.shape[0] for view in views), dtype=_ID_DTYPE, count=len(views)
        )
        indptr = np.zeros(len(views) + 1, dtype=_ID_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        if views:
            indices = np.concatenate(views)
        else:
            indices = np.zeros(0, dtype=_ID_DTYPE)
        return cls(indices, indptr)

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
    Construction is NumPy-free; only the accessor methods (called from
    the ND kernel) touch arrays, so the pure kernel's fallback path can
    still carry a workspace around.
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
        reproduce exactly the string comparisons the pure combiner
        makes between any two tokens of one row.
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


class NDClassifier(Classifier):
    """:class:`Classifier` with NumPy columns and a vectorized combiner.

    Behaviourally identical to the pure core — same scores bit-for-bit,
    same errors, same snapshot/memo semantics — which the differential
    suite (``tests/test_ndkernel_differential.py``) enforces with exact
    float equality.
    """

    def __init__(
        self,
        options: ClassifierOptions = DEFAULT_OPTIONS,
        table: TokenTable | None = None,
        columns=None,
    ) -> None:
        if np is None:  # pragma: no cover - numpy is in the baked image
            raise ConfigurationError("NDClassifier requires numpy")
        if columns is None:
            from repro.storage.memory import NDMemoryCountColumns

            columns = NDMemoryCountColumns()
        super().__init__(options, table=table, columns=columns)
        self._nd_reset()

    def __init_subclass__(cls, **kwargs) -> None:
        # The vectorized paths compute f(w) with _nd_probs_of, never
        # through the scalar hook, so a subclass formula would apply to
        # some scores and not others.
        super().__init_subclass__(**kwargs)
        if cls._prob_for_id is not NDClassifier._prob_for_id:
            raise TypeError(
                f"{cls.__name__}: NDClassifier subclasses cannot override _prob_for_id; "
                "subclass Classifier for a different per-token formula"
            )

    def _nd_reset(self) -> None:
        # The ND significance memo: prob[id] is valid iff known[id],
        # and the whole memo only while _nd_tag equals the classifier's
        # _generation (any count change marks it stale).
        self._nd_prob: "np.ndarray | None" = None
        self._nd_known: "np.ndarray | None" = None
        self._nd_tag: int | None = None
        # Cached per-vocabulary significance ordinal: the rank of each
        # token under the combiner's (-strength, text) sort order.
        # Valid only while no memoized prob has changed.
        self._nd_order: "np.ndarray | None" = None
        # Vocabulary IDs in text order (argsort of the table's rank
        # array) — a pure function of the append-only table, so its
        # length is a complete cache key and training never dirties it.
        self._nd_text_order: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    def _ensure_columns(self) -> None:
        # Slots past any previous view are untouched zeros in the
        # store's capacity buffers, so growing the view is the same as
        # array.frombytes(zeros) was.
        n = len(self._table)
        if self._spam.shape[0] < n:
            self._spam, self._ham = self._columns.grow(n)

    def word_info(self, token: str) -> WordInfo | None:
        info = super().word_info(token)
        if info is None:
            return None
        # Plain ints: word_info records flow into JSON dumps.
        return WordInfo(int(info.spamcount), int(info.hamcount))

    # ------------------------------------------------------------------
    # Memo bookkeeping
    # ------------------------------------------------------------------

    def _nd_sync(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The ND memo arrays, sized to the table and current.

        A memo built before the latest count change is stale as a
        whole: every entry is marked unknown in place (keeping the
        allocation), and the next scoring call refills it in one
        vectorized pass.  Columns must already be ensured.
        """
        n = len(self._table)
        known = self._nd_known
        if known is None or known.shape[0] < n:
            capacity = max(n, 256) if known is None else max(n, 2 * known.shape[0])
            grown_known = np.zeros(capacity, dtype=bool)
            grown_prob = np.zeros(capacity, dtype=np.float64)
            if known is not None:
                grown_known[: known.shape[0]] = known
                grown_prob[: known.shape[0]] = self._nd_prob
            self._nd_known = known = grown_known
            self._nd_prob = grown_prob
        if self._nd_tag != self._generation:
            known.fill(False)
            self._nd_tag = self._generation
            self._nd_order = None
        return known, self._nd_prob

    # ------------------------------------------------------------------
    # Training (vectorized column updates, same bookkeeping)
    # ------------------------------------------------------------------

    def _apply_delta(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        self._ensure_columns()
        spam_col = self._spam
        ham_col = self._ham
        col, other = (spam_col, ham_col) if is_spam else (ham_col, spam_col)
        idx = _as_id_index(ids)
        if idx.size:
            self._active += int(np.count_nonzero((col[idx] == 0) & (other[idx] == 0)))
            col[idx] += count
        self._note_mutation(ids)

    def _check_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        col = self._spam if is_spam else self._ham
        idx = _as_id_index(ids)
        if not idx.size:
            return
        in_bounds = idx < col.shape[0]
        current = np.zeros(idx.shape[0], dtype=_ID_DTYPE)
        if in_bounds.any():
            current[in_bounds] = col[idx[in_bounds]]
        bad = current < count
        if bad.any():
            token = self._table.token(int(idx[int(np.argmax(bad))]))
            raise TrainingError(
                f"unlearn would drive count of token {token!r} negative; "
                "message was not learned with this label"
            )

    def _apply_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        spam_col = self._spam
        ham_col = self._ham
        col, other = (spam_col, ham_col) if is_spam else (ham_col, spam_col)
        idx = _as_id_index(ids)
        if idx.size:
            col[idx] -= count
            self._active -= int(np.count_nonzero((col[idx] == 0) & (other[idx] == 0)))
        self._note_mutation(ids)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _prob_for_id(self, token_id: int) -> float:
        # Same formula, forced to a plain float so string-path memo
        # entries and evidence records carry native floats (float() of
        # a float64 is the identity on the bits).
        return float(super()._prob_for_id(token_id))

    def _fill_memo(self, memo: list, ids: Iterable[int]) -> None:
        """The string path's memo fill in one vectorized pass.

        Every ``_MISSING`` entry among ``ids`` gets its prob from a
        single :meth:`_nd_probs_for` call.  Those floats are bit-identical
        to :meth:`_prob_for_id` (see :meth:`_nd_probs_of`), and the
        strength test and negation are exact, so each memo tuple is the
        one the lazy fill would write.
        """
        need = {tid for tid in ids if memo[tid] is _MISSING}
        if not need:
            return
        need_idx = np.fromiter(need, dtype=_ID_DTYPE, count=len(need))
        probs = self._nd_probs_for(need_idx)
        strength = np.abs(probs - 0.5)
        significant = strength >= self.options.minimum_prob_strength
        for tid in need_idx[~significant].tolist():
            memo[tid] = None
        sig_ids = need_idx[significant].tolist()
        for tid, text, neg_strength, prob in zip(
            sig_ids,
            self._table.decode(sig_ids),
            (-strength[significant]).tolist(),
            probs[significant].tolist(),
        ):
            memo[tid] = (neg_strength, text, prob)

    def _nd_probs_for(self, need: "np.ndarray") -> "np.ndarray":
        """f(w) of Equation 2 for a batch of token IDs, bit-exact."""
        return self._nd_probs_of(self._spam[need], self._ham[need], self._nspam, self._nham)

    def _nd_probs_of(
        self, spamcount: "np.ndarray", hamcount: "np.ndarray", nspam: int, nham: int
    ) -> "np.ndarray":
        """f(w) over parallel count arrays (gathered or sliced), bit-exact.

        Every elementwise expression matches ``_prob_for_id``'s scalar
        arithmetic: int64→float64 conversions are exact (counts are
        tiny against 2**53) and each ``+ - * /`` is the identical
        correctly-rounded IEEE operation.  The formula is elementwise,
        so feeding it contiguous column *slices* (the every-entry-
        missing refresh after a count change) computes the same floats
        as gathering the IDs one by one.  The global message counts
        are parameters, so a caller can evaluate the probabilities a
        state it has not trained into would have (the RONI kernel's
        "candidate learned" columns) without touching ``_nspam``/``_nham``.
        """
        opts = self.options
        unknown = opts.unknown_word_prob
        s = opts.unknown_word_strength
        size = spamcount.shape[0]
        n = spamcount + hamcount
        if nspam == 0 and nham == 0:
            ps = np.full(size, unknown, dtype=np.float64)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                spam_ratio = (
                    spamcount / nspam
                    if nspam
                    else np.zeros(size, dtype=np.float64)
                )
                ham_ratio = (
                    hamcount / nham
                    if nham
                    else np.zeros(size, dtype=np.float64)
                )
                denominator = spam_ratio + ham_ratio
                ps = np.full(size, unknown, dtype=np.float64)
                np.divide(spam_ratio, denominator, out=ps, where=denominator != 0.0)
        # Zero-count tokens keep ``unknown`` without dividing: at
        # unknown_word_strength 0 their quotient would be 0/0.
        prob = np.full(size, unknown, dtype=np.float64)
        np.divide(s * unknown + n * ps, s + n, out=prob, where=n != 0)
        return prob

    def _nd_build_order(self, table_len: int) -> "np.ndarray":
        """Per-vocabulary ordinal under the (-strength, text) order.

        ``ordinal[tid] < ordinal[other]`` exactly when the pure kernel
        would sort ``tid``'s memo tuple first: the primary key compares
        the same ``-|prob - 0.5|`` float64 values, and text rank breaks
        exact ties (including -0.0 vs 0.0, which IEEE comparison — and
        hence any sort — treats as equal), just as tuple comparison
        falls through to the token string.  Instead of a two-key
        lexsort, IDs are pre-permuted into text order (cached: the
        table is append-only, so length is a complete key) and a single
        *stable* argsort on strength then resolves ties by text rank
        for free.  Every prob must already be memoized for
        ``[0, table_len)``.
        """
        text_order = self._nd_text_order
        if text_order is None or text_order.shape[0] != table_len:
            ranks = np.frombuffer(self._table.text_order_ranks(), dtype=_ID_DTYPE)
            text_order = self._nd_text_order = np.argsort(ranks[:table_len])
        strength = np.abs(self._nd_prob[:table_len] - 0.5)
        order = text_order[
            np.argsort(-strength[text_order], kind="stable")
        ]
        ordinal = np.empty(table_len, dtype=_ID_DTYPE)
        ordinal[order] = np.arange(table_len, dtype=_ID_DTYPE)
        return ordinal

    def score_many_ids(self, id_arrays: Iterable[Sequence[int]]) -> list[float]:
        self._ensure_columns()
        self._nd_sync()
        batch = CsrMatrix.from_rows(id_arrays)
        return self._score_segments(batch.indices, batch.indptr)

    def score_csr(self, corpus: CsrMatrix, rows: Sequence[int] | None = None) -> list[float]:
        """Bulk-score messages straight off a CSR corpus.

        ``rows`` selects a message subset (fold stripes); ``None``
        scores the whole corpus.  Scores are exactly what per-message
        :meth:`score_ids` returns for the same rows.
        """
        self._ensure_columns()
        self._nd_sync()
        indices = corpus.indices
        indptr = corpus.indptr
        if rows is not None:
            row_index = np.asarray(rows, dtype=_ID_DTYPE)
            starts = indptr[row_index]
            lengths = indptr[row_index + 1] - starts
            sub_indptr = np.zeros(row_index.shape[0] + 1, dtype=_ID_DTYPE)
            np.cumsum(lengths, out=sub_indptr[1:])
            total = int(sub_indptr[-1])
            gather = np.repeat(starts - sub_indptr[:-1], lengths) + np.arange(
                total, dtype=_ID_DTYPE
            )
            indices = indices[gather]
            indptr = sub_indptr
        return self._score_segments(indices, indptr)

    def score_workspace(self, workspace: ScoringWorkspace) -> list[float]:
        """Bulk-score a workspace's fixed rows, reusing its cached state.

        Same floats as ``score_many_ids(workspace.rows)`` — the CSR
        encoding, rank gather and scratch buffers come from the
        workspace instead of being rebuilt, but every arithmetic
        operation on them is identical.
        """
        self._ensure_columns()
        self._nd_sync()
        ids_cat, indptr = workspace.csr()
        return self._score_segments(ids_cat, indptr, workspace=workspace)

    def score_under_candidates(
        self, workspace: ScoringWorkspace, candidates: Sequence[tuple[Sequence[int], bool]]
    ) -> list[list[float]]:
        """:meth:`Classifier.score_under_candidates` without mutation.

        Learning one candidate changes a validation token's probability
        in only one of four ways: ham- or spam-labelled candidate, token
        in the candidate or not.  So the four probability columns over
        the workspace's unique tokens — base and +1 counts, under
        ``nspam + 1`` and under ``nham + 1`` — hold every probability
        any candidate can produce, computed by the same elementwise
        formula the memo refresh uses.  Each (candidate, entry) pair
        picks its column through a candidate-membership mask; one
        ``(-strength, text)`` ordinal over the 4 × |unique| variants
        orders every row with a single int64 key; the shared combiner
        tail does the rest.  Candidates go through in chunks of at most
        :data:`_CANDIDATE_ENTRY_BUDGET` (candidate, entry) pairs, so
        memory stays bounded whatever the batch size.
        """
        candidates = candidates if isinstance(candidates, (list, tuple)) else list(candidates)
        ids_cat, indptr = workspace.csr()
        n_rows = indptr.shape[0] - 1
        nnz = ids_cat.shape[0]
        if nnz == 0:
            return [[0.5] * n_rows for _ in candidates]
        self._ensure_columns()
        unique_ids, inverse = workspace.unique()
        n_unique = unique_ids.shape[0]
        spam_u = self._spam[unique_ids]
        ham_u = self._ham[unique_ids]
        nspam, nham = self._nspam, self._nham
        # Variant v of unique token u sits at v * n_unique + u: 0/1 =
        # ham-labelled candidate without/with u, 2/3 = spam-labelled.
        probs = np.concatenate((
            self._nd_probs_of(spam_u, ham_u, nspam, nham + 1),
            self._nd_probs_of(spam_u, ham_u + 1, nspam, nham + 1),
            self._nd_probs_of(spam_u, ham_u, nspam + 1, nham),
            self._nd_probs_of(spam_u + 1, ham_u, nspam + 1, nham),
        ))
        strength = np.abs(probs - 0.5)
        significant = strength >= self.options.minimum_prob_strength
        # Variants of one token never meet in one row, so ranking all
        # 4 × |unique| of them once gives every row's order.
        order = np.lexsort((np.tile(workspace.text_ranks(self._table), 4), -strength))
        ordinal = np.empty(4 * n_unique, dtype=_ID_DTYPE)
        ordinal[order] = np.arange(4 * n_unique, dtype=_ID_DTYPE)
        significant_entry = significant.reshape(4, n_unique)[:, inverse]
        entry_row = np.repeat(np.arange(n_rows, dtype=_ID_DTYPE), np.diff(indptr))
        chunk = max(1, _CANDIDATE_ENTRY_BUDGET // nnz)
        results: list[list[float]] = []
        for start in range(0, len(candidates), chunk):
            batch = candidates[start : start + chunk]
            n_batch = len(batch)
            member = np.zeros((n_batch, n_unique), dtype=bool)
            for k, (ids, _) in enumerate(batch):
                # One candidate at a time: a dictionary-attack candidate
                # is thousands of IDs, and its temporaries stay its own.
                view = _as_id_index(ids)
                slot = np.minimum(np.searchsorted(unique_ids, view), n_unique - 1)
                member[k, slot[unique_ids[slot] == view]] = True
            # Pair (k, p) — candidate k, workspace entry p — flattened
            # candidate-major, so each (candidate, row) run is contiguous
            # and in row order.  Significance is settled on bools; only
            # significant pairs get an int64 variant index into probs.
            # Spent intermediates are dropped at once: peak memory is
            # what the entry budget bounds.
            member = member[:, inverse]
            label = np.array([2 if is_spam else 0 for _, is_spam in batch], dtype=_ID_DTYPE)
            cand, entry = np.nonzero(
                np.where(member, significant_entry[label + 1], significant_entry[label])
            )
            variant = member[cand, entry] * n_unique
            del member
            variant += (label * n_unique)[cand]
            variant += inverse[entry]
            key = cand
            key *= n_rows
            key += entry_row[entry]
            del entry
            counts = np.bincount(key, minlength=n_batch * n_rows)
            key <<= 32
            key |= ordinal[variant]
            del variant
            # Keys are unique, so sorting them in place is the argsort
            # order; ``order`` maps each sorted ordinal to its variant.
            key.sort()
            key &= 0xFFFFFFFF
            prob_sorted = probs[order[key]]
            del key
            scores = self._combine_sorted(counts, prob_sorted)
            del prob_sorted
            results.extend(
                scores[k * n_rows : (k + 1) * n_rows] for k in range(n_batch)
            )
        return results

    def _score_segments(
        self,
        ids_cat: "np.ndarray",
        indptr: "np.ndarray",
        workspace: ScoringWorkspace | None = None,
    ) -> list[float]:
        """The vectorized Fisher/chi2 combiner over CSR segments.

        One IEEE-identical pass for the whole batch: token-prob gather,
        significance filter, the ``(-strength, text)`` lexsort with
        per-row truncation, the interleaved mantissa/exponent product,
        and the even-dof chi-square survival series.  ``workspace``
        supplies preallocated scratch columns and the cached text-rank
        gather; it changes where intermediates live, never their bits.
        """
        n_msgs = indptr.shape[0] - 1
        if n_msgs == 0:
            return []
        if ids_cat.shape[0] == 0:
            return [0.5] * n_msgs
        opts = self.options
        known, prob_col = self._nd_known, self._nd_prob
        # Backfill the prob memo for every not-yet-known vocabulary ID
        # in one vectorized sweep.  Scanning the whole known[] column is
        # O(vocab) with a trivial constant — far cheaper than hashing
        # the batch's token stream for its unique IDs — and computing a
        # prob for an ID the batch never references is harmless: the
        # formula is elementwise, so every entry is the same float the
        # scalar path would produce on demand.
        table_len = len(self._table)
        missing = np.flatnonzero(~known[:table_len])
        if missing.size == table_len:
            # Nothing memoized (the steady state after a count change):
            # refresh straight off the contiguous count columns instead
            # of gathering through an arange-equivalent index — same
            # elementwise floats, no fancy-index copies.
            prob_col[:table_len] = self._nd_probs_of(
                self._spam[:table_len], self._ham[:table_len], self._nspam, self._nham
            )
            known[:table_len] = True
        elif missing.size:
            prob_col[missing] = self._nd_probs_for(missing)
            known[missing] = True
        if workspace is not None:
            token_prob = np.take(
                prob_col, ids_cat, out=workspace.buffer("token_prob", ids_cat.shape[0], np.float64)
            )
            strength = np.subtract(
                token_prob, 0.5, out=workspace.buffer("strength", ids_cat.shape[0], np.float64)
            )
            np.abs(strength, out=strength)
        else:
            token_prob = prob_col[ids_cat]
            strength = np.abs(token_prob - 0.5)
        sig_idx = np.flatnonzero(strength >= opts.minimum_prob_strength)
        if sig_idx.shape[0] == 0:
            return [0.5] * n_msgs
        # Row of each significant entry, straight from the CSR indptr:
        # entry position p lives in the row r with indptr[r] <= p <
        # indptr[r+1] (empty rows collapse their indptr span, so they
        # can never be selected).
        row_of = np.searchsorted(indptr, sig_idx, side="right") - 1
        sig_prob = token_prob[sig_idx]
        sig_ids = ids_cat[sig_idx]
        # Row-major, then strength descending, then token text — the
        # exact tuple order the pure kernel's scored.sort() produces
        # (tokens are unique per message, so this is a total order and
        # sort stability never decides anything).  Both strength and
        # text are functions of the token alone, so the two trailing
        # keys collapse into a per-vocabulary ordinal; with it, the
        # whole order is one unique int64 key per entry and a plain
        # argsort replaces a 3-key lexsort.  The ordinal costs a
        # vocabulary-sized sort to (re)build, so small batches (RONI
        # probes) skip it and lexsort their few entries directly.
        order_col = self._nd_order
        if order_col is not None and order_col.shape[0] < table_len:
            order_col = self._nd_order = None
        if order_col is None and sig_ids.shape[0] >= table_len // 2:
            order_col = self._nd_order = self._nd_build_order(table_len)
        if order_col is not None:
            order = np.argsort((row_of << 32) | order_col[sig_ids])
        elif workspace is not None:
            # The workspace holds the whole-batch gather of its local
            # text ranks, which order each row's tokens exactly as the
            # table-wide ranks would — so the tie-break key is a subset
            # view, and no vocabulary-wide rank rebuild is needed.
            order = np.lexsort(
                (workspace.ranks_cat(self._table)[sig_idx], -strength[sig_idx], row_of)
            )
        else:
            ranks = np.frombuffer(self._table.text_order_ranks(), dtype=_ID_DTYPE)
            order = np.lexsort((ranks[sig_ids], -strength[sig_idx], row_of))
        counts = np.bincount(row_of, minlength=n_msgs)
        return self._combine_sorted(counts, sig_prob[order], workspace)

    def _combine_sorted(
        self,
        counts: "np.ndarray",
        prob_sorted: "np.ndarray",
        workspace: ScoringWorkspace | None = None,
    ) -> list[float]:
        """The shared combiner tail: sorted significant probs → scores.

        ``prob_sorted`` holds every significant entry of ``len(counts)``
        messages, row by row (``counts[r]`` entries for row ``r``), each
        row in the pure kernel's ``(-strength, text)`` order.  Per-row
        truncation to ``max_discriminators``, the interleaved
        mantissa/exponent product and the chi-square survival run
        here — the one copy of the combiner every vectorized scoring
        path feeds (:meth:`_score_segments` and
        :meth:`score_under_candidates`).  ``workspace`` only supplies
        scratch columns.
        """
        opts = self.options
        n_msgs = counts.shape[0]
        if workspace is not None:
            row_starts = workspace.buffer("row_starts", n_msgs + 1, np.int64)
            kept_starts = workspace.buffer("kept_starts", n_msgs + 1, np.int64)
            row_starts[0] = 0
            kept_starts[0] = 0
        else:
            row_starts = np.zeros(n_msgs + 1, dtype=np.int64)
            kept_starts = np.zeros(n_msgs + 1, dtype=np.int64)
        np.cumsum(counts, out=row_starts[1:])
        degrees = np.minimum(counts, opts.max_discriminators)
        np.cumsum(degrees, out=kept_starts[1:])
        # Each message keeps the first ``degrees[r]`` of its contiguous
        # sorted run: gather those positions directly instead of
        # ranking every entry and boolean-filtering the batch.
        kept_idx = np.repeat(row_starts[:-1] - kept_starts[:-1], degrees) + np.arange(
            int(kept_starts[-1]), dtype=np.int64
        )
        kept_probs = prob_sorted[kept_idx]
        # The pure combiner raises on p <= 0 or 1-p <= 0 at the first
        # offending element in (message, discriminator-rank) order —
        # which is exactly the kept order here.
        out_of_range = (kept_probs <= 0.0) | (kept_probs >= 1.0)
        if out_of_range.any():
            value = float(kept_probs[int(np.argmax(out_of_range))])
            offender = value if value <= 0.0 else 1.0 - value
            raise ValueError(f"ln_product requires positive values, got {offender}")
        # Row-major kept segments: kept entries are already ordered by
        # (message, discriminator rank), so each message's factors are
        # one contiguous slice and its mantissa product is a single
        # sequential ``multiply.reduceat`` — NumPy reduces multiply
        # strictly left-to-right, so every intermediate float is the
        # scalar loop's.  Every factor lies in (0, 1): the running
        # product decreases monotonically, the final value is its own
        # minimum, and a final product at or above the renormalization
        # threshold proves the scalar loop would never have
        # renormalized.  Only rows landing below the threshold re-run
        # through the pure combiner's exact mantissa/exponent loop.
        q_kept = 1.0 - kept_probs
        if workspace is not None:
            mant_spam = workspace.buffer("mant_spam", n_msgs, np.float64)
            exp_spam = workspace.buffer("exp_spam", n_msgs, np.int64)
            mant_ham = workspace.buffer("mant_ham", n_msgs, np.float64)
            exp_ham = workspace.buffer("exp_ham", n_msgs, np.int64)
            mant_spam.fill(1.0)
            exp_spam.fill(0)
            mant_ham.fill(1.0)
            exp_ham.fill(0)
        else:
            mant_spam = np.ones(n_msgs)
            exp_spam = np.zeros(n_msgs, dtype=np.int64)
            mant_ham = np.ones(n_msgs)
            exp_ham = np.zeros(n_msgs, dtype=np.int64)
        nonzero = np.flatnonzero(degrees)
        if nonzero.size:
            starts = kept_starts[nonzero]
            mant_spam[nonzero] = np.multiply.reduceat(kept_probs, starts)
            mant_ham[nonzero] = np.multiply.reduceat(q_kept, starts)
        frexp = math.frexp
        for mant_col, exp_col, factors in (
            (mant_spam, exp_spam, kept_probs),
            (mant_ham, exp_ham, q_kept),
        ):
            for row in np.flatnonzero(mant_col < _RENORM_THRESHOLD).tolist():
                mant, exp = 1.0, 0
                for value in factors[
                    kept_starts[row] : kept_starts[row + 1]
                ].tolist():
                    mant *= value
                    if mant < _RENORM_THRESHOLD:
                        mant, shift = frexp(mant)
                        exp += shift
                mant_col[row] = mant
                exp_col[row] = exp
        x2_spam = -2.0 * (_exact_log_u(mant_spam).astype(np.float64) + exp_spam * _LN2)
        x2_ham = -2.0 * (_exact_log_u(mant_ham).astype(np.float64) + exp_ham * _LN2)
        # One stacked survival call: rows are independent, and fusing
        # the spam and ham sides halves the bucketing overhead.
        if workspace is not None:
            x2_cat = workspace.buffer("x2_cat", 2 * n_msgs, np.float64)
            deg_cat = workspace.buffer("deg_cat", 2 * n_msgs, np.int64)
            x2_cat[:n_msgs] = x2_spam
            x2_cat[n_msgs:] = x2_ham
            deg_cat[:n_msgs] = degrees
            deg_cat[n_msgs:] = degrees
        else:
            x2_cat = np.concatenate((x2_spam, x2_ham))
            deg_cat = np.concatenate((degrees, degrees))
        evidence = _chi2_survival(x2_cat, deg_cat)
        return ((1.0 + evidence[:n_msgs] - evidence[n_msgs:]) / 2.0).tolist()

    # ------------------------------------------------------------------
    # Copy / pickle
    # ------------------------------------------------------------------

    def copy(self) -> "NDClassifier":
        clone = self.__class__(self.options, table=self._table)
        clone._nspam = self._nspam
        clone._nham = self._nham
        clone._spam = self._spam.copy()
        clone._ham = self._ham.copy()
        clone._adopt_columns()
        clone._active = self._active
        return clone

    def _adopt_columns(self) -> None:
        from repro.storage.memory import NDMemoryCountColumns

        self._columns = NDMemoryCountColumns.adopt(self._spam, self._ham)

    def _export_column(self, column):
        # ND pickles ship the ndarray itself (mmap-backed views pickle
        # by value like any other ndarray), preserving the historical
        # payload format.
        return column

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._spam = np.ascontiguousarray(self._spam, dtype=_ID_DTYPE)
        self._ham = np.ascontiguousarray(self._ham, dtype=_ID_DTYPE)
        self._adopt_columns()
        self._nd_reset()


def _chi2_survival(x2: "np.ndarray", degrees: "np.ndarray") -> "np.ndarray":
    """Vectorized even-dof chi-square survival, matching the pure series.

    ``degrees[i]`` is message ``i``'s significant-prob count (any
    order).  The scalar series is ``term = exp(-half); total = term;
    then d-1 times: term *= half/i; total += term`` — a sequential
    multiply chain and a sequential add chain, reproduced exactly by
    ``multiply.accumulate`` and ``cumsum`` along each row of a
    (messages × steps) factor matrix: NumPy accumulates strictly left
    to right, so every intermediate float is the scalar loop's.
    Columns beyond a row's own degree compute junk terms that cost
    arithmetic but never reach its gathered entry (and stay finite:
    each term is a Poisson pmf value, bounded by 1).  The final
    ``where`` reproduces the scalar early-outs exactly: ``x2 <= 0`` →
    1.0, ``half > 708`` → 0.0, else ``min(total, 1.0)``.  Callers may
    stack independent batches (the combiner fuses its spam and ham
    sides) — rows never interact.
    """
    half = x2 / 2.0
    # exp(-half) with half >= -0.0 never overflows; for half > 708 it
    # underflows to the same 0.0 the skipped scalar branch pins.
    term0 = _exact_exp_u(-half).astype(np.float64)
    total = term0.copy()
    max_degrees = int(degrees.max()) if degrees.size else 0
    if max_degrees > 1:
        # Row degrees are heavily skewed (medians run ~1/3 of the max),
        # so one batch-wide matrix would spend most of its arithmetic
        # on columns past each row's own degree.  Bucket rows by degree
        # instead — descending, splitting at successive halvings of the
        # width — so every row lands in a matrix at most twice as wide
        # as its own series, keeping total work near sum(degrees) with
        # only O(log max) vectorized rounds.
        multi = np.flatnonzero(degrees > 1)
        order = multi[np.argsort(-degrees[multi])]
        d_desc = degrees[order]
        lo = 0
        width = max_degrees
        while lo < order.size:
            next_width = width // 2
            # Below a small width the per-round overhead outweighs the
            # junk-column savings: fold the whole tail into one bucket.
            hi = (
                int(np.searchsorted(-d_desc, -next_width, side="left"))
                if next_width > 8
                else int(order.size)
            )
            rows = order[lo:hi]
            if rows.size:
                factors = np.empty((rows.shape[0], width), dtype=np.float64)
                factors[:, 0] = term0[rows]
                np.divide(
                    half[rows, None],
                    np.arange(1.0, width, dtype=np.float64)[None, :],
                    out=factors[:, 1:],
                )
                np.multiply.accumulate(factors, axis=1, out=factors)
                np.cumsum(factors, axis=1, out=factors)
                total[rows] = factors[
                    np.arange(rows.shape[0]), degrees[rows] - 1
                ]
            lo = hi
            width = next_width
    return np.where(
        x2 <= 0.0,
        1.0,
        np.where(half > _EXP_UNDERFLOW_LIMIT, 0.0, np.minimum(total, 1.0)),
    )
