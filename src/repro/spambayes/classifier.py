"""The SpamBayes learner: Robinson scores + Fisher's chi-square method.

This is the algorithm of Section 2.3 of the paper, the component every
attack in Sections 3-4 manipulates.

Training statistics
    For each token ``w`` the classifier tracks ``NS(w)`` / ``NH(w)``
    (spam / ham training messages containing ``w``) alongside the global
    ``NS`` / ``NH`` message counts.

Token score (Equations 1-2)
    The raw score ``PS(w) = NH*NS(w) / (NH*NS(w) + NS*NH(w))`` is the
    class-size-normalized probability that a message containing ``w``
    is spam.  It is smoothed toward the prior ``x`` with strength ``s``:
    ``f(w) = (s*x + N(w)*PS(w)) / (s + N(w))``.

Message score (Equations 3-4)
    The most significant tokens δ(E) (at most 150, each with
    ``|f - 0.5| >= 0.1``) are combined with Fisher's method into
    ``I(E) = (1 + H(E) - S(E)) / 2``, a score in ``[0, 1]`` where 0 is
    maximally hammy and 1 maximally spammy.

Storage: the interned token-ID core
    Tokens are interned through a shared, append-only
    :class:`~repro.spambayes.token_table.TokenTable` (``str <-> int``),
    and the per-token statistics live in two parallel int64 NumPy
    columns (``spamcount[id]``, ``hamcount[id]``) handed out by a
    count-column store from :mod:`repro.storage`.  The string-facing
    *training* API (:meth:`learn`, ...) interns at the boundary;
    *scoring* never interns — unseen tokens contribute the prior
    without growing the shared table.  The ``*_ids`` twins accept
    pre-encoded ID arrays (see
    :meth:`~repro.corpus.dataset.LabeledMessage.token_ids`) so a
    message is encoded once and reused across every fold, attack batch
    and worker.  Counts and scores are bit-exact against the paper's
    formulas written out as a test-local oracle
    (``tests/spambayes_spec.py``), which ``tests/test_spec_oracle.py``
    holds the classifier to over random options and histories.

Both :meth:`Classifier.learn` and :meth:`Classifier.unlearn_repeated` are
incremental, which the experiment harness leans on heavily: a fold's
clean model is trained once and attack batches are layered on top, and
the RONI defense scores candidate messages as if trained.

Snapshot / restore (:meth:`Classifier.snapshot`,
:meth:`Classifier.restore`)
    A checkpoint of the training state: ``snapshot()`` copies the two
    count columns (as bytes) plus the global counts, and ``restore()``
    writes them back and zeroes every ID interned since.  Counts are
    integers, so the round-trip is bit-exact.  This is what lets the
    sweep engine keep ONE shared clean model per inbox and derive every
    fold's classifier from it — unlearn the held-out stripe, layer
    attack batches, score, restore — instead of retraining K times per
    attack variant.  One snapshot may be active at a time; restoring
    deactivates it.

Scoring
    The string path (:meth:`Classifier.score`,
    :meth:`Classifier.score_many`) keeps a flat significance memo
    (indexed by token ID), fills the batch's missing entries in one
    vectorized pass, sorts each message's significant entries and
    combines them with Fisher's method (:mod:`repro.spambayes.chi2`).
    A memo entry is a pure function of its token's counts and of
    ``(nspam, nham)``, so a training call evicts only the IDs it
    touched while ``(nspam, nham)`` returns to the memo's tag; any
    other change rebuilds the memo.

    The ID paths (:meth:`Classifier.score_many_ids`,
    :meth:`Classifier.score_workspace`) keep no memo.  Each call
    scores one :class:`ScoringWorkspace` — transient for
    ``score_many_ids``, kept by callers that rescore fixed rows — as
    f(w) over the batch's distinct IDs → one ``(-strength, text)``
    order over those IDs → in-place sort of fused ``(row << 32) |
    ordinal`` keys → log-prob accumulate → chi2 survival, with no
    per-message Python loop and no vocabulary-sized pass.
    :meth:`Classifier.score_under_candidates` is the RONI gate's
    batched form: the validation scores under every candidate of a
    batch, without mutating a count, ordered by the same primitive.

Bit-exactness is a hard requirement (the oracle tests assert ``==`` on
floats), and every vectorized expression is chosen so each message
sees the IEEE-754 operation sequence the formulas' scalar reading
executes:

* elementwise ``+ - * /`` between float64 arrays and Python scalars
  are the same correctly-rounded IEEE ops CPython performs (counts are
  far below 2**53, so int64→float64 conversion is exact);
* the combiner's sequential product is one left-to-right
  ``multiply.reduceat`` per row; only rows whose product falls below
  the frexp renormalization threshold re-run the scalar loop of
  :func:`repro.spambayes.chi2.ln_product`, and the chi-square series
  runs column by column over rows sorted by degree;
* transcendentals go through :func:`math.log` / :func:`math.exp`
  mapped over a list into ``np.fromiter`` — NumPy's SIMD
  ``np.log``/``np.exp`` may differ from libm in the last ulp, and only
  O(messages) calls are needed, so the exact scalar routines cost
  nothing;
* the ``(-strength, token text)`` tie-break is reproduced with the
  table-wide text ranks Python's own ``sorted`` computes
  (:meth:`TokenTable.text_order_ranks`), gathered at the batch's
  distinct IDs and cached on the workspace: a stable argsort on
  strength over the IDs in text order breaks ties by text.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, repeat
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.spambayes.chi2 import fisher_combine
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TOKEN_ID_TYPECODE, TokenTable
from repro.spambayes.wordinfo import WordInfo

__all__ = ["Classifier", "ClassifierSnapshot", "ScoringWorkspace", "TokenScore"]

# Memo sentinel for "never computed" (None means "computed, not
# significant", so the string path can drop insignificant entries with
# a C-level filter(None, ...)).
_MISSING = object()

_LN2 = math.log(2.0)
_RENORM_THRESHOLD = 1e-200  # matches chi2.ln_product
_EXP_UNDERFLOW_LIMIT = 708.0  # matches chi2._EXP_UNDERFLOW_LIMIT
# (candidate, workspace entry) pairs Classifier.score_under_candidates
# expands at once; tracemalloc puts a chunk's peak at ~55 B per pair
# (3.4 MB for the tests/test_roni_batched.py fixture).  Smaller chunks
# pay each chunk's nonzero, key sort and Fisher products too often.
# Classifier.learn_groups joins at most this many row entries per
# bincount.
_CANDIDATE_ENTRY_BUDGET = 1 << 16

_ID_DTYPE = np.dtype(np.int64)
# array('l') shares int64's layout on every platform we run on;
# np.frombuffer then gives zero-copy views of encoded messages.
_FAST_ARRAY_VIEW = array(TOKEN_ID_TYPECODE).itemsize == _ID_DTYPE.itemsize


class TokenScore(NamedTuple):
    """One token's contribution to a message score (evidence record)."""

    token: str
    spam_prob: float


class ClassifierSnapshot:
    """Opaque checkpoint of a :class:`Classifier`.

    Created by :meth:`Classifier.snapshot`; consumed (once) by
    :meth:`Classifier.restore`.  Holds byte copies of the two count
    columns plus the global message counts and the vocabulary size.
    """

    __slots__ = ("owner", "nspam", "nham", "vocabulary_size", "spam", "ham", "active")

    def __init__(self, owner: "Classifier") -> None:
        self.owner = owner
        self.nspam = owner._nspam
        self.nham = owner._nham
        self.vocabulary_size = owner._active
        self.spam = bytes(owner._spam)
        self.ham = bytes(owner._ham)
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else "restored"
        return f"ClassifierSnapshot({state}, columns={len(self.spam)} bytes)"


def _restore_column(column, saved: bytes) -> None:
    """Write ``saved`` over the start of ``column`` and zero the rest.

    Works on any writable contiguous buffer as one byte copy.  The
    views are released before returning.
    """
    with memoryview(column) as raw, raw.cast("B") as view:
        kept = len(saved)
        view[:kept] = saved
        view[kept:] = bytes(len(view) - kept)


def _checked_groups(groups: Iterable) -> list:
    """``groups`` as a list, once every count is known to be >= 0."""
    groups = list(groups)
    for _, _, count in groups:
        if count < 0:
            raise TrainingError(f"learn_repeated needs count >= 0, got {count}")
    return groups


def _exact(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (:func:`math.log` or :func:`math.exp`) over ``values``.

    The same C-library call per element the scalar formulas make,
    without an object array; only O(messages) elements pass through per
    batch.
    """
    flat = map(fn, values.ravel().tolist())
    return np.fromiter(flat, np.float64, values.size).reshape(values.shape)


def _as_id_index(ids: Sequence[int]) -> np.ndarray:
    """An int64 index view/copy of one encoded message."""
    if type(ids) is array and _FAST_ARRAY_VIEW:
        return np.frombuffer(ids, dtype=_ID_DTYPE)
    if isinstance(ids, np.ndarray):
        return np.ascontiguousarray(ids, dtype=_ID_DTYPE)
    return np.asarray(ids, dtype=_ID_DTYPE)


def _concat_rows(rows: list) -> np.ndarray:
    """Encoded messages joined into one int64 ID array."""
    if _FAST_ARRAY_VIEW and all(type(ids) is array for ids in rows):
        return np.frombuffer(b"".join(rows), dtype=_ID_DTYPE)
    return np.concatenate([_as_id_index(ids) for ids in rows])


def _csr_arrays(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Encoded messages as one ``(indices, indptr)`` CSR pair."""
    indptr = np.zeros(len(rows) + 1, dtype=_ID_DTYPE)
    np.cumsum(np.fromiter(map(len, rows), dtype=_ID_DTYPE, count=len(rows)), out=indptr[1:])
    if rows:
        return _concat_rows(rows), indptr
    return np.zeros(0, dtype=_ID_DTYPE), indptr


def _label_delta(groups: list, is_spam: bool, n: int) -> tuple[np.ndarray | None, int]:
    """One label's per-ID count sum over ``groups``, and its message total.

    Single-copy rows, the bulk of any training set, are counted with
    one unweighted ``np.bincount`` per chunk of at most
    :data:`_CANDIDATE_ENTRY_BUDGET` joined entries (rows are
    duplicate-free, so each row adds 1 per ID); repeated groups
    (attack copies) add their count to their own IDs.  The sum is
    None when the label has no message.
    """
    delta = None
    total = 0
    chunk: list = []
    entries = 0
    repeated = []
    for ids, label, count in groups:
        if bool(label) is not is_spam or count <= 0:
            continue
        total += count
        if count > 1:
            repeated.append((ids, count))
            continue
        if chunk and entries + len(ids) > _CANDIDATE_ENTRY_BUDGET:
            delta = _add_bincount(delta, chunk, n)
            chunk, entries = [], 0
        chunk.append(ids)
        entries += len(ids)
    if chunk:
        delta = _add_bincount(delta, chunk, n)
    if total and delta is None:
        delta = np.zeros(n, dtype=_ID_DTYPE)
    for ids, count in repeated:
        delta[_as_id_index(ids)] += count
    return delta, total


def _add_bincount(delta: np.ndarray | None, rows: list, n: int) -> np.ndarray:
    counts = np.bincount(_concat_rows(rows), minlength=n)
    if delta is None:
        return counts
    delta += counts
    return delta


def _rank_significant(
    strength: np.ndarray, significant: np.ndarray, text_order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The significant slots in ``(-strength, text)`` order, and each
    one's rank in it.

    ``text_order`` lists every slot in token-text order.  One *stable*
    argsort on ``-strength`` over the significant slots taken in that
    order breaks exact strength ties (including -0.0 vs 0.0, which IEEE
    comparison treats as equal) by text, just as the string path's
    tuple comparison falls through to the token.  ``ranked[r]`` is the
    slot of rank ``r``; ``ordinal`` is its inverse over the
    significant slots (zero elsewhere, never read).
    """
    ranked = text_order[significant[text_order]]
    ranked = ranked[np.argsort(-strength[ranked], kind="stable")]
    ordinal = np.zeros(strength.shape[0], dtype=_ID_DTYPE)
    ordinal[ranked] = np.arange(ranked.shape[0], dtype=_ID_DTYPE)
    return ranked, ordinal


def _sorted_probs(
    row_key: np.ndarray, ordinals: np.ndarray, ranked: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """``probs`` of significant entries, row by row, strongest first.

    Entry ``e`` belongs to row ``row_key[e]`` and holds the slot of
    rank ``ordinals[e]`` (see :func:`_rank_significant`).  Tokens are
    unique per row, so the fused ``(row << 32) | ordinal`` keys are
    unique and sorting them in place is the argsort order; the low
    half of each sorted key maps back through ``ranked`` to its slot.
    ``row_key`` is consumed.
    """
    key = row_key
    key <<= 32
    key |= ordinals
    key.sort()
    key &= 0xFFFFFFFF
    return probs[ranked[key]]


class ScoringWorkspace:
    """Reusable batch-shape state of one evaluation batch.

    Every ID-scoring call scores through a workspace.
    :meth:`Classifier.score_many_ids` builds a transient one; callers
    that score the *same* rows again and again — a fold's held-out
    stripe after every contamination step, a stream's test set every
    tick, a RONI trial's validation rows under every candidate — keep
    one and pass it to :meth:`Classifier.score_workspace` or
    :meth:`Classifier.score_under_candidates`, so the batch-shape work
    runs once instead of per call:

    * the CSR encoding of the rows (rows are immutable encoded ID
      arrays, so it never goes stale);
    * the rows' sorted distinct token IDs and the inverse index
      mapping each CSR entry to its distinct slot;
    * the distinct slots in token-text order: the table-wide
      :meth:`TokenTable.text_order_ranks` gathered at the distinct IDs.
      The table is append-only, so later growth cannot reorder tokens
      already in it and the order never goes stale;
    * named scratch buffers, reallocated only when the requested shape
      changes.

    The cached state is a pure function of ``(rows, table)``, never of
    any classifier's counts — so one workspace is safely shared by
    several classifiers over the same table (the stream runner points
    the main classifier and its clean twin at a single workspace).
    Everything is built lazily, on the first scoring call that needs it.
    """

    __slots__ = ("rows", "_csr", "_unique", "_text_order", "_buffers")

    def __init__(self, rows: Iterable[Sequence[int]]) -> None:
        self.rows = list(rows)
        self._csr: tuple | None = None
        self._unique: tuple | None = None
        self._text_order: np.ndarray | None = None
        self._buffers: dict = {}

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as one ``(ids_cat, indptr)`` CSR pair, cached."""
        if self._csr is None:
            self._csr = _csr_arrays(self.rows)
        return self._csr

    def unique(self) -> tuple[np.ndarray, np.ndarray]:
        """``(unique_ids, inverse)``: sorted distinct IDs, and each CSR
        entry's slot in them (``unique_ids[inverse] == ids_cat``)."""
        if self._unique is None:
            # IDs are dense table indices, so marking them in an
            # ID-indexed mask finds the distinct ones without sorting
            # the batch's entries.
            ids_cat, _ = self.csr()
            size = int(ids_cat.max()) + 1 if ids_cat.shape[0] else 0
            present = np.zeros(size, dtype=bool)
            present[ids_cat] = True
            unique_ids = np.flatnonzero(present)
            slot = np.empty(size, dtype=_ID_DTYPE)
            slot[unique_ids] = np.arange(unique_ids.shape[0], dtype=_ID_DTYPE)
            self._unique = (unique_ids, slot[ids_cat])
        return self._unique

    def text_order(self, table: TokenTable) -> np.ndarray:
        """The distinct slots sorted by token text, cached.

        Python's ``sorted`` built the table's ranks, so this order is
        exactly the string comparisons the string path's sort makes
        between any two tokens of one row.
        """
        if self._text_order is None:
            unique_ids, _ = self.unique()
            ranks = np.frombuffer(table.text_order_ranks(), dtype=_ID_DTYPE)
            self._text_order = np.argsort(ranks[unique_ids])
        return self._text_order

    def buffer(self, name: str, size: int, dtype) -> np.ndarray:
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


class Classifier:
    """Incremental SpamBayes token classifier over an interned ID core.

    The classifier works on *token streams*; pair it with a
    :class:`~repro.spambayes.tokenizer.Tokenizer` (or use the
    :class:`~repro.spambayes.filter.SpamFilter` facade) to classify
    :class:`~repro.spambayes.message.Email` objects.

    Token presence is what counts: duplicate tokens within one message
    are collapsed before the statistics are updated or scored.

    ``table`` is the interning :class:`TokenTable`; pass the corpus'
    shared table so pre-encoded ID arrays (``LabeledMessage.token_ids``)
    index directly into this classifier's count columns.  Omitted, the
    classifier owns a private table.  Tables are append-only, so
    sharing one between classifiers (or with a dataset encoder) is
    always safe — IDs never shift.
    """

    def __init__(
        self,
        options: ClassifierOptions = DEFAULT_OPTIONS,
        table: TokenTable | None = None,
        columns=None,
    ) -> None:
        self.options = options
        self._table = table if table is not None else TokenTable()
        # ``columns`` is a count-column store from the storage layer
        # (``repro.storage``).  Derived classifiers (copies, unpickles,
        # bulk loads) always get in-memory columns — only explicitly
        # wired classifiers (``create_classifier`` under
        # REPRO_STORE=disk) spill counts.
        if columns is None:
            from repro.storage.memory import MemoryCountColumns

            columns = MemoryCountColumns()
        self._columns = columns
        self._spam, self._ham = columns.grow(0)
        self._nspam = 0
        self._nham = 0
        self._active = 0  # IDs with spamcount + hamcount > 0
        # The string path's flat significance memo, indexed by token
        # ID.  Entries: _MISSING = not yet computed, tuple (-strength,
        # token, prob) = significant, None = computed and not
        # significant.  An entry is a pure function of
        # (spamcount[id], hamcount[id], nspam, nham), so the memo
        # carries the (nspam, nham) pair it was built under (_memo_tag)
        # plus the IDs touched by mutations since (_dirty): at the next
        # scoring call, if the global pair matches the tag again, only
        # the dirty IDs are evicted.  A tag mismatch (or an oversized
        # dirty list) rebuilds from scratch.
        self._memo: list | None = None
        self._memo_tag: tuple[int, int] | None = None
        self._dirty: list[int] = []
        self._snapshot: ClassifierSnapshot | None = None

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------

    @property
    def nspam(self) -> int:
        """NS: number of spam messages trained."""
        return self._nspam

    @property
    def nham(self) -> int:
        """NH: number of ham messages trained."""
        return self._nham

    @property
    def table(self) -> TokenTable:
        """The interning table this classifier's columns are indexed by."""
        return self._table

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct tokens with non-zero training counts."""
        return self._active

    def word_info(self, token: str) -> WordInfo | None:
        """Return a (spamcount, hamcount) record for ``token``, if any.

        The record is a *view copy* of the count columns — mutating it
        does not change the classifier.  Counts are plain ints: the
        records flow into JSON dumps.
        """
        tid = self._table.id_of(token)
        if tid is None or tid >= self._spam.shape[0]:
            return None
        spamcount = int(self._spam[tid])
        hamcount = int(self._ham[tid])
        if spamcount == 0 and hamcount == 0:
            return None
        return WordInfo(spamcount, hamcount)

    def iter_vocabulary(self) -> Iterable[str]:
        """Every token with a non-zero count, in token-ID order."""
        live = np.flatnonzero(self._spam | self._ham)
        yield from self._table.decode(live.tolist())

    # ------------------------------------------------------------------
    # Column and memo plumbing
    # ------------------------------------------------------------------

    def _ensure_columns(self) -> None:
        """Grow the count columns to cover every interned ID.

        Slots past any previous view are untouched zeros in the
        store's capacity buffers, so growing the view zero-fills.
        """
        n = len(self._table)
        if self._spam.shape[0] < n:
            self._spam, self._ham = self._columns.grow(n)

    def _memo_list(self) -> list:
        """The string path's significance memo, validated and sized.

        Reconciles pending mutations: when the global (nspam, nham)
        pair equals the pair the memo was built under, every entry for
        an untouched ID is still exact — evict only the dirty IDs.
        Otherwise start a fresh memo.
        """
        memo = self._memo
        n = len(self._table)
        # The tag is checked even with nothing dirty: a mutation with an
        # empty token set still moves (nspam, nham), which every
        # memoized probability depends on.
        if memo is not None and (self._nspam, self._nham) != self._memo_tag:
            memo = None
        if memo is None:
            memo = self._memo = [_MISSING] * n
            self._memo_tag = (self._nspam, self._nham)
            self._dirty.clear()
            return memo
        dirty = self._dirty
        if dirty:
            limit = len(memo)
            for tid in set(dirty):
                if tid < limit:
                    memo[tid] = _MISSING
            dirty.clear()
        if len(memo) < n:
            memo.extend([_MISSING] * (n - len(memo)))
        return memo

    def _note_mutation(self, ids: Iterable[int]) -> None:
        """Record a training mutation touching ``ids``.

        The string memo survives with the touched IDs queued for lazy,
        targeted eviction (see :meth:`_memo_list`), unless the dirty
        backlog grows past the point where a rebuild is cheaper.
        """
        if self._memo is None:
            return
        dirty = self._dirty
        dirty.extend(ids)
        if len(dirty) > 1024 and len(dirty) * 4 > len(self._memo):
            self._memo = None
            dirty.clear()

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn(self, tokens: Iterable[str], is_spam: bool) -> None:
        """Add one training message (given as its token stream).

        Duplicate tokens are collapsed; every distinct token's class
        count is incremented along with the global message count.
        Interning goes through :meth:`TokenTable.encode_unique`, so new
        tokens get IDs in sorted text order — the table layout never
        depends on set iteration order (``PYTHONHASHSEED``).
        """
        ids = self._table.encode_unique(tokens)
        if is_spam:
            self._nspam += 1
        else:
            self._nham += 1
        self._apply_delta(ids, is_spam, 1)

    def learn_ids(self, ids: Sequence[int], is_spam: bool) -> None:
        """:meth:`learn` for a pre-encoded message.

        ``ids`` must be duplicate-free token IDs from this classifier's
        :attr:`table` — exactly what ``table.encode_unique`` or
        ``LabeledMessage.token_ids`` produce.
        """
        if is_spam:
            self._nspam += 1
        else:
            self._nham += 1
        self._apply_delta(ids, is_spam, 1)

    def learn_many(self, token_sets: Iterable[Iterable[str]], is_spam: bool) -> int:
        """Learn a batch of messages with a single label; returns count."""
        learned = 0
        for tokens in token_sets:
            self.learn(tokens, is_spam)
            learned += 1
        return learned

    def learn_repeated(self, tokens: Iterable[str], is_spam: bool, count: int) -> None:
        """Learn ``count`` identical copies of one message in one pass.

        Dictionary attacks inject thousands of messages sharing one huge
        token set; folding the repetition into a single sweep over the
        tokens turns an O(count * |tokens|) update into O(|tokens|).
        The resulting state is exactly what ``count`` calls to
        :meth:`learn` would produce.
        """
        self.learn_ids_repeated(self._table.encode_unique(tokens), is_spam, count)

    def learn_ids_repeated(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """:meth:`learn_repeated` for a pre-encoded message."""
        if count < 0:
            raise TrainingError(f"learn_repeated needs count >= 0, got {count}")
        if count == 0:
            return
        if is_spam:
            self._nspam += count
        else:
            self._nham += count
        self._apply_delta(ids, is_spam, count)

    def unlearn_repeated(self, tokens: Iterable[str], is_spam: bool, count: int) -> None:
        """Reverse :meth:`learn_repeated` with the same arguments.

        Raises :class:`TrainingError` if these copies cannot have been
        learned with these tokens/label (a count would go negative) —
        silently clamping would corrupt every future score.  The check
        is performed *before* any count is touched, so a failed unlearn
        leaves the classifier unchanged.
        """
        self.unlearn_ids_repeated(self._table.encode_unique(tokens), is_spam, count)

    def unlearn_ids_repeated(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """:meth:`unlearn_repeated` for a pre-encoded message."""
        if count < 0:
            raise TrainingError(f"unlearn_repeated needs count >= 0, got {count}")
        if count == 0:
            return
        if is_spam and self._nspam < count:
            raise TrainingError(f"unlearn_repeated(spam, {count}) with only {self._nspam} trained")
        if not is_spam and self._nham < count:
            raise TrainingError(f"unlearn_repeated(ham, {count}) with only {self._nham} trained")
        self._check_removal(ids, is_spam, count)
        if is_spam:
            self._nspam -= count
        else:
            self._nham -= count
        self._apply_removal(ids, is_spam, count)

    def learn_groups(self, groups: Iterable[tuple[Sequence[int], bool, int]]) -> None:
        """Learn a set of message groups in one call.

        ``groups`` holds ``(ids, is_spam, count)`` triples — ``count``
        copies of one pre-encoded message, as
        :func:`~repro.corpus.dataset.group_token_ids` returns them.
        The state afterwards is exactly what one
        :meth:`learn_ids_repeated` call per group would leave: counts
        are integers, so adding each label's summed per-ID counts (see
        :func:`_label_delta`) in one vectorized pass per label is the
        same, with one memo invalidation for the call.  Every count is
        checked before any is applied.
        """
        groups = _checked_groups(groups)
        self._shift_groups(self._group_deltas(groups), 1)

    def unlearn_groups(self, groups: Iterable[tuple[Sequence[int], bool, int]]) -> None:
        """Reverse :meth:`learn_groups` with the same groups.

        The summed removals are checked against the counts first; only
        when some count would go negative does the per-group replay
        (:meth:`_check_group_removal`) run, to raise the error the
        first failing :meth:`unlearn_ids_repeated` call of a per-group
        loop would raise.  A failed call leaves the classifier
        unchanged.
        """
        groups = list(groups)
        deltas = self._group_deltas(groups)
        (spam_delta, nspam), (ham_delta, nham) = deltas
        n = len(self._table)
        if (
            any(count < 0 for _, _, count in groups)
            or nspam > self._nspam
            or nham > self._nham
            or (spam_delta is not None and bool((self._spam[:n] < spam_delta).any()))
            or (ham_delta is not None and bool((self._ham[:n] < ham_delta).any()))
        ):
            self._check_group_removal(groups)
        self._shift_groups(deltas, -1)

    def _check_group_removal(self, groups: list) -> None:
        """Raise what a per-group :meth:`unlearn_ids_repeated` loop
        would raise first, without touching a count.

        Replays the loop's checks against the counts the earlier
        groups would have removed (IDs are unique within a group, so
        each ID is checked against the removals of earlier groups
        only).
        """
        trained = {True: self._nspam, False: self._nham}
        removed: dict[tuple[bool, int], int] = {}
        for ids, is_spam, count in groups:
            if count < 0:
                raise TrainingError(f"unlearn_repeated needs count >= 0, got {count}")
            if count == 0:
                continue
            label = bool(is_spam)
            if trained[label] < count:
                raise TrainingError(
                    f"unlearn_repeated({'spam' if label else 'ham'}, {count}) "
                    f"with only {trained[label]} trained"
                )
            trained[label] -= count
            col = self._spam if label else self._ham
            limit = len(col)
            for tid in ids:
                key = (label, tid)
                taken = removed.get(key, 0)
                if (col[tid] if tid < limit else 0) - taken < count:
                    raise self._negative_count_error(tid)
                removed[key] = taken + count

    def _negative_count_error(self, tid: int) -> TrainingError:
        return TrainingError(
            f"unlearn would drive count of token {self._table.token(tid)!r} negative; "
            "message was not learned with this label"
        )

    def _group_deltas(self, groups: list) -> list:
        """``[(spam sum, spam total), (ham sum, ham total)]`` over the
        table, columns grown to cover it (see :func:`_label_delta`)."""
        self._ensure_columns()
        n = len(self._table)
        return [_label_delta(groups, label, n) for label in (True, False)]

    def _shift_groups(self, deltas: list, sign: int) -> None:
        """Add (``sign`` 1) or subtract (-1) per-label count sums."""
        (spam_delta, nspam), (ham_delta, nham) = deltas
        if not (nspam or nham):
            return
        n = len(self._table)
        changed = np.zeros(n, dtype=bool)
        for delta in (spam_delta, ham_delta):
            if delta is not None:
                changed |= delta != 0
        touched = np.flatnonzero(changed)
        live_before = np.count_nonzero(self._spam[touched] | self._ham[touched])
        for col, delta in ((self._spam, spam_delta), (self._ham, ham_delta)):
            if delta is not None:
                view = col[:n]
                if sign > 0:
                    view += delta
                else:
                    view -= delta
        self._nspam += sign * nspam
        self._nham += sign * nham
        live_after = np.count_nonzero(self._spam[touched] | self._ham[touched])
        self._active += int(live_after - live_before)
        self._note_mutation(touched)

    def _apply_delta(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Add ``count`` to one class column for every ID (no checks)."""
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
        """Raise if any ID's class count would go negative (pre-mutation)."""
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
            raise self._negative_count_error(int(idx[int(np.argmax(bad))]))

    def _apply_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Subtract ``count`` from one class column (caller validated)."""
        spam_col = self._spam
        ham_col = self._ham
        col, other = (spam_col, ham_col) if is_spam else (ham_col, spam_col)
        idx = _as_id_index(ids)
        if idx.size:
            col[idx] -= count
            self._active -= int(np.count_nonzero((col[idx] == 0) & (other[idx] == 0)))
        self._note_mutation(ids)

    @classmethod
    def from_token_counts(
        cls,
        counts: Iterable[tuple[str, int, int]],
        *,
        nspam: int,
        nham: int,
        options: ClassifierOptions = DEFAULT_OPTIONS,
        table: TokenTable | None = None,
    ) -> "Classifier":
        """Build a classifier from per-token ``(token, spamcount,
        hamcount)`` records plus the global message counts.

        This is the supported bulk-load path (persistence restores
        through it): tokens are interned in the order given, counts
        land in the columns, and the memo/active invariants hold
        afterwards — callers never need to poke ``_spam``/``_ham``
        directly.  Counts must be non-negative and each token may
        appear at most once.
        """
        if nspam < 0 or nham < 0:
            raise TrainingError(
                f"bulk load needs nspam/nham >= 0, got {nspam}/{nham}"
            )
        classifier = cls(options, table=table)
        intern = classifier._table.intern
        spam_pairs: list[tuple[int, int]] = []
        ham_pairs: list[tuple[int, int]] = []
        seen: set[int] = set()
        for token, spamcount, hamcount in counts:
            if spamcount < 0 or hamcount < 0:
                raise TrainingError(
                    f"bulk load needs counts >= 0, got {token!r}: "
                    f"({spamcount}, {hamcount})"
                )
            tid = intern(token)
            if tid in seen:
                raise TrainingError(f"bulk load saw token {token!r} twice")
            seen.add(tid)
            if spamcount:
                spam_pairs.append((tid, spamcount))
            if hamcount:
                ham_pairs.append((tid, hamcount))
        classifier._nspam = nspam
        classifier._nham = nham
        classifier._ensure_columns()
        for col, pairs in ((classifier._spam, spam_pairs), (classifier._ham, ham_pairs)):
            for tid, count in pairs:
                col[tid] = count
        classifier._active = int(np.count_nonzero(classifier._spam | classifier._ham))
        return classifier

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> ClassifierSnapshot:
        """Checkpoint the current training state.

        Copies both count columns (one byte copy each) and the global
        counts; training afterwards pays nothing extra.  Only one
        snapshot may be active at a time — no caller has wanted
        layered checkpoints.
        """
        if self._snapshot is not None:
            raise TrainingError("a snapshot is already active; restore it first")
        snap = self._snapshot = ClassifierSnapshot(self)
        return snap

    def restore(self, snap: ClassifierSnapshot) -> None:
        """Return to the exact state captured by :meth:`snapshot`.

        Counts are integers, so the round-trip is bit-exact: the
        restored classifier scores every message identically to the
        moment the snapshot was taken.  IDs interned after the snapshot
        restore to zero counts — the count they had before they
        existed.  The snapshot is single-use, and restoring voids the
        scoring memos.
        """
        if snap.owner is not self:
            raise TrainingError("snapshot belongs to a different classifier")
        if not snap.active or self._snapshot is not snap:
            raise TrainingError("snapshot is not active on this classifier")
        _restore_column(self._spam, snap.spam)
        _restore_column(self._ham, snap.ham)
        self._active = snap.vocabulary_size
        self._nspam = snap.nspam
        self._nham = snap.nham
        snap.active = False
        self._snapshot = None
        self._memo = None

    # ------------------------------------------------------------------
    # Token probabilities
    # ------------------------------------------------------------------

    def _probs_for(self, need: np.ndarray) -> np.ndarray:
        """f(w) of Equation 2 for a batch of token IDs, bit-exact."""
        return self._probs_of(self._spam[need], self._ham[need], self._nspam, self._nham)

    def _probs_of(
        self, spamcount: np.ndarray, hamcount: np.ndarray, nspam: int, nham: int
    ) -> np.ndarray:
        """f(w) over parallel count arrays (gathered or sliced), bit-exact.

        Every elementwise expression is the scalar formula's
        arithmetic: int64→float64 conversions are exact (counts are
        tiny against 2**53) and each ``+ - * /`` is the identical
        correctly-rounded IEEE operation.  The formula is elementwise,
        so any batch of IDs gets the floats each ID would get alone.
        The global message counts are parameters, so a caller can
        evaluate the probabilities a state it has not trained into
        would have (the RONI gate's "candidate learned" columns)
        without touching ``_nspam``/``_nham``.
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

    def spam_prob(self, token: str) -> float:
        """f(w) of Equation 2: smoothed token spam score in [0, 1].

        Scoring never interns: a token the table has not seen scores
        the prior without growing the (possibly shared) table, columns
        or memos — only training extends the vocabulary.
        """
        return self.spam_probs((token,))[0]

    def spam_probs(self, tokens: Sequence[str]) -> list[float]:
        """:meth:`spam_prob` for every token, from one vectorized f(w).

        The interned tokens' probabilities come from a single
        :meth:`_probs_for` call, as native floats; unseen tokens score
        the prior.  Like :meth:`spam_prob`, nothing is interned.
        """
        probs = [self.options.unknown_word_prob] * len(tokens)
        ids = self._table.lookup(tokens)
        seen = [i for i, tid in enumerate(ids) if tid is not None]
        if seen:
            self._ensure_columns()
            need = np.fromiter((ids[i] for i in seen), dtype=_ID_DTYPE, count=len(seen))
            for i, prob in zip(seen, self._probs_for(need).tolist()):
                probs[i] = prob
        return probs

    # ------------------------------------------------------------------
    # Scoring token streams
    # ------------------------------------------------------------------

    def _resolve(
        self, token_sets: Iterable[Iterable[str]]
    ) -> list[tuple[list[int], Sequence[str]]]:
        """Resolve each message in one :meth:`TokenTable.lookup` call.

        Returns, per message, its distinct interned IDs and the texts
        of its unseen tokens.  Scoring never interns, so unseen tokens
        stay out of the table.  Their texts are kept only when the
        prior is significant; otherwise they never enter δ(E).
        """
        lookup = self._table.lookup
        keep_unseen = self._unknown_entry() is not None
        encoded: list[tuple[list[int], Sequence[str]]] = []
        for tokens in token_sets:
            unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
            ids = lookup(unique)
            extras: Sequence[str] = ()
            if None in ids:
                if keep_unseen:
                    extras = list(compress(unique, map(is_, ids, repeat(None))))
                ids = [tid for tid in ids if tid is not None]
            encoded.append((ids, extras))
        return encoded

    def _fill_memo(self, memo: list, ids: Iterable[int]) -> None:
        """Compute every ``_MISSING`` memo entry among ``ids`` in one
        vectorized pass.

        The probs come from a single :meth:`_probs_for` call, and the
        strength test and negation are exact, so each memo tuple is the
        one :meth:`spam_prob` would write for its token.  Columns must
        already cover ``ids``.
        """
        need = {tid for tid in ids if memo[tid] is _MISSING}
        if not need:
            return
        need_idx = np.fromiter(need, dtype=_ID_DTYPE, count=len(need))
        probs = self._probs_for(need_idx)
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

    def _ranked(self, encoded: list[tuple[Sequence[int], Sequence[str]]]) -> Iterator[list]:
        """Each message's significant memo entries, strongest first.

        ``encoded`` is what :meth:`_resolve` returns, which keeps
        unseen texts only when the prior's entry is significant.
        The batch's IDs go to one :meth:`_fill_memo` call; then each
        unseen text adds the prior's entry.  Sorting the tuples
        *without* a key function orders by strength descending, then
        token text ascending (tokens are unique, so the prob element
        never participates in a comparison).
        """
        self._ensure_columns()
        memo = self._memo_list()
        self._fill_memo(memo, chain.from_iterable(ids for ids, _ in encoded))
        memo_get = memo.__getitem__
        unknown = self._unknown_entry()
        for ids, extras in encoded:
            scored = list(filter(None, map(memo_get, ids)))
            if extras:
                neg_strength, prob = unknown
                scored += [(neg_strength, token, prob) for token in extras]
            scored.sort()
            yield scored

    def _unknown_entry(self) -> tuple | None:
        """The memo entry an unseen token would get, or None if the
        prior is not significant.  Built per token text at use sites
        (the tie-break needs the text); unseen tokens are never
        interned by scoring."""
        unknown = self.options.unknown_word_prob
        strength = abs(unknown - 0.5)
        if strength >= self.options.minimum_prob_strength:
            return (-strength, unknown)
        return None

    def significant_tokens(self, tokens: Iterable[str]) -> list[TokenScore]:
        """δ(E): the strongest discriminators among ``tokens``.

        At most ``max_discriminators`` distinct tokens whose score lies
        at least ``minimum_prob_strength`` away from 0.5, strongest
        first.  Ties are broken by token text so results are
        deterministic across runs and platforms.
        """
        (scored,) = self._ranked(self._resolve((tokens,)))
        limit = self.options.max_discriminators
        return [TokenScore(token, prob) for _, token, prob in scored[:limit]]

    def score(self, tokens: Iterable[str]) -> float:
        """I(E) of Equation 3 for a message given as its token stream."""
        return self._combine([ts.spam_prob for ts in self.significant_tokens(tokens)])

    def score_many(self, token_sets: Iterable[Iterable[str]]) -> list[float]:
        """I(E) for a batch of messages in one pass.

        Returns exactly ``[self.score(ts) for ts in token_sets]`` — the
        same sort, the same tie-breaks, the same floats.  Each message's
        distinct tokens are resolved in one :meth:`TokenTable.lookup`;
        unseen tokens contribute the prior inline, without being
        interned (scoring never grows the table).

        Every batch takes the memo-and-combine loop: its known IDs are
        gathered and handed to one :meth:`_fill_memo` call, which
        computes every entry a training call invalidated in one
        vectorized pass, and then each message sorts and combines
        finished memo entries.  Under served feedback every ``learn``
        moves ``(nspam, nham)`` and voids the whole memo, so the refill
        is the per-batch cost that matters.

        String batches never go to :meth:`score_many_ids`, not even
        those with no unseen token.  Each served ``feedback`` grows the
        table, so that route rebuilds the vocabulary-wide
        :meth:`TokenTable.text_order_ranks` with a ``sorted()`` after
        every learn; and on the serve benchmark (``serve-session``,
        2-core host) its fixed ~190 µs per call made read-only batches
        of one message cost 245–271 µs against 78–99 µs.
        """
        limit = self.options.max_discriminators
        combine = self._combine
        return [
            combine([entry[2] for entry in scored[:limit]])
            for scored in self._ranked(self._resolve(token_sets))
        ]

    def score_with_evidence(self, tokens: Iterable[str]) -> tuple[float, list[TokenScore]]:
        """Return ``(I(E), δ(E) evidence)`` — used by analysis & defenses."""
        evidence = self.significant_tokens(tokens)
        return self._combine([ts.spam_prob for ts in evidence]), evidence

    @staticmethod
    def _combine(probs: Sequence[float]) -> float:
        """I(E) = (1 + H(E) - S(E)) / 2 of Equations 3-4."""
        if not probs:
            return 0.5
        spam_evidence = fisher_combine(probs)
        ham_evidence = fisher_combine([1.0 - p for p in probs])
        return (1.0 + spam_evidence - ham_evidence) / 2.0

    # ------------------------------------------------------------------
    # Scoring encoded messages
    # ------------------------------------------------------------------

    def score_ids(self, ids: Sequence[int]) -> float:
        """I(E) for one pre-encoded message (see :meth:`learn_ids`)."""
        return self.score_many_ids((ids,))[0]

    def score_many_ids(self, id_arrays: Iterable[Sequence[int]]) -> list[float]:
        """I(E) for a batch of pre-encoded messages.

        Each element of ``id_arrays`` is a duplicate-free ID sequence
        from this classifier's :attr:`table`.  The batch is scored
        through a transient :class:`ScoringWorkspace`; scores are
        bit-identical to per-message :meth:`score`.
        """
        return self._score_segments(ScoringWorkspace(id_arrays))

    def score_workspace(self, workspace: ScoringWorkspace) -> list[float]:
        """Bulk-score a workspace's fixed rows, reusing its cached state.

        Same floats as ``score_many_ids(workspace.rows)`` — the CSR
        encoding, distinct IDs, text order and scratch buffers come
        from the workspace instead of being rebuilt, but every
        arithmetic operation on them is identical.
        """
        return self._score_segments(workspace)

    def score_under_candidates(
        self, workspace: ScoringWorkspace, candidates: Sequence[tuple[Sequence[int], bool]]
    ) -> list[list[float]]:
        """Score a workspace's rows once per hypothetical training message.

        ``candidates`` holds ``(ids, is_spam)`` pairs of encoded
        messages from this classifier's :attr:`table`.  Entry ``k`` of
        the result is ``score_workspace(workspace)`` as it would read
        with candidate ``k`` — and only candidate ``k`` — learned on
        top of the current state; no count is mutated.  This is the
        RONI gate's one scoring primitive.

        Learning one candidate changes a validation token's probability
        in only one of four ways: ham- or spam-labelled candidate, token
        in the candidate or not.  So the four probability columns over
        the workspace's unique tokens — base and +1 counts, under
        ``nspam + 1`` and under ``nham + 1`` — hold every probability
        any candidate can produce, computed by the same elementwise
        f(w) every ID-scoring call uses.  Each (candidate, entry) pair
        picks its column through a candidate-membership mask; one
        ``(-strength, text)`` ordinal over the 4 × |unique| variants
        (:func:`_rank_significant`, over the workspace's cached text
        order) orders every row with a single int64 key; the shared Fisher
        products give each row's statistics.  Candidates go through in
        chunks of at most :data:`_CANDIDATE_ENTRY_BUDGET` (candidate,
        entry) pairs, so memory stays bounded whatever the batch size;
        only the chunks' statistics are kept, and one chi-square pass
        over all of them ends the call.
        """
        candidates = candidates if isinstance(candidates, (list, tuple)) else list(candidates)
        ids_cat, indptr = workspace.csr()
        n_rows = indptr.shape[0] - 1
        nnz = ids_cat.shape[0]
        if nnz == 0 or not candidates:
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
            self._probs_of(spam_u, ham_u, nspam, nham + 1),
            self._probs_of(spam_u, ham_u + 1, nspam, nham + 1),
            self._probs_of(spam_u, ham_u, nspam + 1, nham),
            self._probs_of(spam_u + 1, ham_u, nspam + 1, nham),
        ))
        strength = np.abs(probs - 0.5)
        significant = strength >= self.options.minimum_prob_strength
        # Variants of one token never meet in one row, so ranking all
        # 4 × |unique| of them once gives every row's order; in text
        # order, each token's four variants sit side by side.
        text_order = workspace.text_order(self._table)
        ranked, ordinal = _rank_significant(
            strength,
            significant,
            (text_order[:, None] + np.arange(4, dtype=_ID_DTYPE) * n_unique).ravel(),
        )
        significant_entry = significant.reshape(4, n_unique)[:, inverse]
        entry_row = np.repeat(np.arange(n_rows, dtype=_ID_DTYPE), np.diff(indptr))
        chunk = max(1, _CANDIDATE_ENTRY_BUDGET // nnz)
        x2_parts, degree_parts = [], []
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
            prob_sorted = _sorted_probs(key, ordinal[variant], ranked, probs)
            del key, variant
            x2, degrees = self._combine_sorted(counts, prob_sorted)
            del prob_sorted
            x2_parts.append(x2)
            degree_parts.append(degrees)
        scores = _fisher_scores(
            np.concatenate(x2_parts, axis=1), np.concatenate(degree_parts)
        )
        return [scores[k * n_rows : (k + 1) * n_rows] for k in range(len(candidates))]

    def _score_segments(self, workspace: ScoringWorkspace) -> list[float]:
        """The vectorized Fisher/chi2 combiner over a workspace's rows.

        One IEEE-identical pass for the whole batch: f(w) over the
        batch's distinct IDs only, the significance filter, the
        ``(-strength, text)`` order (:func:`_rank_significant`) with
        per-row truncation, the interleaved mantissa/exponent product,
        and the even-dof chi-square survival series.  The workspace
        supplies the CSR encoding, the distinct IDs, their text order
        and the scratch columns; it changes where intermediates live,
        never their bits.
        """
        ids_cat, indptr = workspace.csr()
        n_msgs = indptr.shape[0] - 1
        if ids_cat.shape[0] == 0:
            return [0.5] * n_msgs
        self._ensure_columns()
        unique_ids, inverse = workspace.unique()
        probs = self._probs_for(unique_ids)
        strength = np.abs(probs - 0.5)
        significant = strength >= self.options.minimum_prob_strength
        sig_entries = np.flatnonzero(significant[inverse])
        if sig_entries.shape[0] == 0:
            return [0.5] * n_msgs
        ranked, ordinal = _rank_significant(
            strength, significant, workspace.text_order(self._table)
        )
        # Row of each significant entry, straight from the CSR indptr:
        # entry position p lives in the row r with indptr[r] <= p <
        # indptr[r+1] (empty rows collapse their indptr span, so they
        # can never be selected).
        row_of = np.searchsorted(indptr, sig_entries, side="right") - 1
        counts = np.bincount(row_of, minlength=n_msgs)
        prob_sorted = _sorted_probs(row_of, ordinal[inverse[sig_entries]], ranked, probs)
        return _fisher_scores(*self._combine_sorted(counts, prob_sorted, workspace))

    def _combine_sorted(
        self,
        counts: np.ndarray,
        prob_sorted: np.ndarray,
        workspace=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The shared Fisher products: sorted significant probs → ``x2``.

        ``prob_sorted`` holds every significant entry of ``len(counts)``
        messages, row by row (``counts[r]`` entries for row ``r``), each
        row in the ``(-strength, text)`` order.  Per-row truncation to
        ``max_discriminators`` and the interleaved mantissa/exponent
        product run here — the one copy every vectorized scoring path
        feeds (:meth:`_score_segments` and
        :meth:`score_under_candidates`).  Returns ``(x2, degrees)``:
        ``x2[0]`` and ``x2[1]`` are each row's spam- and ham-side
        Fisher statistics, ``degrees`` its kept count; the caller
        hands them, alone or gathered over chunks, to one
        :func:`_fisher_scores`.  ``workspace`` only supplies scratch
        columns.
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
        # The scalar combiner (chi2.ln_product) raises on p <= 0 or
        # 1-p <= 0 at the first offending element in (message,
        # discriminator-rank) order — which is exactly the kept order
        # here.
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
        # the scalar mantissa/exponent loop.
        q_kept = 1.0 - kept_probs
        # Row 0 holds the spam side's mantissas/exponents, row 1 the ham side's.
        if workspace is not None:
            mants = workspace.buffer("mants", 2 * n_msgs, np.float64).reshape(2, n_msgs)
            exps = workspace.buffer("exps", 2 * n_msgs, np.int64).reshape(2, n_msgs)
            mants.fill(1.0)
            exps.fill(0)
        else:
            mants = np.ones((2, n_msgs))
            exps = np.zeros((2, n_msgs), dtype=np.int64)
        nonzero = np.flatnonzero(degrees)
        frexp = math.frexp
        for side, factors in enumerate((kept_probs, q_kept)):
            if nonzero.size:
                mants[side, nonzero] = np.multiply.reduceat(factors, kept_starts[nonzero])
            for row in np.flatnonzero(mants[side] < _RENORM_THRESHOLD).tolist():
                mant, exp = 1.0, 0
                for value in factors[
                    kept_starts[row] : kept_starts[row + 1]
                ].tolist():
                    mant *= value
                    if mant < _RENORM_THRESHOLD:
                        mant, shift = frexp(mant)
                        exp += shift
                mants[side, row] = mant
                exps[side, row] = exp
        return -2.0 * (_exact(math.log, mants) + exps * _LN2), degrees

    # ------------------------------------------------------------------
    # Copying / pickling
    # ------------------------------------------------------------------

    def copy(self) -> "Classifier":
        """Deep copy of the training state.

        Options are shared (immutable) and so is the interning table
        (append-only): the copy's columns are independent, its IDs are
        the same.
        """
        clone = self.__class__(self.options, table=self._table)
        clone._nspam = self._nspam
        clone._nham = self._nham
        clone._spam = self._spam.copy()
        clone._ham = self._ham.copy()
        clone._adopt_columns()
        clone._active = self._active
        return clone

    def _adopt_columns(self) -> None:
        """Rebind the column store around the current ``_spam``/``_ham``.

        Copies and unpickled classifiers hold plain in-memory arrays
        regardless of where the original's counts lived; this re-wraps
        them so future column growth goes through a matching store.
        """
        from repro.storage.memory import MemoryCountColumns

        self._columns = MemoryCountColumns.adopt(self._spam, self._ham)

    def __getstate__(self) -> dict:
        # Memos are cheap to rebuild and snapshots are owner-bound, so
        # neither crosses a process boundary.  The table rides along:
        # within one pickle (e.g. a sweep context holding both the
        # model and encoded datasets) object identity is preserved, so
        # shared tables stay shared on the other side.  Columns ship as
        # ndarrays (mmap-backed views pickle by value like any other).
        if self._snapshot is not None:
            raise TrainingError("cannot pickle a classifier while a snapshot is active")
        return {
            "options": self.options,
            "table": self._table,
            "spam": self._spam,
            "ham": self._ham,
            "nspam": self._nspam,
            "nham": self._nham,
            "active": self._active,
        }

    def __setstate__(self, state: dict) -> None:
        self.options = state["options"]
        self._table = state["table"]
        self._spam = np.ascontiguousarray(state["spam"], dtype=_ID_DTYPE)
        self._ham = np.ascontiguousarray(state["ham"], dtype=_ID_DTYPE)
        self._adopt_columns()
        self._nspam = state["nspam"]
        self._nham = state["nham"]
        self._active = state["active"]
        self._memo = None
        self._memo_tag = None
        self._dirty = []
        self._snapshot = None

    def __repr__(self) -> str:
        return (
            f"Classifier(nspam={self._nspam}, nham={self._nham}, "
            f"vocabulary={self._active})"
        )


def _fisher_scores(x2: np.ndarray, degrees: np.ndarray) -> list[float]:
    """Message scores from :meth:`Classifier._combine_sorted` output.

    One survival pass over both sides of every row, then
    ``(1 + S - H) / 2``.
    """
    evidence = _chi2_survival(x2, degrees)
    return ((1.0 + evidence[0] - evidence[1]) / 2.0).tolist()


def _chi2_survival(x2: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Vectorized even-dof chi-square survival, matching the scalar series.

    ``x2[..., r]`` is a statistic over ``degrees[r]`` significant probs
    (rows in any order; leading axes share their row's degree, like
    the combiner's spam and ham sides).  The scalar series
    (:func:`repro.spambayes.chi2.chi2q`) is ``term = exp(-half); total
    = term; then for i in 1..d-1: term *= half/i; total += term``.
    Here it runs column by column over the rows sorted by degree,
    descending: step ``i`` updates only the leading rows whose degree
    exceeds ``i``, so every row sees exactly the scalar multiply and
    add chain and no row computes past its own degree.  The final
    ``where`` reproduces the scalar early-outs: ``x2 <= 0`` → 1.0,
    ``half > 708`` → 0.0, else ``min(total, 1.0)``.  A degree-0 row
    (an empty message, whose ``x2`` is -0.0) runs the degree-1 series
    and takes the first early-out.
    """
    # Clamping at 0 keeps exp(-half) finite on rows the first early-out
    # pins anyway; for half > 708 it underflows harmlessly.
    half = np.maximum(x2 / 2.0, 0.0)
    order = np.argsort(-degrees)
    d_desc = degrees[order]
    # Rows on the first axis, so each step's slice is one contiguous run.
    half_desc = np.ascontiguousarray(half[..., order].T)
    term = _exact(math.exp, -half_desc)
    total = term.copy()
    step = np.empty_like(half_desc)
    max_degree = int(d_desc[0]) if d_desc.size else 0
    # above[i - 1] counts the rows whose degree exceeds i.
    above = np.searchsorted(-d_desc, -np.arange(1, max_degree), side="left")
    for i, n in enumerate(above.tolist(), start=1):
        np.divide(half_desc[:n], i, out=step[:n])
        term[:n] *= step[:n]
        total[:n] += term[:n]
    survival = np.empty_like(half)
    survival[..., order] = total.T
    return np.where(
        x2 <= 0.0,
        1.0,
        np.where(half > _EXP_UNDERFLOW_LIMIT, 0.0, np.minimum(survival, 1.0)),
    )
