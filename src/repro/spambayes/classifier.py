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
    and the per-token statistics live in two parallel ``array`` columns
    (``spamcount[id]``, ``hamcount[id]``) instead of a str-keyed object
    store.  Every hot loop — bulk scoring, attack-batch training, the
    RONI gate — runs over integer IDs with flat array/list indexing; no
    string is hashed inside a loop.  The string-facing *training* API
    (:meth:`learn`, ...) interns at the boundary; *scoring* never
    interns — unseen tokens contribute the prior without growing the
    shared table.  The ``*_ids`` twins accept pre-encoded ID arrays
    (see :meth:`~repro.corpus.dataset.LabeledMessage.token_ids`) so a
    message is encoded once and reused across every fold, attack batch
    and worker.  The arithmetic is expression-for-expression identical to
    the retained dict-keyed core
    (:class:`repro.spambayes.reference.ReferenceClassifier`), so scores
    are bit-exact against it — ``tests/test_token_table.py`` holds the
    two side by side to prove it.

Both :meth:`Classifier.learn` and :meth:`Classifier.unlearn` are
incremental, which the experiment harness leans on heavily: a fold's
clean model is trained once and attack batches are layered on top, and
the RONI defense trains/untrains candidate messages in place.

Snapshot / restore (:meth:`Classifier.snapshot`,
:meth:`Classifier.restore`)
    A copy-on-write checkpoint of the training state.  ``snapshot()``
    is O(1): it arms an ID-keyed write-ahead log, and subsequent
    learn/unlearn calls save each touched token's original count pair
    the *first* time they touch it.  ``restore()`` replays the log,
    returning the classifier to the exact snapshotted state (integer
    counts, so the round-trip is bit-exact).  This is what lets the
    sweep engine keep ONE shared clean model per inbox and derive every
    fold's classifier from it — unlearn the held-out stripe, layer
    attack batches, score, restore — instead of retraining K times per
    attack variant.  One snapshot may be active at a time; restoring
    deactivates it.

Bulk scoring (:meth:`Classifier.score_many_ids`)
    The columnar kernel.  Scores a batch of encoded messages in one
    pass over a flat significance memo indexed by token ID; memo hits —
    the common case once a fold's vocabulary is warm — are served by a
    C-level ``map`` over the ID array with no per-token Python
    bytecode.  The memo persists across calls and is invalidated as a
    whole by any training call (one pointer write, not a per-token
    sweep).  Scores are exactly what per-message :meth:`score` returns.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, repeat
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import TrainingError
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TOKEN_ID_TYPECODE, TokenTable
from repro.spambayes.wordinfo import WordInfo

__all__ = ["Classifier", "ClassifierSnapshot", "TokenScore"]

# Memo sentinel for "never computed" (None means "computed, not
# significant", so the kernel can drop insignificant entries with a
# C-level filter(None, ...)).
_MISSING = object()

_LN2 = math.log(2.0)


def _fisher_message_score(probs: Sequence[float]) -> float:
    """``(1 + H(E) - S(E)) / 2`` — Equations 3-4 in one fused pass.

    Bit-exact restatement of::

        spam = fisher_combine(probs)            # H(E)
        ham  = fisher_combine([1 - p for p in probs])   # S(E)
        (1.0 + spam - ham) / 2.0

    The two ``ln_product`` accumulations are interleaved into a single
    loop over ``probs`` (each accumulator still sees the same values in
    the same order, so every intermediate float is identical) and the
    even-dof chi-square survival series is inlined.  This combiner runs
    once per message on every scoring path, so the function-call and
    intermediate-list overhead it removes is a measurable slice of a
    fold sweep.
    """
    if not probs:
        return 0.5
    mant_spam = 1.0
    exp_spam = 0
    mant_ham = 1.0
    exp_ham = 0
    frexp = math.frexp
    for p in probs:
        if p <= 0.0:
            raise ValueError(f"ln_product requires positive values, got {p}")
        q = 1.0 - p
        if q <= 0.0:
            raise ValueError(f"ln_product requires positive values, got {q}")
        mant_spam *= p
        if mant_spam < 1e-200:
            mant_spam, shift = frexp(mant_spam)
            exp_spam += shift
        mant_ham *= q
        if mant_ham < 1e-200:
            mant_ham, shift = frexp(mant_ham)
            exp_ham += shift
    log = math.log
    degrees_half = len(probs)  # chi2q over 2n degrees iterates n-1 terms
    evidence = []
    for mantissa, exponent in ((mant_spam, exp_spam), (mant_ham, exp_ham)):
        x2 = -2.0 * (log(mantissa) + exponent * _LN2)
        if x2 <= 0.0:
            evidence.append(1.0)
            continue
        half = x2 / 2.0
        if half > 708.0:  # chi2._EXP_UNDERFLOW_LIMIT
            evidence.append(0.0)
            continue
        term = math.exp(-half)
        total = term
        for i in range(1, degrees_half):
            term *= half / i
            total += term
        evidence.append(min(total, 1.0))
    return (1.0 + evidence[0] - evidence[1]) / 2.0


class TokenScore(NamedTuple):
    """One token's contribution to a message score (evidence record)."""

    token: str
    spam_prob: float


class ClassifierSnapshot:
    """Opaque copy-on-write checkpoint of a :class:`Classifier`.

    Created by :meth:`Classifier.snapshot`; consumed (once) by
    :meth:`Classifier.restore`.  Holds the global message counts plus a
    write-ahead log mapping token ID -> original ``(spamcount,
    hamcount)`` pair, populated lazily as training calls touch tokens.
    """

    __slots__ = ("owner", "nspam", "nham", "log", "active")

    def __init__(self, owner: "Classifier", nspam: int, nham: int) -> None:
        self.owner = owner
        self.nspam = nspam
        self.nham = nham
        # token ID -> (spamcount, hamcount) at snapshot time; (0, 0)
        # records a token that was absent.
        self.log: dict[int, tuple[int, int]] = {}
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else "restored"
        return f"ClassifierSnapshot({state}, touched={len(self.log)})"


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
        # (``repro.storage``); the default is the in-memory store whose
        # behaviour is the pre-storage-layer code extracted verbatim.
        # Derived classifiers (copies, unpickles, bulk loads) always
        # get in-memory columns — only explicitly wired classifiers
        # (``create_classifier`` under REPRO_STORE=disk) spill counts.
        if columns is None:
            from repro.storage.memory import MemoryCountColumns

            columns = MemoryCountColumns()
        self._columns = columns
        self._spam, self._ham = columns.grow(0)
        self._nspam = 0
        self._nham = 0
        self._active = 0  # IDs with spamcount + hamcount > 0
        # Flat significance memo indexed by token ID.  Entries:
        # _MISSING = not yet computed, tuple (-strength, token, prob) =
        # significant, None = computed and not significant.  An entry
        # is a pure function of (spamcount[id], hamcount[id], nspam,
        # nham), so the memo carries the (nspam, nham) pair it was
        # built under (_memo_tag) plus the IDs touched by mutations
        # since (_dirty): at the next scoring call, if the global pair
        # matches the tag again, only the dirty IDs are evicted — the
        # RONI gate's learn/score/unlearn cycling re-derives a few
        # hundred candidate tokens instead of the whole validation
        # vocabulary.  A tag mismatch (or an oversized dirty list)
        # rebuilds from scratch.
        self._memo: list | None = None
        self._memo_tag: tuple[int, int] | None = None
        self._dirty: list[int] = []
        # Message-level score memo: id(ids_array) -> (ids_array, score),
        # valid until the next training call.  Holding the array ref
        # keeps the id() stable.  Serves repeated evaluations of the
        # same encoded messages against unchanged state (e.g. one fold
        # scored under several threshold fits) at dict-probe cost.
        self._score_memo: dict[int, tuple[array, float]] | None = None
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
        does not change the classifier.
        """
        tid = self._table.id_of(token)
        if tid is None or tid >= len(self._spam):
            return None
        spamcount = self._spam[tid]
        hamcount = self._ham[tid]
        if spamcount == 0 and hamcount == 0:
            return None
        return WordInfo(spamcount, hamcount)

    def iter_vocabulary(self) -> Iterable[str]:
        tokens = self._table
        spam_col = self._spam
        ham_col = self._ham
        for tid in range(len(spam_col)):
            if spam_col[tid] or ham_col[tid]:
                yield tokens.token(tid)

    def encode_tokens(self, tokens: Iterable[str]) -> array:
        """Intern ``tokens`` into this classifier's table as a sorted,
        duplicate-free ID array, ready for the ``*_ids`` methods."""
        return self._table.encode_unique(tokens)

    # ------------------------------------------------------------------
    # Column plumbing
    # ------------------------------------------------------------------

    def _ensure_columns(self) -> None:
        """Grow the count columns to cover every interned ID."""
        n = len(self._table)
        if len(self._spam) < n:
            self._spam, self._ham = self._columns.grow(n)

    def _memo_list(self) -> list:
        """The flat significance memo, validated and sized to the table.

        Reconciles pending mutations: when the global (nspam, nham)
        pair equals the pair the memo was built under, every entry for
        an untouched ID is still exact — evict only the dirty IDs.
        Otherwise start a fresh memo.
        """
        memo = self._memo
        n = len(self._table)
        if memo is not None:
            dirty = self._dirty
            # The tag is checked even with nothing dirty: a mutation
            # with an empty token set still moves (nspam, nham), which
            # every memoized probability depends on.
            if (self._nspam, self._nham) != self._memo_tag:
                memo = None
            elif dirty:
                limit = len(memo)
                dirty_set = set(dirty)
                for tid in dirty_set:
                    if tid < limit:
                        memo[tid] = _MISSING
                score_memo = self._score_memo
                if score_memo:
                    # A message score survives iff none of its
                    # tokens were touched — its entire input state
                    # is then identical to when it was computed.
                    stale = [
                        key
                        for key, entry in score_memo.items()
                        if not dirty_set.isdisjoint(entry[0])
                    ]
                    for key in stale:
                        del score_memo[key]
                dirty.clear()
        if memo is None:
            memo = self._memo = [_MISSING] * n
            self._memo_tag = (self._nspam, self._nham)
            self._dirty.clear()
            self._score_memo = None
        elif len(memo) < n:
            memo.extend([_MISSING] * (n - len(memo)))
        return memo

    def _note_mutation(self, ids: Iterable[int]) -> None:
        """Record a training mutation touching ``ids``.

        The token and message memos survive with the touched IDs queued
        for lazy, targeted eviction (see :meth:`_memo_list`), unless
        the dirty backlog grows past the point where a rebuild is
        cheaper.
        """
        if self._memo is None:
            self._score_memo = None
            return
        dirty = self._dirty
        dirty.extend(ids)
        if len(dirty) > 1024 and len(dirty) * 4 > len(self._memo):
            self._memo = None
            dirty.clear()
            self._score_memo = None

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
        :attr:`table` — exactly what :meth:`encode_tokens` or
        ``LabeledMessage.token_ids`` produce.
        """
        if is_spam:
            self._nspam += 1
        else:
            self._nham += 1
        self._apply_delta(ids, is_spam, 1)

    def unlearn(self, tokens: Iterable[str], is_spam: bool) -> None:
        """Remove a previously learned message.

        Raises :class:`TrainingError` if the message cannot have been
        learned with these tokens/label (a count would go negative) —
        silently clamping would corrupt every future score.  The check
        is performed *before* any count is touched, so a failed unlearn
        leaves the classifier unchanged.
        """
        self.unlearn_ids(self._table.encode_unique(tokens), is_spam)

    def unlearn_ids(self, ids: Sequence[int], is_spam: bool) -> None:
        """:meth:`unlearn` for a pre-encoded message (see :meth:`learn_ids`)."""
        if is_spam:
            if self._nspam < 1:
                raise TrainingError("unlearn(spam) with no spam trained")
        else:
            if self._nham < 1:
                raise TrainingError("unlearn(ham) with no ham trained")
        self._check_removal(ids, is_spam, 1)
        if is_spam:
            self._nspam -= 1
        else:
            self._nham -= 1
        self._apply_removal(ids, is_spam, 1)

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

        Validates before mutating, like :meth:`unlearn`.
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

    def _apply_delta(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Add ``count`` to one class column for every ID (no checks)."""
        self._ensure_columns()
        spam_col = self._spam
        ham_col = self._ham
        col = spam_col if is_spam else ham_col
        other = ham_col if is_spam else spam_col
        log = None if self._snapshot is None else self._snapshot.log
        active = self._active
        for tid in ids:
            current = col[tid]
            if log is not None and tid not in log:
                log[tid] = (spam_col[tid], ham_col[tid])
            if current == 0 and other[tid] == 0:
                active += 1
            col[tid] = current + count
        self._active = active
        self._note_mutation(ids)

    def _check_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Raise if any ID's class count would go negative (pre-mutation)."""
        col = self._spam if is_spam else self._ham
        limit = len(col)
        for tid in ids:
            current = col[tid] if tid < limit else 0
            if current < count:
                token = self._table.token(tid)
                raise TrainingError(
                    f"unlearn would drive count of token {token!r} negative; "
                    "message was not learned with this label"
                )

    def _apply_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Subtract ``count`` from one class column (caller validated)."""
        spam_col = self._spam
        ham_col = self._ham
        col = spam_col if is_spam else ham_col
        other = ham_col if is_spam else spam_col
        log = None if self._snapshot is None else self._snapshot.log
        active = self._active
        for tid in ids:
            if log is not None and tid not in log:
                log[tid] = (spam_col[tid], ham_col[tid])
            remaining = col[tid] - count
            col[tid] = remaining
            if remaining == 0 and other[tid] == 0:
                active -= 1
        self._active = active
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
        land in the columns through the same bookkeeping training uses,
        and the memo/dirty/active invariants hold afterwards — callers
        never need to poke ``_spam``/``_ham`` directly.  Counts must be
        non-negative and each token may appear at most once.
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
        spam_col = classifier._spam
        ham_col = classifier._ham
        for tid, count in spam_pairs:
            spam_col[tid] = count
        for tid, count in ham_pairs:
            ham_col[tid] = count
        classifier._active = sum(
            1 for tid in range(len(spam_col)) if spam_col[tid] or ham_col[tid]
        )
        return classifier

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    @property
    def snapshot_active(self) -> bool:
        """True while a snapshot is armed and not yet restored."""
        return self._snapshot is not None

    def snapshot(self) -> ClassifierSnapshot:
        """Arm a copy-on-write checkpoint of the current training state.

        O(1) now; subsequent learn/unlearn calls pay one extra dict
        probe per *newly touched* token ID to save its original counts.
        Only one snapshot may be active at a time — layered checkpoints
        would need a log per level, and no caller has wanted one.
        """
        if self._snapshot is not None:
            raise TrainingError("a snapshot is already active; restore it first")
        snap = ClassifierSnapshot(self, self._nspam, self._nham)
        self._snapshot = snap
        return snap

    def restore(self, snap: ClassifierSnapshot) -> None:
        """Return to the exact state captured by :meth:`snapshot`.

        Counts are integers, so the round-trip is bit-exact: the
        restored classifier scores every message identically to the
        moment the snapshot was taken.  The snapshot is single-use.
        """
        if snap.owner is not self:
            raise TrainingError("snapshot belongs to a different classifier")
        if not snap.active or self._snapshot is not snap:
            raise TrainingError("snapshot is not active on this classifier")
        spam_col = self._spam
        ham_col = self._ham
        active = self._active
        for tid, (spamcount, hamcount) in snap.log.items():
            if spam_col[tid] or ham_col[tid]:
                active -= 1
            if spamcount or hamcount:
                active += 1
            spam_col[tid] = spamcount
            ham_col[tid] = hamcount
        self._active = active
        self._nspam = snap.nspam
        self._nham = snap.nham
        snap.active = False
        self._snapshot = None
        self._note_mutation(snap.log.keys())

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def raw_spam_score(self, token: str) -> float:
        """PS(w) of Equation 1; the prior ``x`` for unseen tokens."""
        tid = self._table.id_of(token)
        if tid is None or tid >= len(self._spam):
            return self.options.unknown_word_prob
        spamcount = self._spam[tid]
        hamcount = self._ham[tid]
        if spamcount + hamcount == 0:
            return self.options.unknown_word_prob
        nspam = self._nspam
        nham = self._nham
        if nspam == 0 and nham == 0:
            return self.options.unknown_word_prob
        spam_ratio = spamcount / nspam if nspam else 0.0
        ham_ratio = hamcount / nham if nham else 0.0
        denominator = spam_ratio + ham_ratio
        if denominator == 0.0:
            return self.options.unknown_word_prob
        return spam_ratio / denominator

    def _prob_for_id(self, token_id: int) -> float:
        """f(w) of Equation 2 for one interned token ID.

        The single overridable probability hook: subclasses with a
        different per-token formula (Graham mode) override this, and
        every scoring path — single-token, per-message, and the bulk
        kernel — routes through it (the kernel inlines the base
        arithmetic only when the hook is not overridden).  Columns must
        already cover ``token_id`` (callers go through
        :meth:`_ensure_columns`).
        """
        opts = self.options
        spamcount = self._spam[token_id]
        hamcount = self._ham[token_id]
        n = spamcount + hamcount
        if n == 0:
            return opts.unknown_word_prob
        nspam = self._nspam
        nham = self._nham
        unknown = opts.unknown_word_prob
        if nspam == 0 and nham == 0:
            ps = unknown
        else:
            spam_ratio = spamcount / nspam if nspam else 0.0
            ham_ratio = hamcount / nham if nham else 0.0
            denominator = spam_ratio + ham_ratio
            ps = unknown if denominator == 0.0 else spam_ratio / denominator
        s = opts.unknown_word_strength
        return (s * unknown + n * ps) / (s + n)

    def spam_prob(self, token: str) -> float:
        """f(w) of Equation 2: smoothed token spam score in [0, 1].

        Scoring never interns: a token the table has not seen scores
        the prior without growing the (possibly shared) table, columns
        or memos — only training extends the vocabulary.
        """
        tid = self._table.id_of(token)
        if tid is None:
            return self.options.unknown_word_prob
        self._ensure_columns()
        memo = self._memo_list()
        entry = memo[tid]
        if type(entry) is tuple:
            return entry[2]
        prob = self._prob_for_id(tid)
        if entry is _MISSING:
            strength = abs(prob - 0.5)
            if strength >= self.options.minimum_prob_strength:
                memo[tid] = (-strength, token, prob)
            else:
                memo[tid] = None
        return prob

    def _resolve(
        self, token_sets: Iterable[Iterable[str]]
    ) -> tuple[list[tuple[list[int], Sequence[str]]], bool]:
        """Resolve each message in one :meth:`TokenTable.lookup` call.

        Returns ``(encoded, any_unseen)``: per message, its distinct
        interned IDs and the texts of its unseen tokens, plus whether
        any message had one.  Scoring never interns, so unseen tokens
        stay out of the table.  Their texts are kept only when the
        prior is significant; otherwise they never enter δ(E).
        """
        lookup = self._table.lookup
        keep_unseen = self._unknown_entry() is not None
        encoded: list[tuple[list[int], Sequence[str]]] = []
        any_unseen = False
        for tokens in token_sets:
            unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
            ids = lookup(unique)
            extras: Sequence[str] = ()
            if None in ids:
                any_unseen = True
                if keep_unseen:
                    extras = list(compress(unique, map(is_, ids, repeat(None))))
                ids = [tid for tid in ids if tid is not None]
            encoded.append((ids, extras))
        return encoded, any_unseen

    def _fill_memo(self, memo: list, ids: Iterable[int]) -> None:
        """Compute every ``_MISSING`` memo entry among ``ids``.

        The string path's one fill step: callers gather a batch's IDs
        and fill once before combining, so the combine reads finished
        entries only.  This is the lazy per-token fill through
        :meth:`_prob_for_id`; the NumPy kernel overrides it with one
        vectorized pass that writes the same tuples.  Columns must
        already cover ``ids``.
        """
        minimum = self.options.minimum_prob_strength
        token = self._table.token
        for tid in ids:
            if memo[tid] is _MISSING:
                prob = self._prob_for_id(tid)
                strength = abs(prob - 0.5)
                memo[tid] = (-strength, token(tid), prob) if strength >= minimum else None

    def _ranked(self, encoded: list[tuple[list[int], Sequence[str]]]) -> Iterator[list]:
        """Each message's significant memo entries, strongest first.

        ``encoded`` is the first item :meth:`_resolve` returns, which
        keeps unseen texts only when the prior's entry is significant.
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
        (scored,) = self._ranked(self._resolve((tokens,))[0])
        limit = self.options.max_discriminators
        return [TokenScore(token, prob) for _, token, prob in scored[:limit]]

    def score(self, tokens: Iterable[str]) -> float:
        """I(E) of Equation 3 for a message given as its token stream."""
        return self._combine([ts.spam_prob for ts in self.significant_tokens(tokens)])

    def score_ids(self, ids: Sequence[int]) -> float:
        """I(E) for one pre-encoded message (see :meth:`learn_ids`)."""
        return self.score_many_ids((ids,))[0]

    def score_many(self, token_sets: Iterable[Iterable[str]]) -> list[float]:
        """I(E) for a batch of messages in one pass.

        Returns exactly ``[self.score(ts) for ts in token_sets]`` — the
        same sort, the same tie-breaks, the same floats.  Each message's
        distinct tokens are resolved in one :meth:`TokenTable.lookup`;
        unseen tokens contribute the prior inline, without being
        interned (scoring never grows the table).

        A batch with no unseen token goes to :meth:`score_many_ids`.
        Any other batch takes the memo-and-combine loop: its known IDs
        are gathered and handed to one :meth:`_fill_memo` call, which
        computes every entry a training call invalidated (the NumPy
        kernel in one vectorized pass), and then each message sorts and
        combines finished memo entries.  Under served feedback every
        ``learn`` moves ``(nspam, nham)`` and voids the whole memo, so
        the refill is the per-batch cost that matters.

        Routing string batches to :meth:`score_many_ids` instead (unseen
        tokens dropped when the prior is not significant, batch-local
        text ranks) was measured on the serve benchmark
        (``serve-session``, 2-core host) and rejected: wall time −35%,
        but the kernel's fixed ~190 µs per call made read-only batches
        of one message cost 245–271 µs against 78–99 µs, unbatched
        serving fell from 2,798 to 1,577 msgs/s, and peak RSS rose 5.2%.
        An earlier form of that route gained only 5%: each ``feedback``
        grows the table, which forces a vocabulary-wide
        :meth:`TokenTable.text_order_ranks` rebuild (688 rebuilds,
        2.89 s in one `serve-session` run).
        """
        encoded, any_unseen = self._resolve(token_sets)
        if not any_unseen:
            return self.score_many_ids([ids for ids, _ in encoded])
        limit = self.options.max_discriminators
        combine = self._combine
        return [
            combine([entry[2] for entry in scored[:limit]]) for scored in self._ranked(encoded)
        ]

    def score_workspace(self, workspace) -> list[float]:
        """Score a fixed evaluation batch carried by a scoring workspace.

        ``workspace`` is a
        :class:`repro.spambayes.ndkernel.ScoringWorkspace` (duck-typed
        here — only its ``rows`` are read, so the pure kernel needs no
        NumPy).  The base implementation simply bulk-scores the rows;
        :class:`~repro.spambayes.ndkernel.NDClassifier` overrides it to
        reuse the workspace's cached CSR encoding, rank gather and
        scratch buffers.  Either way the floats are exactly
        ``score_many_ids(workspace.rows)`` — callers that evaluate the
        same held-out set every tick stay kernel-agnostic.
        """
        return self.score_many_ids(workspace.rows)

    def score_under_candidates(
        self, workspace, candidates: Sequence[tuple[Sequence[int], bool]]
    ) -> list[list[float]]:
        """Score a workspace's rows once per hypothetical training message.

        ``candidates`` holds ``(ids, is_spam)`` pairs of encoded
        messages from this classifier's :attr:`table`.  Entry ``k`` of
        the result is ``score_workspace(workspace)`` as it would read
        with candidate ``k`` — and only candidate ``k`` — learned on
        top of the current state.  The state afterwards is exactly the
        state before.  This is the RONI gate's one scoring primitive.

        This implementation is the executable reference: learn, score,
        unlearn, candidate by candidate (learning and unlearning are
        exact inverses on integer counts).  The NumPy kernel overrides
        it with a vectorized pass that never mutates a count and must
        return the same floats bit for bit.
        """
        results: list[list[float]] = []
        for ids, is_spam in candidates:
            self.learn_ids(ids, is_spam)
            results.append(self.score_workspace(workspace))
            self.unlearn_ids(ids, is_spam)
        return results

    def score_many_ids(self, id_arrays: Iterable[Sequence[int]]) -> list[float]:
        """The columnar bulk-scoring kernel over pre-encoded messages.

        Each element of ``id_arrays`` is a duplicate-free ID sequence
        from this classifier's :attr:`table`.  Three memo layers, all
        invalidated as a whole by any training call:

        * the flat significance memo — a token recurring across the
          batch (fold evaluation: the whole corpus vocabulary recurs)
          pays for its strength test and sort entry once, and repeats
          are served by a C-level ``map`` over the ID array with zero
          per-token bytecode;
        * a message-level score memo keyed by the encoded array object,
          so re-evaluating the same messages against unchanged state
          (one fold under several threshold fits, RONI baselines)
          costs a dict probe per message.

        Scores are bit-identical to per-message :meth:`score`.
        """
        opts = self.options
        minimum = opts.minimum_prob_strength
        max_discriminators = opts.max_discriminators
        combine = self._combine
        self._ensure_columns()
        memo = self._memo_list()
        memo_get = memo.__getitem__
        score_memo = self._score_memo
        if score_memo is None:
            score_memo = self._score_memo = {}
        score_memo_get = score_memo.get
        # The f(w) arithmetic is inlined below (identical expressions,
        # identical floats, same as _prob_for_id) to drop ~1M
        # function-call dispatches per fold sweep.  Subclasses that
        # override _prob_for_id (Graham mode) keep their own formula
        # via the hook path.
        inline_prob = type(self)._prob_for_id is Classifier._prob_for_id
        spam_col = self._spam
        ham_col = self._ham
        table = self._table
        unknown = opts.unknown_word_prob
        strength_s = opts.unknown_word_strength
        nspam = self._nspam
        nham = self._nham
        results: list[float] = []
        for ids in id_arrays:
            cached = score_memo_get(id(ids))
            if cached is not None and cached[0] is ids:
                results.append(cached[1])
                continue
            entries = list(map(memo_get, ids))
            if _MISSING in entries:
                for index, tid in enumerate(ids):
                    if entries[index] is not _MISSING:
                        continue
                    if inline_prob:
                        spamcount = spam_col[tid]
                        hamcount = ham_col[tid]
                        n = spamcount + hamcount
                        if n == 0:
                            prob = unknown
                        else:
                            if nspam == 0 and nham == 0:
                                ps = unknown
                            else:
                                spam_ratio = spamcount / nspam if nspam else 0.0
                                ham_ratio = hamcount / nham if nham else 0.0
                                denominator = spam_ratio + ham_ratio
                                ps = unknown if denominator == 0.0 else spam_ratio / denominator
                            prob = (strength_s * unknown + n * ps) / (strength_s + n)
                    else:
                        prob = self._prob_for_id(tid)
                    strength = abs(prob - 0.5)
                    if strength >= minimum:
                        entry = (-strength, table.token(tid), prob)
                    else:
                        entry = None
                    memo[tid] = entry
                    entries[index] = entry
            # Sorting the tuples *without* a key function gives exactly
            # the significant_tokens() order: strength descending, token
            # text ascending (tokens are unique, so the prob element
            # never participates in a comparison).
            scored = list(filter(None, entries))
            scored.sort()
            score = combine([entry[2] for entry in scored[:max_discriminators]])
            results.append(score)
            if type(ids) is array:
                # Only persistent encoded arrays are worth remembering:
                # ad-hoc lists from the string path would pin dead keys.
                score_memo[id(ids)] = (ids, score)
        return results

    def score_with_evidence(self, tokens: Iterable[str]) -> tuple[float, list[TokenScore]]:
        """Return ``(I(E), δ(E) evidence)`` — used by analysis & defenses."""
        evidence = self.significant_tokens(tokens)
        return self._combine([ts.spam_prob for ts in evidence]), evidence

    @staticmethod
    def _combine(probs: Sequence[float]) -> float:
        # Fused, bit-exact form of fisher_combine(probs) vs
        # fisher_combine([1-p]); see _fisher_message_score.
        return _fisher_message_score(probs)

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
        clone._spam = array(TOKEN_ID_TYPECODE, self._spam)
        clone._ham = array(TOKEN_ID_TYPECODE, self._ham)
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

        self._columns = MemoryCountColumns(self._spam, self._ham)

    def _export_column(self, column):
        """A picklable stand-in for one count column.

        In-memory columns are shipped as-is (byte-identical pickles to
        the pre-storage-layer format); backend views are materialized
        into plain arrays.
        """
        if type(column) is array:
            return column
        return array(TOKEN_ID_TYPECODE, column)

    def __getstate__(self) -> dict:
        # Memos are cheap to rebuild and snapshots are owner-bound, so
        # neither crosses a process boundary.  The table rides along:
        # within one pickle (e.g. a sweep context holding both the
        # model and encoded datasets) object identity is preserved, so
        # shared tables stay shared on the other side.
        if self._snapshot is not None:
            raise TrainingError("cannot pickle a classifier while a snapshot is active")
        return {
            "options": self.options,
            "table": self._table,
            "spam": self._export_column(self._spam),
            "ham": self._export_column(self._ham),
            "nspam": self._nspam,
            "nham": self._nham,
            "active": self._active,
        }

    def __setstate__(self, state: dict) -> None:
        self.options = state["options"]
        self._table = state["table"]
        self._spam = state["spam"]
        self._ham = state["ham"]
        self._adopt_columns()
        self._nspam = state["nspam"]
        self._nham = state["nham"]
        self._active = state["active"]
        self._memo = None
        self._memo_tag = None
        self._dirty = []
        self._score_memo = None
        self._snapshot = None

    def __repr__(self) -> str:
        return (
            f"Classifier(nspam={self._nspam}, nham={self._nham}, "
            f"vocabulary={self._active})"
        )
