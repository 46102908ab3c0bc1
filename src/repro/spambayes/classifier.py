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
    and worker.  Counts and scores are bit-exact against the paper's
    formulas written out as a test-local oracle
    (``tests/spambayes_spec.py``), which ``tests/test_spec_oracle.py``
    holds both kernels to over random options and histories.

Both :meth:`Classifier.learn` and :meth:`Classifier.unlearn` are
incremental, which the experiment harness leans on heavily: a fold's
clean model is trained once and attack batches are layered on top, and
the RONI defense trains/untrains candidate messages in place.

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
    deactivates it.  The NumPy kernel inherits both methods unchanged.

Scoring and the significance memo
    Every scoring path — :meth:`Classifier.score`,
    :meth:`Classifier.score_many` and :meth:`Classifier.score_many_ids`
    — runs one loop: fill the flat significance memo (indexed by token
    ID) for the batch's IDs through :meth:`Classifier._prob_for_id`,
    sort each message's significant entries, combine them with
    Fisher's method (:mod:`repro.spambayes.chi2`).  A memo entry is a
    pure function of its token's counts and of ``(nspam, nham)``, so a
    training call evicts only the IDs it touched while ``(nspam,
    nham)`` returns to the memo's tag (the RONI gate's learn/score/
    unlearn cycle); any other change rebuilds the memo.  Scores are
    exactly what per-message :meth:`Classifier.score` returns.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, repeat
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import TrainingError
from repro.spambayes.chi2 import fisher_combine
from repro.spambayes.options import ClassifierOptions, DEFAULT_OPTIONS
from repro.spambayes.token_table import TOKEN_ID_TYPECODE, TokenTable
from repro.spambayes.wordinfo import WordInfo

__all__ = ["Classifier", "ClassifierSnapshot", "TokenScore"]

# Memo sentinel for "never computed" (None means "computed, not
# significant", so the kernel can drop insignificant entries with a
# C-level filter(None, ...)).
_MISSING = object()


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

    Works on any writable contiguous buffer — ``array``, ``memoryview``
    or ``ndarray`` — as one byte copy.  The views are released before
    returning, so an ``array`` column can still grow afterwards.
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
        # Bumped by every count change (training calls and restore):
        # caches that do not track touched IDs compare it to the value
        # they were built at and rebuild on any difference.
        self._generation = 0
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

        The memo survives with the touched IDs queued for lazy,
        targeted eviction (see :meth:`_memo_list`), unless the dirty
        backlog grows past the point where a rebuild is cheaper.
        """
        self._generation += 1
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

    def learn_groups(self, groups: Iterable[tuple[Sequence[int], bool, int]]) -> None:
        """Learn a set of message groups in one call.

        ``groups`` holds ``(ids, is_spam, count)`` triples — ``count``
        copies of one pre-encoded message, as
        :func:`~repro.corpus.dataset.group_token_ids` returns them.
        The state afterwards is exactly what one
        :meth:`learn_ids_repeated` call per group would leave; every
        count is checked before any is applied.  The NumPy kernel
        overrides this with one vectorized pass per label.
        """
        groups = _checked_groups(groups)
        for ids, is_spam, count in groups:
            self.learn_ids_repeated(ids, is_spam, count)

    def unlearn_groups(self, groups: Iterable[tuple[Sequence[int], bool, int]]) -> None:
        """Reverse :meth:`learn_groups` with the same groups.

        Validates every group before mutating anything, and raises the
        error the first failing :meth:`unlearn_ids_repeated` call of a
        per-group loop would raise, so a failed call leaves the
        classifier unchanged.
        """
        groups = list(groups)
        self._check_group_removal(groups)
        for ids, is_spam, count in groups:
            self.unlearn_ids_repeated(ids, is_spam, count)

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

    def _apply_delta(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Add ``count`` to one class column for every ID (no checks)."""
        self._ensure_columns()
        spam_col = self._spam
        ham_col = self._ham
        col = spam_col if is_spam else ham_col
        other = ham_col if is_spam else spam_col
        active = self._active
        for tid in ids:
            current = col[tid]
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
                raise self._negative_count_error(tid)

    def _apply_removal(self, ids: Sequence[int], is_spam: bool, count: int) -> None:
        """Subtract ``count`` from one class column (caller validated)."""
        spam_col = self._spam
        ham_col = self._ham
        col = spam_col if is_spam else ham_col
        other = ham_col if is_spam else spam_col
        active = self._active
        for tid in ids:
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
        self._generation += 1

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
        every scoring path — single-token, per-message and bulk —
        routes through it.  Columns must already cover ``token_id``
        (callers go through :meth:`_ensure_columns`).
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
        """Compute every ``_MISSING`` memo entry among ``ids``.

        The scoring loop's one fill step: :meth:`_ranked` hands it the
        batch's IDs once before combining, so the combine reads
        finished entries only.  This is the per-token fill through
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

        Every batch takes the memo-and-combine loop: its known IDs are
        gathered and handed to one :meth:`_fill_memo` call, which
        computes every entry a training call invalidated (the NumPy
        kernel in one vectorized pass), and then each message sorts and
        combines finished memo entries.  Under served feedback every
        ``learn`` moves ``(nspam, nham)`` and voids the whole memo, so
        the refill is the per-batch cost that matters.

        String batches never go to :meth:`score_many_ids`, not even
        those with no unseen token.  Each served ``feedback`` grows the
        table, so that route rebuilds the vocabulary-wide
        :meth:`TokenTable.text_order_ranks` with a ``sorted()`` after
        every learn; and on the serve benchmark (``serve-session``,
        2-core host) its fixed ~190 µs per call made read-only batches
        of one message cost 245–271 µs against 78–99 µs.
        """
        return self._combine_ranked(self._resolve(token_sets))

    def _combine_ranked(self, encoded: list[tuple[Sequence[int], Sequence[str]]]) -> list[float]:
        """Each message's score from its :meth:`_ranked` entries."""
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
        """I(E) for a batch of pre-encoded messages.

        Each element of ``id_arrays`` is a duplicate-free ID sequence
        from this classifier's :attr:`table`.  The batch takes the same
        fill-sort-combine loop as :meth:`score_many`; a token recurring
        across the batch (fold evaluation: the whole corpus vocabulary
        recurs) pays for its probability and strength test once.
        Scores are bit-identical to per-message :meth:`score`.
        """
        return self._combine_ranked([(ids, ()) for ids in id_arrays])

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
        self._generation = 0
        self._snapshot = None

    def __repr__(self) -> str:
        return (
            f"Classifier(nspam={self._nspam}, nham={self._nham}, "
            f"vocabulary={self._active})"
        )
