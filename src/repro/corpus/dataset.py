"""Labeled datasets: the unit the experiment harness manipulates.

A :class:`Dataset` is an ordered collection of :class:`LabeledMessage`
objects with the operations the paper's protocol needs:

* *inbox sampling* — draw an N-message inbox with a given spam
  prevalence (Table 1's "training set size" and "spam prevalence"),
* *K-fold cross-validation* — partition into folds, yielding
  train/test pairs (Section 4.1),
* *token caching* — each message's token set is computed once and
  shared by every fold, repetition and attack sweep that touches it,
* *ID encoding* — against a shared
  :class:`~repro.spambayes.token_table.TokenTable`, each message's
  token set is interned once into a sorted token-ID ``array``
  (:meth:`LabeledMessage.token_ids`); the classifier's ``*_ids``
  methods and the sweep engine's workers consume these directly, so no
  string is hashed in any training or scoring loop;
* *grouping* — :func:`group_token_ids` encodes each distinct (label,
  token set) once, an attack batch being one group, for training
  (:func:`train_grouped`), the threshold fit and the RONI gate.

Datasets are cheap views: folds and samples share the underlying
``LabeledMessage`` objects (and therefore the token and ID caches).
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import CorpusError
from repro.spambayes.message import Email
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from repro.spambayes.classifier import Classifier

__all__ = [
    "LabeledMessage",
    "StoredMessage",
    "Dataset",
    "store_message",
    "group_token_ids",
    "train_grouped",
    "unlearn_grouped",
]


@dataclass(slots=True)
class LabeledMessage:
    """One email with its gold label, a cached token set and a cached
    token-ID encoding."""

    email: Email
    is_spam: bool
    _tokens: frozenset[str] | None = field(default=None, repr=False)
    _token_ids: array | None = field(default=None, repr=False)
    _ids_table: TokenTable | None = field(default=None, repr=False, compare=False)

    @property
    def msgid(self) -> str:
        return self.email.msgid

    def tokens(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> frozenset[str]:
        """The message's token set, computed once and cached.

        The cache is keyed by nothing: all built-in experiments share
        one tokenizer configuration. Call :meth:`invalidate_tokens`
        first if you must re-tokenize with different options.
        """
        if self._tokens is None:
            self._tokens = frozenset(tokenizer.tokenize(self.email))
        return self._tokens

    def token_ids(self, table: TokenTable, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> array:
        """The message's sorted, duplicate-free token-ID array.

        Encoded once per ``table`` (identity-keyed cache) and then
        reused by every fold, attack batch and worker that scores or
        trains this message.  The table is append-only, so a cached
        encoding never goes stale — new vocabulary elsewhere cannot
        shift these IDs.
        """
        if self._token_ids is None or self._ids_table is not table:
            self._token_ids = table.encode_unique(self.tokens(tokenizer))
            self._ids_table = table
        return self._token_ids

    def invalidate_tokens(self) -> None:
        self._tokens = None
        self._token_ids = None
        self._ids_table = None


class StoredMessage:
    """A message whose encoded form lives in a backend message store.

    The disk-backed counterpart of :class:`LabeledMessage`, duck-typed
    to the same interface (``email``, ``is_spam``, ``msgid``,
    ``tokens``, ``token_ids``, ``invalidate_tokens``) so datasets,
    folds, the sweep engine and the stream runner handle both without
    branching.  The handle itself holds only ``(store, row, label)``:

    * ``token_ids(table)`` against the store's own ingest table is one
      row fetch — no tokenization, no interning, no retained cache;
      against any *other* table it decodes the stored IDs back to text
      and re-encodes, same result as the in-memory path;
    * ``tokens()`` decodes transiently and never caches — not caching
      is the point; the memory the in-memory path spends on token sets
      is exactly what the disk backend exists to avoid;
    * ``email`` is re-materialized on demand through ``email_loader``
      (synthetic corpora regenerate from the seed, file corpora
      re-read the source); stores do not retain bodies.

    Ingestion tokenizes once (see :func:`store_message`); handles
    assume the same tokenizer configuration, like every cache in this
    module.  Pickling materializes a plain :class:`LabeledMessage` —
    handles are process-local because their store connections are.
    """

    __slots__ = ("_store", "_row", "is_spam", "_email_loader")

    def __init__(self, store, row: int, is_spam: bool, email_loader=None) -> None:
        self._store = store
        self._row = row
        self.is_spam = is_spam
        self._email_loader = email_loader

    @property
    def msgid(self) -> str:
        return self._store.msgid(self._row)

    @property
    def email(self) -> Email:
        if self._email_loader is None:
            raise CorpusError(
                "message body was not retained by the message store "
                "and no loader was provided at ingest"
            )
        return self._email_loader()

    def tokens(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> frozenset[str]:
        store = self._store
        return frozenset(store.table.decode(store.ids(self._row)))

    def token_ids(self, table: TokenTable, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> array:
        if table is self._store.table:
            return self._store.ids(self._row)
        return table.encode_unique(self.tokens(tokenizer))

    def invalidate_tokens(self) -> None:
        """Nothing cached, nothing to invalidate (interface parity)."""

    def __reduce__(self):
        return (LabeledMessage, (self.email, self.is_spam))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoredMessage(row={self._row}, is_spam={self.is_spam})"


def store_message(
    store,
    email: Email,
    is_spam: bool,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    email_loader=None,
) -> StoredMessage:
    """Ingest one message into a backend store, returning its handle.

    The streaming-ingestion primitive: tokenize, intern into the
    store's table (seed-stable batch order), append one row.  Nothing
    about the email is retained in RAM afterwards.
    """
    ids = store.table.encode_unique(frozenset(tokenizer.tokenize(email)))
    row = store.append(email.msgid, is_spam, ids)
    return StoredMessage(store, row, is_spam, email_loader=email_loader)


def group_token_ids(
    messages: Iterable[LabeledMessage],
    table: TokenTable,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> tuple[list[tuple[array, bool, int]], list[int]]:
    """Collapse ``messages`` into distinct ``(is_spam, token set)`` groups.

    Returns one ``(token_ids, is_spam, count)`` per group in first-seen
    order, and each message's group index.  Grouping probes the cached
    token *frozensets* (an attack batch shares one set object, whose
    cached hash makes the probe O(1)); each group is encoded once, in
    first-seen order, so ``table`` grows as per-message encoding would.
    """
    slot_of: dict[tuple[bool, frozenset[str]], int] = {}
    firsts: list[LabeledMessage] = []
    slots: list[int] = []
    for message in messages:
        slot = slot_of.setdefault((message.is_spam, message.tokens(tokenizer)), len(firsts))
        if slot == len(firsts):
            firsts.append(message)
        slots.append(slot)
    counts = Counter(slots)
    groups = [
        (message.token_ids(table, tokenizer), message.is_spam, counts[slot])
        for slot, message in enumerate(firsts)
    ]
    return groups, slots


def train_grouped(
    classifier: "Classifier",
    messages: Iterable[LabeledMessage],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> None:
    """Train ``messages``, collapsing identical token sets into one pass.

    Messages are encoded against the classifier's interning table, so
    training is a sweep over ID arrays, not string sets.
    """
    for ids, is_spam, count in group_token_ids(messages, classifier.table, tokenizer)[0]:
        classifier.learn_ids_repeated(ids, is_spam, count)


def unlearn_grouped(
    classifier: "Classifier",
    messages: Iterable[LabeledMessage],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> None:
    """Exact inverse of :func:`train_grouped` for the same messages.

    This is how a fold's clean model is derived from the shared
    full-inbox model: unlearn the held-out stripe instead of retraining
    the other K-1 folds.
    """
    for ids, is_spam, count in group_token_ids(messages, classifier.table, tokenizer)[0]:
        classifier.unlearn_ids_repeated(ids, is_spam, count)


class Dataset:
    """An ordered, labeled message collection with sampling utilities."""

    def __init__(self, messages: Sequence[LabeledMessage], name: str = "dataset") -> None:
        self._messages = list(messages)
        self.name = name

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[LabeledMessage]:
        return iter(self._messages)

    def __getitem__(self, index: int) -> LabeledMessage:
        return self._messages[index]

    @property
    def messages(self) -> list[LabeledMessage]:
        return self._messages

    @property
    def ham(self) -> list[LabeledMessage]:
        return [m for m in self._messages if not m.is_spam]

    @property
    def spam(self) -> list[LabeledMessage]:
        return [m for m in self._messages if m.is_spam]

    @property
    def spam_fraction(self) -> float:
        if not self._messages:
            return 0.0
        return sum(1 for m in self._messages if m.is_spam) / len(self._messages)

    def counts(self) -> tuple[int, int]:
        """Return ``(n_ham, n_spam)``."""
        n_spam = sum(1 for m in self._messages if m.is_spam)
        return len(self._messages) - n_spam, n_spam

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------

    def subset(self, indices: Iterable[int], name: str | None = None) -> "Dataset":
        """View over the messages at ``indices`` (shared objects)."""
        return Dataset(
            [self._messages[i] for i in indices],
            name=name or f"{self.name}/subset",
        )

    def filtered(self, predicate: Callable[[LabeledMessage], bool]) -> "Dataset":
        return Dataset([m for m in self._messages if predicate(m)], name=f"{self.name}/filtered")

    def shuffled(self, rng: random.Random) -> "Dataset":
        order = list(range(len(self._messages)))
        rng.shuffle(order)
        return self.subset(order, name=f"{self.name}/shuffled")

    def sample_inbox(
        self,
        size: int,
        spam_fraction: float,
        rng: random.Random,
        name: str | None = None,
    ) -> "Dataset":
        """Draw an inbox of ``size`` messages at the given prevalence.

        Sampling is without replacement within each class; the class
        counts are ``round(size * spam_fraction)`` spam and the rest
        ham, matching the paper's "N-message inbox with 50% spam".
        """
        if not 0.0 <= spam_fraction <= 1.0:
            raise CorpusError(f"spam_fraction must be in [0, 1], got {spam_fraction}")
        n_spam = round(size * spam_fraction)
        n_ham = size - n_spam
        ham_pool, spam_pool = self.ham, self.spam
        if n_ham > len(ham_pool):
            raise CorpusError(
                f"inbox needs {n_ham} ham but corpus has only {len(ham_pool)}"
            )
        if n_spam > len(spam_pool):
            raise CorpusError(
                f"inbox needs {n_spam} spam but corpus has only {len(spam_pool)}"
            )
        picked = rng.sample(ham_pool, n_ham) + rng.sample(spam_pool, n_spam)
        rng.shuffle(picked)
        return Dataset(picked, name=name or f"{self.name}/inbox{size}")

    def split(self, first_fraction: float, rng: random.Random) -> tuple["Dataset", "Dataset"]:
        """Random partition into two datasets (used by the threshold defense)."""
        if not 0.0 < first_fraction < 1.0:
            raise CorpusError(f"first_fraction must be in (0, 1), got {first_fraction}")
        order = list(range(len(self._messages)))
        rng.shuffle(order)
        cut = round(len(order) * first_fraction)
        return (
            self.subset(order[:cut], name=f"{self.name}/split-a"),
            self.subset(order[cut:], name=f"{self.name}/split-b"),
        )

    def k_fold_indices(
        self, k: int, rng: random.Random
    ) -> list[tuple[list[int], list[int]]]:
        """The ``k`` (train, test) partitions as index lists.

        This is what :meth:`k_folds` materializes; the sweep engine
        ships the index lists to worker processes instead of pickling
        one dataset view per fold.  Draws from ``rng`` exactly once
        (the shuffle), so seeding downstream of this call is identical
        whether folds are consumed lazily or planned up front.
        """
        if k < 2:
            raise CorpusError(f"k_folds needs k >= 2, got {k}")
        if k > len(self._messages):
            raise CorpusError(f"k={k} folds but only {len(self._messages)} messages")
        order = list(range(len(self._messages)))
        rng.shuffle(order)
        folds = [order[i::k] for i in range(k)]
        pairs = []
        for i in range(k):
            test_indices = folds[i]
            train_indices = [idx for j, fold in enumerate(folds) if j != i for idx in fold]
            pairs.append((train_indices, test_indices))
        return pairs

    def k_folds(
        self, k: int, rng: random.Random
    ) -> Iterator[tuple["Dataset", "Dataset"]]:
        """Yield ``k`` (train, test) cross-validation pairs.

        The shuffle happens once; fold ``i`` holds out the ``i``-th
        stripe as the test set, so every message serves as test data
        exactly once (Section 4.1).
        """
        for i, (train_indices, test_indices) in enumerate(self.k_fold_indices(k, rng)):
            yield (
                self.subset(train_indices, name=f"{self.name}/fold{i}-train"),
                self.subset(test_indices, name=f"{self.name}/fold{i}-test"),
            )

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def tokenize_all(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> None:
        """Force-populate every message's token cache (bulk warm-up)."""
        for message in self._messages:
            message.tokens(tokenizer)

    def encode(
        self,
        table: TokenTable | None = None,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ) -> TokenTable:
        """Encode every message into sorted token-ID arrays.

        Interns the dataset's whole vocabulary into ``table`` (a fresh
        one when omitted) and populates each message's
        :meth:`LabeledMessage.token_ids` cache.  Returns the table —
        hand it to ``Classifier(options, table=...)`` so the encoded
        arrays index straight into the classifier's count columns.
        """
        if table is None:
            # The backend decides where a fresh table lives (in-memory
            # TokenTable by default; SQLite-backed under
            # REPRO_STORE=disk).  Imported lazily: dataset is a leaf
            # module the storage package's consumers also import.
            from repro import storage

            table = storage.active_backend().new_token_table()
        for message in self._messages:
            message.token_ids(table, tokenizer)
        return table

    def encode_csr(
        self,
        table: TokenTable | None = None,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ):
        """Encode the dataset as one contiguous CSR message matrix.

        Like :meth:`encode`, but additionally packs every message's ID
        array into a single :class:`~repro.spambayes.ndkernel.CsrMatrix`
        (indptr/indices over the whole dataset) — the layout the
        vectorized kernel scores without touching Python objects.
        Returns ``(table, matrix)``; ``matrix.row(i)`` is
        message ``i``'s sorted ID array, identical in content to
        :meth:`LabeledMessage.token_ids`.

        Requires NumPy; raises ``ConfigurationError`` otherwise (use
        :meth:`encode` for the array-per-message form).
        """
        from repro.spambayes import ndkernel

        if not ndkernel.available():
            from repro.errors import ConfigurationError

            raise ConfigurationError("encode_csr requires NumPy; use encode()")
        table = self.encode(table, tokenizer)
        matrix = ndkernel.CsrMatrix.from_rows(
            [message.token_ids(table, tokenizer) for message in self._messages]
        )
        return table, matrix

    def vocabulary(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> set[str]:
        """Union of all token sets in the dataset."""
        tokens: set[str] = set()
        for message in self._messages:
            tokens |= message.tokens(tokenizer)
        return tokens

    def __repr__(self) -> str:
        n_ham, n_spam = self.counts()
        return f"Dataset({self.name!r}, ham={n_ham}, spam={n_spam})"
