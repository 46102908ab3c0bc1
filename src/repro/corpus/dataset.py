"""Labeled datasets: the unit the experiment harness manipulates.

A :class:`Dataset` is an ordered collection of :class:`LabeledMessage`
handles with the operations the paper's protocol needs:

* *inbox sampling* — draw an N-message inbox with a given spam
  prevalence (Table 1's "training set size" and "spam prevalence"),
* *K-fold cross-validation* — partition into folds, yielding
  train/test pairs (Section 4.1),
* *ID encoding* — against a shared
  :class:`~repro.spambayes.token_table.TokenTable`, each message is
  loaded, tokenized and interned once into a sorted token-ID ``array``
  (:meth:`LabeledMessage.token_ids`), and only that row is kept; the
  classifier's ``*_ids`` methods and the sweep engine's workers
  consume these directly, so no string is hashed in any training or
  scoring loop;
* *grouping* — :func:`group_token_ids` collapses messages with the
  same (label, ID row) into one group, an attack batch being one
  group, for training (:func:`train_grouped`), the threshold fit and
  the RONI gate.

Messages are handles, not mail.  A handle holds its label and a
*source* with the key the source loads it by: the email itself, a
mail source (generated corpora regenerate message ``i`` from the seed,
file corpora re-read a file), or an :class:`AttackPayload` that the
copies of one attack group share.  Until a message is first encoded
nothing of it is materialized; the email and its token set exist only
for the length of that encode.  Datasets are cheap views: folds and
samples share the underlying handles (and therefore their encoded
rows).
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

from repro.errors import CorpusError
from repro.spambayes.message import Email
from repro.spambayes.token_table import TokenTable
from repro.spambayes.tokenizer import Tokenizer, DEFAULT_TOKENIZER

if TYPE_CHECKING:
    from repro.attacks.base import AttackBatch
    from repro.spambayes.classifier import Classifier

__all__ = [
    "LabeledMessage",
    "MailSource",
    "AttackPayload",
    "Dataset",
    "group_token_ids",
    "train_grouped",
    "unlearn_grouped",
]


class MailSource(Protocol):
    """Where lazy messages come from: ``load(key)`` re-creates the
    email of the message named ``key``, ``msgid(key)`` names it without
    loading.  One source serves a whole corpus (or one class of it), so
    a handle costs its key, not a closure."""

    def load(self, key) -> Email: ...

    def msgid(self, key) -> str: ...


class AttackPayload:
    """One attack group as the source its messages share.

    Every copy of group ``index`` of ``batch`` points at one
    ``AttackPayload``, so the copies share the group's token set and,
    through :meth:`~repro.attacks.base.AttackBatch.encode` (cached per
    batch and table), one encoded row, instead of each interning a
    dictionary-sized set.  A payload message's key is its msgid; its
    email is an empty body, as no email text reproduces the payload.
    """

    __slots__ = ("batch", "index")

    def __init__(self, batch: "AttackBatch", index: int) -> None:
        self.batch = batch
        self.index = index

    @property
    def tokens(self) -> frozenset[str]:
        return self.batch.groups[self.index].training_tokens

    def encode(self, table: TokenTable) -> array:
        return self.batch.encode(table)[self.index][0]

    def load(self, key: str) -> Email:
        return Email(body="", msgid=key)

    def msgid(self, key: str) -> str:
        return key


class LabeledMessage:
    """One message's handle: gold label, source and key, encoded row.

    ``source`` is an :class:`Email`, or a :class:`MailSource` (an
    :class:`AttackPayload` included) with the ``key`` it loads this
    message by.

    :meth:`token_ids` encodes the message against a table the first
    time it is asked for that table and keeps only the sorted ID row
    (in the table's row store: the handle itself on the in-memory
    backend, SQLite on the disk one).  Asked for another table, the
    handle moves: it decodes its row from the old table and re-encodes
    the text, never reloading the email.  Payload messages keep no row
    of their own; their batch holds it.

    :meth:`tokens` is transient: decoded from the row when the message
    is encoded, otherwise loaded and tokenized, and never cached.
    """

    __slots__ = ("is_spam", "_key", "_source", "_row", "_table")

    def __init__(self, source: "Email | MailSource", is_spam: bool, key=None) -> None:
        if key is None and not isinstance(source, Email):
            raise CorpusError("a message without its email needs the key to load it by")
        self.is_spam = is_spam
        self._key = key
        self._source = source
        self._row = None
        self._table: TokenTable | None = None

    @property
    def msgid(self) -> str:
        source = self._source
        return source.msgid if isinstance(source, Email) else source.msgid(self._key)

    @property
    def email(self) -> Email:
        """The message's email, loaded again on every access."""
        source = self._source
        return source if isinstance(source, Email) else source.load(self._key)

    def tokens(self, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> frozenset[str]:
        """The message's token set, built for the caller and not kept."""
        source = self._source
        if isinstance(source, AttackPayload):
            return source.tokens
        return frozenset(self._text(tokenizer))

    def token_ids(self, table: TokenTable, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> array:
        """The message's sorted, duplicate-free token-ID array.

        Encoded once per ``table``, then reused by every fold, attack
        batch and worker that scores or trains this message.  The
        table is append-only, so a kept row never goes stale.
        """
        source = self._source
        if isinstance(source, AttackPayload):
            return source.encode(table)
        if table is not self._table:
            ids = table.encode_unique(self._text(tokenizer))
            self._row = table.keep_row(ids)
            self._table = table
            return ids
        return table.fetch_row(self._row)

    def _text(self, tokenizer: Tokenizer) -> Iterable[str]:
        """The tokens to encode: decoded from the current table when
        there is one, so a move never reloads the email."""
        table = self._table
        if table is not None:
            return table.decode(table.fetch_row(self._row))
        return tokenizer.tokenize(self.email)

    def __getstate__(self):
        # A row kept in a store travels as the array itself, next to
        # its table (which pickles by value).
        table = self._table
        row = None if table is None else table.fetch_row(self._row)
        return (self.is_spam, self._key, self._source, row, table)

    def __setstate__(self, state) -> None:
        self.is_spam, self._key, self._source, self._row, self._table = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabeledMessage({self.msgid!r}, is_spam={self.is_spam})"


def group_token_ids(
    messages: Iterable[LabeledMessage],
    table: TokenTable,
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> tuple[list[tuple[array, bool, int]], list[int]]:
    """Collapse ``messages`` into distinct ``(is_spam, ID row)`` groups.

    Returns one ``(token_ids, is_spam, count)`` per group in first-seen
    order, and each message's group index.  Within one table, equal
    rows mean equal token sets, so this is the partition by
    ``(is_spam, token set)``.  Messages are encoded in order, so
    ``table`` grows as per-message encoding would.  The copies of one
    attack payload share one row object: after the first, each is one
    identity probe, never a dictionary-sized comparison.
    """
    by_content: dict[tuple[bool, bytes], int] = {}
    # id() of a row already kept in ``groups`` (so the id cannot be
    # reused while this dict lives) -> its slot.
    by_object: dict[tuple[bool, int], int] = {}
    groups: list[list] = []
    slots: list[int] = []
    for message in messages:
        row = message.token_ids(table, tokenizer)
        is_spam = message.is_spam
        slot = by_object.get((is_spam, id(row)))
        if slot is None:
            slot = by_content.setdefault((is_spam, row.tobytes()), len(groups))
            if slot == len(groups):
                groups.append([row, is_spam, 0])
                by_object[(is_spam, id(row))] = slot
        groups[slot][2] += 1
        slots.append(slot)
    return [tuple(group) for group in groups], slots


def train_grouped(
    classifier: "Classifier",
    messages: Iterable[LabeledMessage],
    tokenizer: Tokenizer = DEFAULT_TOKENIZER,
) -> None:
    """Train ``messages``, collapsing identical token sets into one pass.

    Messages are encoded against the classifier's interning table, so
    training is a sweep over ID arrays, not string sets.
    """
    classifier.learn_groups(group_token_ids(messages, classifier.table, tokenizer)[0])


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
    classifier.unlearn_groups(group_token_ids(messages, classifier.table, tokenizer)[0])


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

    def encode(
        self,
        table: TokenTable | None = None,
        tokenizer: Tokenizer = DEFAULT_TOKENIZER,
    ) -> TokenTable:
        """Encode every message into sorted token-ID arrays, in order.

        Streams the messages one at a time through load → tokenize →
        intern into ``table`` (a fresh one when omitted), keeping only
        each row.  Returns the table — hand it to
        ``Classifier(options, table=...)`` so the encoded arrays index
        straight into the classifier's count columns.
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
        """Union of all token sets in the dataset (decoded from each
        encoded message's table)."""
        tokens: set[str] = set()
        for message in self._messages:
            tokens |= message.tokens(tokenizer)
        return tokens

    def __repr__(self) -> str:
        n_ham, n_spam = self.counts()
        return f"Dataset({self.name!r}, ham={n_ham}, spam={n_spam})"
