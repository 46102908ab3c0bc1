"""The TREC-2005-style corpus bundle used by every experiment.

The real TREC 2005 public spam corpus (Cormack & Lynam 2005) contains
92,189 messages — 52,790 spam and 39,399 ham — built on Enron mail.
:class:`TrecStyleCorpus` is our deterministic synthetic equivalent
(DESIGN.md §4 records the substitution argument), bundling:

* the generated :class:`~repro.corpus.dataset.Dataset`,
* the :class:`~repro.corpus.vocabulary.Vocabulary` it was drawn from
  (attacks need it to build dictionaries and the optimal token set),
* the generator, so experiments can mint additional targets on demand.

When a real TREC corpus is available on disk, :func:`load_trec_corpus`
reads its standard index format instead, so the whole pipeline can run
against the genuine data unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import CorpusError
from repro.rng import SeedSpawner
from repro.corpus.dataset import Dataset, LabeledMessage
from repro.corpus.generator import EmailGenerator, GeneratorConfig
from repro.corpus.vocabulary import (
    Vocabulary,
    VocabularyProfile,
    SMALL_PROFILE,
)
from repro.spambayes.message import Email

__all__ = [
    "GeneratedMail",
    "TREC05_SPAM_COUNT",
    "TREC05_HAM_COUNT",
    "TrecStyleCorpus",
    "iter_trec_corpus",
    "load_trec_corpus",
]

TREC05_SPAM_COUNT = 52_790
TREC05_HAM_COUNT = 39_399
_TREC05_SPAM_PREVALENCE = TREC05_SPAM_COUNT / (TREC05_SPAM_COUNT + TREC05_HAM_COUNT)


@dataclass(frozen=True)
class GeneratedMail:
    """One class of a generated corpus as a mail source.

    Message ``i`` is ``generator.ham_email(i)`` (``spam_email(i)`` for
    the spam class), a pure function of (vocabulary, config, seed, i),
    so an index is all a handle needs to hold.
    """

    generator: EmailGenerator
    is_spam: bool

    def load(self, index: int) -> Email:
        if self.is_spam:
            return self.generator.spam_email(index)
        return self.generator.ham_email(index)

    def msgid(self, index: int) -> str:
        return self.generator.msgid(self.is_spam, index)


@dataclass(frozen=True)
class _TrecFiles:
    """A TREC tree as a mail source: a message is its index path."""

    index_parent: Path

    def load(self, relative: str) -> Email:
        return _read_trec_message(self.index_parent, relative)

    def msgid(self, relative: str) -> str:
        return relative


@dataclass(frozen=True)
class TrecStyleCorpus:
    """A generated corpus plus everything attacks need to target it.

    The dataset's messages are handles: nothing is generated until a
    message is first encoded (or its email asked for), so a run pays
    for the mail it samples, not for the whole corpus.
    """

    dataset: Dataset
    vocabulary: Vocabulary
    generator: EmailGenerator
    seed: int

    @classmethod
    def generate(
        cls,
        n_ham: int = 2_000,
        n_spam: int | None = None,
        profile: VocabularyProfile = SMALL_PROFILE,
        config: GeneratorConfig | None = None,
        seed: int = 0,
    ) -> "TrecStyleCorpus":
        """Generate a corpus with TREC-like class balance.

        ``n_spam`` defaults to matching TREC 2005's 57.3% spam
        prevalence.  Messages are interleaved in a deterministic
        shuffle so corpus order carries no label signal.
        """
        if n_ham < 1:
            raise CorpusError(f"n_ham must be >= 1, got {n_ham}")
        if n_spam is None:
            n_spam = round(n_ham * _TREC05_SPAM_PREVALENCE / (1.0 - _TREC05_SPAM_PREVALENCE))
        if n_spam < 0:
            raise CorpusError(f"n_spam must be >= 0, got {n_spam}")
        vocabulary = Vocabulary.build(profile, seed=seed)
        generator = EmailGenerator(vocabulary, config=config, seed=seed)
        ham, spam = GeneratedMail(generator, False), GeneratedMail(generator, True)
        messages = [LabeledMessage(ham, False, i) for i in range(n_ham)]
        messages.extend(LabeledMessage(spam, True, i) for i in range(n_spam))
        SeedSpawner(seed).rng("trec-shuffle").shuffle(messages)
        dataset = Dataset(messages, name=f"trec-style(seed={seed})")
        return cls(dataset=dataset, vocabulary=vocabulary, generator=generator, seed=seed)


def _read_trec_message(index_parent: Path, relative: str) -> Email:
    message_path = (index_parent / relative).resolve()
    try:
        text = message_path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise CorpusError(f"cannot read TREC message {message_path}: {exc}") from exc
    return Email.from_text(text, msgid=relative)


def iter_trec_corpus(
    root: str | Path, limit: int | None = None
) -> Iterator[LabeledMessage]:
    """Yield a real TREC corpus's messages lazily, in index order.

    The index is streamed and each message is a handle over its file:
    the file is read when the message is encoded (or its email asked
    for), so callers never hold the corpus text in RAM.
    """
    root = Path(root)
    index_path = root / "full" / "index"
    if not index_path.is_file():
        raise CorpusError(f"no TREC index at {index_path}")
    files = _TrecFiles(index_path.parent)
    yielded = 0
    with open(index_path, "r", encoding="utf-8", errors="replace") as index_file:
        for line_number, line in enumerate(index_file):
            if limit is not None and yielded >= limit:
                break
            parts = line.split()
            if len(parts) != 2:
                raise CorpusError(f"malformed TREC index line {line_number}: {line!r}")
            label, relative = parts
            if label not in ("spam", "ham"):
                raise CorpusError(f"unknown TREC label {label!r} on line {line_number}")
            if not (index_path.parent / relative).is_file():
                raise CorpusError(f"no TREC message file {relative!r} (line {line_number})")
            yield LabeledMessage(files, label == "spam", relative)
            yielded += 1


def load_trec_corpus(root: str | Path, limit: int | None = None) -> Dataset:
    """Load a real TREC spam corpus from its standard layout.

    ``root`` must contain ``full/index`` with lines of the form
    ``spam ../data/000/inmail.1`` — the format shipped by trec05p-1.
    Only usable when the (public but non-redistributable) corpus has
    been placed on disk; every experiment accepts the resulting
    :class:`Dataset` in place of the synthetic one.

    Messages are the handles of :func:`iter_trec_corpus`: each file is
    read when its message is first encoded, and under
    ``REPRO_STORE=disk`` the encoded rows live in SQLite, so the corpus
    never fully materializes in RAM.
    """
    root = Path(root)
    messages = list(iter_trec_corpus(root, limit))
    if not messages:
        raise CorpusError(f"TREC index at {root / 'full' / 'index'} contained no messages")
    return Dataset(messages, name=f"trec({root.name})")
