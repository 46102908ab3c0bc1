"""mbox-style persistence for datasets.

Generated corpora are deterministic, so persistence is a convenience
(inspecting a poisoned mailbox, interop with real tooling) rather than
a requirement.  The format is classic ``mboxo``: messages separated by
``From `` lines, with a ``X-Repro-Label`` header carrying the gold
label and ``X-Repro-Msgid`` the corpus identity, so a dataset round-
trips losslessly through a single file.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CorpusError
from repro.corpus.dataset import Dataset, LabeledMessage
from repro.spambayes.message import Email

__all__ = ["save_mbox", "iter_mbox", "load_mbox"]

_LABEL_HEADER = "X-Repro-Label"
_MSGID_HEADER = "X-Repro-Msgid"
_BODY_LINES_HEADER = "X-Repro-Body-Lines"
_SEPARATOR_PREFIX = "From "


def save_mbox(dataset: Iterable[LabeledMessage], path: str | Path) -> int:
    """Write messages to ``path`` in mboxo format; returns the count.

    Body lines beginning with ``From `` are quoted with ``>`` per the
    mboxo convention (and unquoted on load).
    """
    path = Path(path)
    count = 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for message in dataset:
                label = "spam" if message.is_spam else "ham"
                body_lines = message.email.body.split("\n")
                handle.write("From repro@localhost Sat Jan  1 00:00:00 2005\n")
                handle.write(f"{_LABEL_HEADER}: {label}\n")
                handle.write(f"{_MSGID_HEADER}: {message.msgid}\n")
                handle.write(f"{_BODY_LINES_HEADER}: {len(body_lines)}\n")
                for name, value in message.email.iter_headers():
                    handle.write(f"{name}: {value}\n")
                handle.write("\n")
                for line in body_lines:
                    if line.startswith(_SEPARATOR_PREFIX):
                        handle.write(">")
                    handle.write(line)
                    handle.write("\n")
                handle.write("\n")
                count += 1
    except OSError as exc:
        raise CorpusError(f"cannot write mbox to {path}: {exc}") from exc
    return count


def _parse_mbox_block(lines: list[str], path: Path) -> tuple[Email, bool]:
    """One mboxo message block back into its email and label."""
    raw = "\n".join(lines)
    email = Email.from_text(raw)
    label = email.get_header(_LABEL_HEADER)
    msgid = email.get_header(_MSGID_HEADER) or ""
    line_count_text = email.get_header(_BODY_LINES_HEADER)
    if label not in ("spam", "ham") or line_count_text is None:
        raise CorpusError(f"mbox message missing repro headers in {path}")
    try:
        line_count = int(line_count_text)
    except ValueError as exc:
        raise CorpusError(f"bad {_BODY_LINES_HEADER} value in {path}") from exc
    headers = [
        (name, value)
        for name, value in email.iter_headers()
        if name not in (_LABEL_HEADER, _MSGID_HEADER, _BODY_LINES_HEADER)
    ]
    body_lines = [
        line[1:] if line.startswith(">" + _SEPARATOR_PREFIX) else line
        for line in email.body.split("\n")
    ][:line_count]
    cleaned = Email(body="\n".join(body_lines), headers=headers, msgid=msgid)
    return cleaned, label == "spam"


def _open(path: Path):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read mbox from {path}: {exc}") from exc


def _lines(handle) -> Iterator[str]:
    """The file's lines without their newlines, read with readline()
    so ``handle.tell()`` stays usable between them."""
    for raw in iter(handle.readline, ""):
        yield raw[:-1] if raw.endswith("\n") else raw


@dataclass(frozen=True)
class _MboxFile:
    """A mailbox as a mail source.

    A message's key is where its block starts (the text file's
    ``tell()`` position) and its msgid, so a load seeks there and
    parses one block.
    """

    path: Path

    def load(self, key: tuple[int, str]) -> Email:
        position, msgid = key
        with _open(self.path) as handle:
            handle.seek(position)
            block = takewhile(lambda line: not line.startswith(_SEPARATOR_PREFIX), _lines(handle))
            email, _ = _parse_mbox_block(list(block), self.path)
        if email.msgid != msgid:
            raise CorpusError(f"mbox at {self.path} changed: no message {msgid!r} there")
        return email

    def msgid(self, key: tuple[int, str]) -> str:
        return key[1]

    def message(self, position: int, lines: list[str]) -> LabeledMessage:
        """The handle of the block at ``position`` (its ``lines``
        parsed once, for the label and msgid, then dropped)."""
        email, is_spam = _parse_mbox_block(lines, self.path)
        return LabeledMessage(self, is_spam, (position, email.msgid))


def iter_mbox(path: str | Path) -> Iterator[LabeledMessage]:
    """Yield messages from an mboxo file lazily, in file order.

    The file is streamed and one message block is parsed at a time.
    Each message is a handle that keeps its block's position, not its
    email: the block is read again when the message is encoded (or its
    email asked for), so the mailbox never materializes in RAM.
    """
    source = _MboxFile(Path(path))
    with _open(source.path) as handle:
        position, lines = 0, []
        for line in _lines(handle):
            if line.startswith(_SEPARATOR_PREFIX):
                if lines:
                    yield source.message(position, lines)
                position, lines = handle.tell(), []
            else:
                lines.append(line)
        if lines:
            yield source.message(position, lines)


def load_mbox(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_mbox`.

    Messages are the handles of :func:`iter_mbox`.
    """
    messages = list(iter_mbox(path))
    if not messages:
        raise CorpusError(f"mbox at {path} contained no messages")
    return Dataset(messages, name=f"mbox({Path(path).name})")
