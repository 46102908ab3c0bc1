"""A lightweight email message model.

The corpus generator, the attacks, and the filter all exchange
:class:`Email` objects.  The model is deliberately RFC-822-*lite*: an
ordered multimap of headers plus a plain-text body.  That is all the
SpamBayes learner ever looks at — MIME structure is flattened by the
TREC corpus preparation step in the paper, and our synthetic corpus
generates flat text to begin with.

Parsing (:meth:`Email.from_text`) accepts the classic wire format:
header lines ``Name: value`` with RFC-822 continuation lines (leading
whitespace), a blank separator line, then the body verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import MessageParseError

__all__ = ["Email"]

_HEADER_SEPARATOR = ":"


@dataclass(slots=True)
class Email:
    """An email as the filter sees it: ordered headers plus body text.

    ``headers`` is a sequence of ``(name, value)`` pairs.  Duplicate
    header names are legal (``Received`` appears many times in real
    mail) and order is preserved — both matter to the tokenizer, which
    emits header tokens with per-name prefixes.

    ``msgid`` is a corpus-level identity used to track messages through
    folds, attacks and defenses.  It is *not* the RFC-822 Message-ID
    header (although the generator often sets both to related values).
    """

    body: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    msgid: str = ""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, msgid: str = "") -> "Email":
        """Parse wire-format text into an :class:`Email`.

        Headers run until the first blank line; a line starting with
        whitespace continues the previous header value.  Text with no
        blank line at all is treated as headerless body only if it also
        contains no parseable header — otherwise it is headers with an
        empty body.
        """
        lines = text.split("\n")
        headers: list[tuple[str, str]] = []
        body_start = len(lines)
        for index, line in enumerate(lines):
            if line == "":
                body_start = index + 1
                break
            if line[0] in " \t":
                if not headers:
                    raise MessageParseError(
                        f"continuation line before any header: {line!r}"
                    )
                name, value = headers[-1]
                headers[-1] = (name, value + " " + line.strip())
                continue
            name, sep, value = line.partition(_HEADER_SEPARATOR)
            if not sep or not name or " " in name:
                # Not header-shaped: the whole text is a body.
                if headers:
                    raise MessageParseError(f"malformed header line: {line!r}")
                return cls(body=text, headers=[], msgid=msgid)
            headers.append((name.strip(), value.strip()))
        body = "\n".join(lines[body_start:])
        return cls(body=body, headers=headers, msgid=msgid)

    @classmethod
    def build(
        cls,
        body: str,
        msgid: str = "",
        subject: str | None = None,
        sender: str | None = None,
        recipient: str | None = None,
        extra_headers: Iterable[tuple[str, str]] = (),
    ) -> "Email":
        """Convenience constructor used by the corpus generator."""
        headers: list[tuple[str, str]] = []
        if sender is not None:
            headers.append(("From", sender))
        if recipient is not None:
            headers.append(("To", recipient))
        if subject is not None:
            headers.append(("Subject", subject))
        headers.extend(extra_headers)
        return cls(body=body, headers=headers, msgid=msgid)

    # ------------------------------------------------------------------
    # Header access
    # ------------------------------------------------------------------

    def get_header(self, name: str, default: str | None = None) -> str | None:
        """Return the first header value for ``name`` (case-insensitive)."""
        wanted = name.lower()
        for header_name, value in self.headers:
            if header_name.lower() == wanted:
                return value
        return default

    @property
    def subject(self) -> str:
        return self.get_header("Subject", "") or ""

    @property
    def sender(self) -> str:
        return self.get_header("From", "") or ""

    def iter_headers(self) -> Iterator[tuple[str, str]]:
        return iter(self.headers)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def as_text(self) -> str:
        """Render back to wire format (headers, blank line, body)."""
        rendered = [f"{name}: {value}" for name, value in self.headers]
        rendered.append("")
        rendered.append(self.body)
        return "\n".join(rendered)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.as_text()
