"""Email tokenization in the style of SpamBayes.

The paper notes (footnote 1) that the main difference between the
SpamBayes / BogoFilter / SpamAssassin learners is tokenization, and the
attacks are defined over the token space, so the tokenizer matters.
This module reproduces the behaviours of the SpamBayes tokenizer that
the attacks and experiments exercise:

* body words are split on whitespace, lowercased, and kept when their
  length is in ``[min_token_length, max_token_length]`` (3..12 by
  default);
* overlong words do not vanish — they become ``skip:<c> <n>`` tokens
  recording the first character and the length bucket, so an attacker
  cannot smuggle content past the learner with giant blobs;
* URLs decompose into ``proto:``, ``url:host`` and ``url:path`` pieces;
* email addresses decompose into local part and domain pieces;
* header values are tokenized with a per-header prefix
  (``subject:word``, ``from:addr:example.com``, ...) so that body text
  cannot impersonate header evidence — this is why the contamination
  assumption (attacker controls bodies, not headers) leaves the header
  token space clean.

Tokens are plain strings.  :meth:`Tokenizer.tokenize` returns a list
(the multiset); the classifier reduces it to a set because Robinson's
model is presence/absence (Section 2.3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.spambayes.message import Email

__all__ = ["TokenizerOptions", "Tokenizer", "DEFAULT_TOKENIZER"]

_URL_RE = re.compile(r"(?:(https?|ftp)://|www\.)([^\s<>\"']+)", re.IGNORECASE)
_EMAIL_RE = re.compile(r"([\w.+-]+)@([\w-]+(?:\.[\w-]+)+)")
_NON_ALNUM_EDGE_RE = re.compile(r"^\W+|\W+$")
_SUBTOKEN_SPLIT_RE = re.compile(r"[^\w']+")
_MONEY_RE = re.compile(r"^\$\d[\d,]*(?:\.\d+)?$")

_CHUNK_MEMO_SIZE = 65_536
"""Most body chunks one tokenizer remembers.  A long-lived tokenizer
(the serve daemon's) fed hostile mail made of unique chunks evicts its
least recently used entries instead of growing."""


@dataclass(frozen=True, slots=True)
class TokenizerOptions:
    """Knobs of the tokenizer.

    ``tokenized_headers`` lists the headers whose *values* are worth
    tokenizing; anything else only contributes a presence token when
    ``record_header_presence`` is set (mirroring SpamBayes' behaviour of
    noticing unusual mailers without trusting arbitrary header text).
    """

    min_token_length: int = 3
    max_token_length: int = 12
    generate_skip_tokens: bool = True
    tokenize_headers: bool = True
    record_header_presence: bool = True
    tokenized_headers: tuple[str, ...] = (
        "subject",
        "from",
        "to",
        "cc",
        "reply-to",
        "x-mailer",
    )


DEFAULT_TOKENIZER_OPTIONS = TokenizerOptions()


class Tokenizer:
    """Converter from :class:`Email` to token streams.

    The only state is a memo from body chunk to its token tuple, bounded
    at :data:`_CHUNK_MEMO_SIZE` entries.  Options are frozen, so a chunk
    alone determines its tokens and a hit returns exactly what a miss
    computes: output never depends on what was tokenized before.  The
    memo is a :func:`functools.lru_cache`, which stays coherent under
    concurrent calls, and it is never pickled — an unpickled tokenizer
    starts cold (:meth:`__reduce__`).
    """

    def __init__(self, options: TokenizerOptions = DEFAULT_TOKENIZER_OPTIONS) -> None:
        self.options = options
        # Options are frozen, so the header lookup set is hoisted here
        # instead of being rebuilt for every email.
        self._tokenized_headers = frozenset(options.tokenized_headers)
        self._chunk_tokens = lru_cache(maxsize=_CHUNK_MEMO_SIZE)(
            lambda chunk: tuple(self._tokenize_chunk(chunk))
        )

    def __reduce__(self) -> tuple[type[Tokenizer], tuple[TokenizerOptions]]:
        # Ship the options only: the memo is a cache, not state, and
        # would otherwise travel in every pickled worker context.
        return (type(self), (self.options,))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def tokenize(self, email: Email) -> list[str]:
        """Tokenize header and body of ``email`` into a token list."""
        tokens = self.tokenize_body(email.body)
        if self.options.tokenize_headers:
            tokens.extend(self.tokenize_headers(email))
        return tokens

    def tokenize_body(self, text: str) -> list[str]:
        """Return the body tokens of raw text, chunk by memoized chunk.

        Chunks are ``str.split()``'s: runs of characters that are not
        ``str.isspace()``, the same set ``\\s`` matches in a ``str``
        pattern.
        """
        chunk_tokens = self._chunk_tokens
        tokens: list[str] = []
        for chunk in text.split():
            tokens.extend(chunk_tokens(chunk))
        return tokens

    def tokenize_headers(self, email: Email) -> Iterator[str]:
        """Yield prefixed tokens for the headers of ``email``."""
        wanted = self._tokenized_headers
        for name, value in email.iter_headers():
            lowered = name.lower()
            if lowered in wanted:
                yield from self._tokenize_header_value(lowered, value)
            elif self.options.record_header_presence:
                yield f"header:{lowered}:1"

    # ------------------------------------------------------------------
    # Body pieces
    # ------------------------------------------------------------------

    def _tokenize_chunk(self, chunk: str) -> Iterator[str]:
        if chunk.isalnum():
            # No ``\W`` character, so no URL, address or money match and
            # no edge to strip: the chunk is one word.  Lowercasing can
            # still add a non-alnum character ("İ" -> "i" + U+0307), and
            # such a word takes the rule path.
            word = chunk.lower()
            if word.isalnum():
                return self._emit_word(word)
        return self._tokenize_rules(chunk)

    def _tokenize_rules(self, chunk: str) -> Iterator[str]:
        """The tokens of one chunk by the URL, address, money and word
        rules, in that order."""
        url_match = _URL_RE.search(chunk)
        if url_match:
            yield from self._tokenize_url(url_match)
            return
        email_match = _EMAIL_RE.search(chunk)
        if email_match:
            yield from self._tokenize_address("email", email_match)
            return
        if _MONEY_RE.match(chunk):
            yield "money:$"
            return
        word = _NON_ALNUM_EDGE_RE.sub("", chunk).lower()
        if not word:
            return
        yield from self._emit_word(word)
        # Punctuation-joined compounds ("buy-now!!cheap") also contribute
        # their parts, like SpamBayes' split-on-non-alnum pass.
        if any(not ch.isalnum() and ch != "'" for ch in word):
            for part in _SUBTOKEN_SPLIT_RE.split(word):
                if part and part != word:
                    yield from self._emit_word(part)

    def _emit_word(self, word: str) -> Iterator[str]:
        opts = self.options
        length = len(word)
        if length < opts.min_token_length:
            return
        if length > opts.max_token_length:
            if opts.generate_skip_tokens:
                bucket = (length // 10) * 10
                yield f"skip:{word[0]} {bucket}"
            return
        yield word

    def _tokenize_url(self, match: re.Match[str]) -> Iterator[str]:
        proto = (match.group(1) or "http").lower()
        rest = match.group(2)
        yield f"proto:{proto}"
        host, _, path = rest.partition("/")
        host = host.lower().strip(".")
        if host:
            yield f"url:{host}"
            # Domain suffix pieces let the learner generalize over hosts.
            pieces = host.split(".")
            for start in range(1, len(pieces) - 1):
                yield f"url:{'.'.join(pieces[start:])}"
        for component in _SUBTOKEN_SPLIT_RE.split(path.lower()):
            if len(component) >= self.options.min_token_length:
                yield f"url:{component}"

    def _tokenize_address(self, prefix: str, match: re.Match[str]) -> Iterator[str]:
        local, domain = match.group(1).lower(), match.group(2).lower()
        yield f"{prefix} name:{local}"
        yield f"{prefix} addr:{domain}"
        pieces = domain.split(".")
        for start in range(1, len(pieces) - 1):
            yield f"{prefix} addr:{'.'.join(pieces[start:])}"

    # ------------------------------------------------------------------
    # Header pieces
    # ------------------------------------------------------------------

    def _tokenize_header_value(self, name: str, value: str) -> Iterator[str]:
        if name in ("from", "to", "cc", "reply-to"):
            yield from self._tokenize_address_header(name, value)
            return
        # Subject-like headers: tokenize words, keep short words too —
        # SpamBayes deliberately keeps even 1-character subject tokens
        # because subjects are short and dense with signal.
        for chunk in _SUBTOKEN_SPLIT_RE.split(value.lower()):
            if chunk:
                yield f"{name}:{chunk}"

    def _tokenize_address_header(self, name: str, value: str) -> Iterator[str]:
        email_match = _EMAIL_RE.search(value)
        if email_match:
            local, domain = email_match.group(1).lower(), email_match.group(2).lower()
            yield f"{name}:addr:{local}"
            yield f"{name}:addr:{domain}"
        else:
            yield f"{name}:no-address"
        display = _EMAIL_RE.sub("", value)
        for chunk in _SUBTOKEN_SPLIT_RE.split(display.lower()):
            if len(chunk) >= 2:
                yield f"{name}:name:{chunk}"


DEFAULT_TOKENIZER = Tokenizer()
"""Shared default tokenizer instance.  Safe to share across threads and
callers: its chunk memo is bounded, thread-safe, and never changes a
result, only how fast it comes back."""
