"""Tests for the SpamBayes-style tokenizer."""

from __future__ import annotations

import pickle
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spambayes import tokenizer as tokenizer_module
from repro.spambayes.message import Email
from repro.spambayes.tokenizer import (
    DEFAULT_TOKENIZER,
    Tokenizer,
    TokenizerOptions,
)


def body_tokens(text: str) -> list[str]:
    return list(DEFAULT_TOKENIZER.tokenize_body(text))


class TestBodyTokens:
    def test_simple_words_lowercased(self):
        assert body_tokens("Hello WORLD again") == ["hello", "world", "again"]

    def test_short_words_dropped(self):
        assert body_tokens("go to it ok") == []

    def test_three_char_words_kept(self):
        assert "the" in body_tokens("the cat")

    def test_overlong_word_becomes_skip_token(self):
        tokens = body_tokens("a" * 25)
        assert tokens == ["skip:a 20"]

    def test_skip_tokens_can_be_disabled(self):
        tokenizer = Tokenizer(TokenizerOptions(generate_skip_tokens=False))
        assert list(tokenizer.tokenize_body("a" * 25)) == []

    def test_edge_punctuation_stripped(self):
        assert body_tokens("(hello!) ...world,") == ["hello", "world"]

    def test_compound_emits_whole_and_parts(self):
        tokens = body_tokens("buy-now")
        assert "buy-now" in tokens
        assert "buy" in tokens
        assert "now" in tokens

    def test_apostrophes_kept_inside_words(self):
        assert body_tokens("don't") == ["don't"]

    def test_money_token(self):
        assert body_tokens("$1,299.99") == ["money:$"]

    def test_twelve_char_word_kept_thirteen_not(self):
        twelve = "x" * 12
        thirteen = "y" * 13
        tokens = body_tokens(f"{twelve} {thirteen}")
        assert twelve in tokens
        assert thirteen not in tokens
        assert "skip:y 10" in tokens


class TestUrlTokens:
    def test_url_decomposes(self):
        tokens = body_tokens("visit http://deals.example.biz/win/big now")
        assert "proto:http" in tokens
        assert "url:deals.example.biz" in tokens
        assert "url:example.biz" in tokens
        assert "url:win" in tokens
        assert "url:big" in tokens

    def test_https_proto(self):
        assert "proto:https" in body_tokens("https://a.example.com/x")

    def test_www_defaults_to_http(self):
        tokens = body_tokens("www.example.com/page")
        assert "proto:http" in tokens
        assert "url:example.com" in tokens


class TestEmailAddressTokens:
    def test_address_decomposes(self):
        tokens = body_tokens("mail bob.smith@corp.example.com today")
        assert "email name:bob.smith" in tokens
        assert "email addr:corp.example.com" in tokens
        assert "email addr:example.com" in tokens


class TestHeaderTokens:
    def test_subject_words_prefixed(self):
        email = Email(body="", headers=[("Subject", "Cheap Deals Today")])
        tokens = set(DEFAULT_TOKENIZER.tokenize(email))
        assert "subject:cheap" in tokens
        assert "subject:deals" in tokens
        # Header tokens never leak into the body namespace.
        assert "cheap" not in tokens

    def test_from_address_prefixed(self):
        email = Email(body="", headers=[("From", "Alice Smith <alice@corp.example.com>")])
        tokens = set(DEFAULT_TOKENIZER.tokenize(email))
        assert "from:addr:alice" in tokens
        assert "from:addr:corp.example.com" in tokens
        assert "from:name:alice" in tokens

    def test_from_without_address(self):
        email = Email(body="", headers=[("From", "mailer daemon")])
        tokens = set(DEFAULT_TOKENIZER.tokenize(email))
        assert "from:no-address" in tokens

    def test_unlisted_header_contributes_presence_token(self):
        email = Email(body="", headers=[("X-Unusual", "whatever value")])
        tokens = set(DEFAULT_TOKENIZER.tokenize(email))
        assert "header:x-unusual:1" in tokens
        assert all("whatever" not in token for token in tokens)

    def test_headers_can_be_disabled(self):
        tokenizer = Tokenizer(TokenizerOptions(tokenize_headers=False))
        email = Email(body="word", headers=[("Subject", "hello")])
        assert list(tokenizer.tokenize(email)) == ["word"]

    def test_empty_header_block_yields_no_header_tokens(self):
        email = Email(body="hello world message")
        tokens = DEFAULT_TOKENIZER.tokenize(email)
        assert all(":" not in token for token in tokens)


class TestTokenizeText:
    def test_wire_format_gets_header_tokens(self):
        email = Email.from_text("Subject: offer\n\nbuy cheap pills")
        tokens = set(DEFAULT_TOKENIZER.tokenize(email))
        assert "subject:offer" in tokens
        assert "cheap" in tokens


@given(st.text(max_size=300))
@settings(max_examples=80)
def test_tokenizer_never_crashes_and_emits_no_empty_tokens(text: str):
    tokens = list(DEFAULT_TOKENIZER.tokenize_body(text))
    assert all(isinstance(token, str) and token for token in tokens)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
@settings(max_examples=60)
def test_tokenizer_deterministic(text: str):
    cold = Tokenizer().tokenize_body(text)
    # The shared tokenizer's first call fills its memo; the second is
    # all hits.  Both must match a tokenizer that has seen nothing.
    assert DEFAULT_TOKENIZER.tokenize_body(text) == cold
    assert DEFAULT_TOKENIZER.tokenize_body(text) == cold


# ----------------------------------------------------------------------
# The chunk memo: never shipped, bounded, thread-safe
# ----------------------------------------------------------------------

# Latin letters and their Cyrillic look-alikes, plus zero-width marks
# that are neither whitespace nor word characters.
_HOMOGLYPHS = {"a": "\u0430", "c": "\u0441", "e": "\u0435", "p": "\u0440", "s": "\u0455", "y": "\u0443"}
_ZERO_WIDTH = ("", "\u200b", "\u200c", "\u200d")


def _spoofed_chunk(index: int, word: str = "paypalsecure") -> str:
    """The ``index``-th look-alike of ``word``: distinct for every index."""
    out = []
    for letter in word:
        glyphs = (letter, _HOMOGLYPHS[letter]) if letter in _HOMOGLYPHS else (letter,)
        index, choice = divmod(index, len(glyphs) * len(_ZERO_WIDTH))
        glyph, mark = divmod(choice, len(_ZERO_WIDTH))
        out.append(glyphs[glyph] + _ZERO_WIDTH[mark])
    assert index == 0, "word too short for this many variants"
    return "".join(out)


def _corpus_emails(corpus) -> list[Email]:
    return [message.email for message in corpus.dataset]


class TestChunkMemo:
    def test_pickle_ships_options_not_memo(self, tiny_corpus):
        emails = _corpus_emails(tiny_corpus)
        cold_size = len(pickle.dumps(Tokenizer()))
        warm = [DEFAULT_TOKENIZER.tokenize(email) for email in emails]
        assert DEFAULT_TOKENIZER._chunk_tokens.cache_info().currsize > 0
        blob = pickle.dumps(DEFAULT_TOKENIZER)
        assert len(blob) == cold_size
        clone = pickle.loads(blob)
        assert clone.options == DEFAULT_TOKENIZER.options
        assert clone._chunk_tokens.cache_info().currsize == 0
        assert [clone.tokenize(email) for email in emails] == warm

    def test_pickle_keeps_non_default_options(self):
        options = TokenizerOptions(min_token_length=2, generate_skip_tokens=False)
        clone = pickle.loads(pickle.dumps(Tokenizer(options)))
        assert clone.options == options
        assert clone.tokenize_body("ab " + "z" * 30) == ["ab"]

    def test_hostile_unique_chunks_stay_bounded(self):
        cap = tokenizer_module._CHUNK_MEMO_SIZE
        chunks = [_spoofed_chunk(index) for index in range(cap + 2_000)]
        assert len(set(chunks)) == len(chunks)
        tokenizer = Tokenizer()
        per_mail = 1_000
        for start in range(0, len(chunks), per_mail):
            mail = chunks[start:start + per_mail]
            email = Email(body=" ".join(mail), headers=[("Subject", "verify")])
            expected = [token for chunk in mail for token in tokenizer._tokenize_chunk(chunk)]
            assert tokenizer.tokenize(email) == expected + ["subject:verify"]
        info = tokenizer._chunk_tokens.cache_info()
        assert info.misses == len(chunks)
        assert info.currsize <= cap

    def test_shared_tokenizer_under_threads_with_evictions(self, tiny_corpus, monkeypatch):
        monkeypatch.setattr(tokenizer_module, "_CHUNK_MEMO_SIZE", 64)
        emails = _corpus_emails(tiny_corpus)
        expected = [Tokenizer().tokenize(email) for email in emails]
        shared = Tokenizer()
        n_threads = 8
        start = threading.Barrier(n_threads)
        wrong: list[tuple[int, int]] = []
        errors: list[Exception] = []

        def work(slot: int) -> None:
            try:
                start.wait(timeout=30)
                # Three passes, each thread starting at a different
                # message, so the threads hit, miss and evict different
                # chunks at once.
                for position in range(slot * 17, slot * 17 + 3 * len(emails)):
                    index = position % len(emails)
                    if shared.tokenize(emails[index]) != expected[index]:
                        wrong.append((slot, index))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        info = shared._chunk_tokens.cache_info()
        assert info.misses > 64
        assert info.currsize <= 64


# ----------------------------------------------------------------------
# Split once: str.split() and the alnum fast path against the regex split
# ----------------------------------------------------------------------

_REGEX_SPLIT = re.compile(r"[\s]+")


def regex_split_tokens(tokenizer: Tokenizer, text: str) -> list[str]:
    """The body tokenizer before it split once: a regex split (empty edge
    chunks included) and every chunk through the rule path."""
    tokens: list[str] = []
    for chunk in _REGEX_SPLIT.split(text):
        tokens.extend(tokenizer._tokenize_rules(chunk))
    return tokens


# Whitespace to str.isspace() and \s alike, including the separators
# only Unicode calls whitespace; format characters that are not
# whitespace (zero-width space, BOM, right-to-left override); a capital
# whose lowercase adds a combining mark; a non-ASCII digit; and the
# characters the URL, address and money rules key on.
_HOSTILE_PIECES = (
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", " ", "\n", "\t",
    "\u200b", "\ufeff", "\u202e", "\u0130", "\u0663", "_", "'", "$", "@", "://",
    "http", "www.", ".", "-", ",", "5", "a", "Z", "\u0430", "abc", "x" * 13,
)
hostile_text = st.lists(
    st.one_of(st.sampled_from(_HOSTILE_PIECES), st.text(max_size=3)), max_size=40
).map("".join)


class TestSplitOnce:
    @settings(max_examples=400, deadline=None)
    @given(text=hostile_text)
    def test_matches_regex_split(self, text):
        assert Tokenizer().tokenize_body(text) == regex_split_tokens(Tokenizer(), text)

    def test_capital_dotted_i_keeps_its_parts(self):
        # "İ".lower() is "i" + U+0307, which is not alphanumeric: the
        # word and its parts come from the rule path.
        assert body_tokens("\u0130stanbul") == ["i\u0307stanbul", "stanbul"]

    def test_split_and_fast_path_rest_on_unicode_classes(self):
        # str.split() cuts where \s matches, and an isalnum() chunk has
        # no \W character, over every code point.
        space, word = re.compile(r"\s"), re.compile(r"\w")
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            assert (space.match(char) is not None) == char.isspace(), hex(code)
            assert (word.match(char) is not None) == (char.isalnum() or char == "_"), hex(code)
