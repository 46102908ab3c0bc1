"""Tests for the Email message model."""

from __future__ import annotations

import pytest

from repro.errors import MessageParseError
from repro.spambayes.message import Email


class TestParsing:
    def test_headers_then_body(self):
        email = Email.from_text("Subject: hello\nFrom: a@b.com\n\nbody line one\nline two")
        assert email.subject == "hello"
        assert email.sender == "a@b.com"
        assert email.body == "body line one\nline two"

    def test_continuation_lines_fold(self):
        email = Email.from_text("Subject: part one\n  part two\n\nbody")
        assert email.subject == "part one part two"

    def test_continuation_before_header_rejected(self):
        with pytest.raises(MessageParseError):
            Email.from_text("  dangling continuation\n\nbody")

    def test_headerless_text_is_all_body(self):
        text = "just a plain note\nwith two lines"
        email = Email.from_text(text)
        assert email.headers == []
        assert email.body == text

    def test_malformed_header_after_valid_ones_rejected(self):
        with pytest.raises(MessageParseError):
            Email.from_text("Subject: ok\nnot a header line\n\nbody")

    def test_empty_body(self):
        email = Email.from_text("Subject: only headers\n\n")
        assert email.subject == "only headers"
        assert email.body == ""

    def test_msgid_carried(self):
        assert Email.from_text("hello", msgid="m-1").msgid == "m-1"


class TestHeaders:
    def test_get_header_case_insensitive(self):
        email = Email(body="", headers=[("SUBJect", "x")])
        assert email.get_header("subject") == "x"

    def test_get_header_default(self):
        assert Email(body="").get_header("missing", "dflt") == "dflt"

    def test_duplicate_headers_keep_their_order(self):
        email = Email(body="", headers=[("Received", "a"), ("X", "1"), ("Received", "b")])
        assert email.get_header("received") == "a"
        assert list(email.iter_headers()) == email.headers

    def test_subject_and_sender_default_to_empty(self):
        assert (Email(body="").subject, Email(body="").sender) == ("", "")
        email = Email.build(body="", subject="hi", sender="a@b")
        assert (email.subject, email.sender) == ("hi", "a@b")


class TestBuildAndRoundTrip:
    def test_build_sets_standard_headers(self):
        email = Email.build(
            body="hi",
            subject="s",
            sender="from@x.com",
            recipient="to@y.com",
            extra_headers=[("X-Extra", "v")],
        )
        assert email.get_header("From") == "from@x.com"
        assert email.get_header("To") == "to@y.com"
        assert email.subject == "s"
        assert email.get_header("X-Extra") == "v"

    def test_as_text_round_trips(self):
        email = Email.build(body="line1\nline2", subject="s", sender="a@b.c", msgid="m1")
        parsed = Email.from_text(email.as_text(), msgid="m1")
        assert parsed.headers == email.headers
        assert parsed.body == email.body
        assert parsed.msgid == "m1"

    def test_round_trip_empty_headers(self):
        email = Email(body="only body")
        parsed = Email.from_text(email.as_text())
        # as_text emits a leading blank line for the empty header block,
        # which parses back to the same body.
        assert parsed.body == email.body
        assert parsed.headers == []
