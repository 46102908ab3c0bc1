"""The shared file-payload helpers: gzip keyed on the suffix, and
writes that land whole or not at all."""

from __future__ import annotations

import gzip

import pytest

from repro.storage.io import (
    atomic_write_text,
    is_gzip_path,
    read_payload_text,
    write_payload_text,
)

TEXT = '{"tokens": ["caf\\u00e9", "prize"], "note": "naïve — ünïcode"}\n'


@pytest.mark.parametrize(
    "name, compressed",
    [
        ("db.json.gz", True),
        ("db.GZ", True),
        ("db.json", False),
        ("db.gz.json", False),
        ("db", False),
    ],
)
def test_compression_is_keyed_on_the_last_suffix(tmp_path, name, compressed):
    assert is_gzip_path(tmp_path / name) is compressed


@pytest.mark.parametrize("name", ["db.json", "db.json.gz"])
def test_payload_round_trips(tmp_path, name):
    path = tmp_path / name
    write_payload_text(path, TEXT)
    assert read_payload_text(path) == TEXT


def test_gz_payload_is_really_compressed(tmp_path):
    path = tmp_path / "db.json.gz"
    write_payload_text(path, TEXT)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        assert handle.read() == TEXT


def test_gz_bytes_do_not_depend_on_the_path(tmp_path):
    """mtime 0 and no embedded filename: the same state, the same bytes."""
    first, second = tmp_path / "a.gz", tmp_path / "elsewhere.gz"
    write_payload_text(first, TEXT)
    write_payload_text(second, TEXT)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["db.json", "db.json.gz"])
def test_payload_write_replaces_and_leaves_no_temporary(tmp_path, name):
    path = tmp_path / name
    write_payload_text(path, "old")
    write_payload_text(path, TEXT)
    assert read_payload_text(path) == TEXT
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_atomic_write_never_compresses(tmp_path):
    path = tmp_path / "checkpoint.gz"
    atomic_write_text(path, TEXT)
    assert path.read_text(encoding="utf-8") == TEXT


def test_atomic_write_replaces_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "checkpoint.json"
    atomic_write_text(path, "old")
    atomic_write_text(path, TEXT)
    assert path.read_text(encoding="utf-8") == TEXT
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "db.json"
    write_payload_text(path, TEXT)
    with pytest.raises(UnicodeEncodeError):
        write_payload_text(path, "\ud800")  # a lone surrogate cannot be encoded
    assert read_payload_text(path) == TEXT
    assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
