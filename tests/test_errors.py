"""The exception hierarchy: one catchable base, and supervised-map
errors that say which work never finished."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import errors
from repro.errors import (
    EngineError,
    MapTimeoutError,
    ProtocolError,
    ReproError,
    ServeError,
    WorkerCrashError,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.mark.parametrize("name", errors.__all__)
def test_every_exported_error_is_a_repro_error(name):
    error = getattr(errors, name)
    assert issubclass(error, ReproError)
    with pytest.raises(ReproError):
        raise error("boom")


@pytest.mark.parametrize("name", [n for n in errors.__all__ if n != "ReproError"])
def test_no_exported_error_is_a_builtin_lookup_or_type_error(name):
    """Catching ``ReproError`` must not swallow programming errors, and
    catching ``KeyError``/``TypeError``/``ValueError`` must not swallow
    the library's own."""
    error = getattr(errors, name)
    assert not issubclass(error, (KeyError, TypeError, ValueError, LookupError))


def test_exports_list_every_public_error_class():
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and not name.startswith("_")
    }
    assert defined == set(errors.__all__)


def test_every_exception_src_defines_derives_from_repro_error():
    """A module that defines its own exception class roots it in the
    hierarchy (``OversizedFrameError(ProtocolError)``, say), so an API
    boundary that catches ``ReproError`` catches it too."""
    roots = set(errors.__all__) | {"_SupervisedMapError"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error"):
                bases = {
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                    for base in node.bases
                }
                if not bases & roots:
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}: {node.name}")
                roots.add(node.name)
    assert found == []


def test_protocol_errors_are_serve_errors():
    assert issubclass(ProtocolError, ServeError)


@pytest.mark.parametrize("error", [WorkerCrashError, MapTimeoutError])
def test_supervised_map_errors_are_engine_errors(error):
    assert issubclass(error, EngineError)


class TestSupervisedMapErrorDetail:
    def test_bare_message_is_unchanged(self):
        error = WorkerCrashError("pool broke")
        assert str(error) == "pool broke"
        assert error.chunk_starts == ()
        assert error.attempts == 0
        assert error.provenance is None

    def test_detail_names_chunks_attempts_and_first_task(self):
        error = MapTimeoutError(
            "deadline missed", chunk_starts=[8, 16], attempts=3, provenance="fold 2"
        )
        assert str(error) == (
            "deadline missed [unfinished chunk offsets: [8, 16]] [attempts: 3] "
            "[first unfinished task: fold 2]"
        )
        assert error.chunk_starts == (8, 16)  # a list is frozen to a tuple
        assert error.attempts == 3
        assert error.provenance == "fold 2"

    def test_each_detail_appears_on_its_own(self):
        assert str(WorkerCrashError("x", attempts=2)) == "x [attempts: 2]"
        assert str(WorkerCrashError("x", provenance="p")) == "x [first unfinished task: p]"
        assert str(WorkerCrashError("x", chunk_starts=(0,))) == (
            "x [unfinished chunk offsets: [0]]"
        )
