"""The storage layer: backend selection, the disk structures, the
janitor, and the save/load paths routed through ``storage.io``.

The disk structures are tested *differentially* against their
in-memory counterparts wherever one exists — a :class:`DiskTokenTable`
must be observationally indistinguishable from a :class:`TokenTable`
fed the same batches, mmap count columns from plain arrays — because
"indistinguishable state" is the mechanism behind the record-level
byte-identity that ``tests/test_storage_differential.py`` proves
end to end.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus.dataset import LabeledMessage
from repro.errors import ConfigurationError, PersistenceError
from repro.spambayes.classifier import Classifier
from repro.spambayes.message import Email
from repro.spambayes.persistence import (
    classifier_to_dict,
    load_classifier,
    save_classifier,
)
from repro.spambayes.token_table import TokenTable
from repro.storage import (
    STORE_DIR_ENV,
    STORE_ENV,
    STORE_PREFIX,
    DiskBackend,
    DiskTokenTable,
    MemoryBackend,
    MemoryCountColumns,
    MmapCountColumns,
    NDMemoryCountColumns,
    active_backend,
    gc_stores,
    orphaned_stores,
    pid_alive,
    store_name,
    store_root,
)
from repro.storage.io import is_gzip_path, read_payload_text, write_payload_text

np = pytest.importorskip("numpy")


@pytest.fixture
def disk_backend(tmp_path, monkeypatch):
    """A :class:`DiskBackend` rooted in this test's tmp directory."""
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
    backend = DiskBackend.create()
    yield backend
    backend.destroy()


class TestStoreSelection:
    def test_unset_and_auto_resolve_to_memory(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert store_name() == "memory"
        monkeypatch.setenv(STORE_ENV, "auto")
        assert store_name() == "memory"
        monkeypatch.setenv(STORE_ENV, "")
        assert store_name() == "memory"

    def test_explicit_names_normalized(self, monkeypatch):
        monkeypatch.setenv(STORE_ENV, " DISK ")
        assert store_name() == "disk"
        monkeypatch.setenv(STORE_ENV, "Memory")
        assert store_name() == "memory"

    def test_unknown_name_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "tape")
        with pytest.raises(ConfigurationError, match="REPRO_STORE"):
            store_name()

    def test_active_backend_caches_per_name(self, monkeypatch, tmp_path):
        from repro.storage import base

        monkeypatch.delenv(STORE_ENV, raising=False)
        memory = active_backend()
        assert isinstance(memory, MemoryBackend)
        assert active_backend() is memory
        # The cache is process-wide; park any disk backend an earlier
        # test resolved so this test observes a fresh creation.
        key = (os.getpid(), "disk")
        parked = base._active.pop(key, None)
        try:
            monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
            monkeypatch.setenv(STORE_ENV, "disk")
            disk = active_backend()
            assert isinstance(disk, DiskBackend)
            assert disk.path.parent == tmp_path
            # Flipping back re-resolves to the same memory instance;
            # the disk backend stays cached for its own name.
            monkeypatch.setenv(STORE_ENV, "memory")
            assert active_backend() is memory
            monkeypatch.setenv(STORE_ENV, "disk")
            assert active_backend() is disk
        finally:
            fresh = base._active.pop(key, None)
            if fresh is not None:
                fresh.destroy()
            if parked is not None:
                base._active[key] = parked

    def test_memory_backend_protocol(self):
        backend = MemoryBackend()
        assert isinstance(backend.new_token_table(), TokenTable)
        assert isinstance(backend.count_columns("pure"), MemoryCountColumns)
        assert isinstance(backend.count_columns("nd"), NDMemoryCountColumns)
        # In-memory tables keep no rows: the row is its own key.
        table = backend.new_token_table()
        ids = table.encode_unique({"a", "b"})
        assert table.keep_row(ids) is ids and table.fetch_row(ids) is ids
        backend.close()
        backend.destroy()  # no-ops, but must exist and be idempotent


class TestDiskTokenTable:
    """Differential: DiskTokenTable vs TokenTable on the same feed."""

    BATCHES = (
        {"pear", "apple", "quince", "mango", "banana"},
        {"mango", "cherry", "apple", "date"},
        {"apple"},
        {"elderberry", "fig", "cherry"},
    )

    def _pair(self, backend):
        reference = TokenTable()
        table = backend.new_token_table()
        assert isinstance(table, DiskTokenTable)
        return reference, table

    def test_layout_and_encodings_match_memory(self, disk_backend):
        reference, table = self._pair(disk_backend)
        for batch in self.BATCHES:
            assert list(table.encode_unique(batch)) == list(
                reference.encode_unique(batch)
            )
        assert list(table) == list(reference)
        assert len(table) == len(reference)
        assert list(table.text_order_ranks()) == list(reference.text_order_ranks())

    def test_point_lookups_match_memory(self, disk_backend):
        reference, table = self._pair(disk_backend)
        for batch in self.BATCHES:
            reference.encode_unique(batch)
            table.encode_unique(batch)
        for token in reference:
            assert table.id_of(token) == reference.id_of(token)
            assert token in table
            assert table.intern(token) == reference.intern(token)
        for tid in range(len(reference)):
            assert table.token(tid) == reference.token(tid)
        assert table.token(-1) == reference.token(-1)
        assert table.id_of("never-interned") is None
        assert "never-interned" not in table
        with pytest.raises(IndexError):
            table.token(len(table))

    def test_bulk_lookup_matches_memory_and_never_interns(self, disk_backend):
        reference, table = self._pair(disk_backend)
        for batch in self.BATCHES:
            reference.encode_unique(batch)
            table.encode_unique(batch)
        # Known, unknown and duplicate tokens, in an order with misses
        # between hits; a second table on the same file starts with a
        # cold cache, so every token goes through SQLite.
        tokens = ["fig", "kiwi", "apple", "kiwi", "lime", "apple", "date", "plum"]
        cold = DiskTokenTable(table.db_path)
        statements: list[str] = []
        cold._conn().set_trace_callback(statements.append)
        expected = reference.lookup(tokens)
        assert expected == [
            reference.id_of("fig"), None, reference.id_of("apple"), None,
            None, reference.id_of("apple"), reference.id_of("date"), None,
        ]
        assert cold.lookup(tokens) == expected
        assert sum(s.lstrip().upper().startswith("SELECT") for s in statements) == 1
        # Found tokens are now cached: a repeat costs one query for the
        # misses only, and the warm table answers the same.
        statements.clear()
        assert cold.lookup(tokens) == expected
        assert len(statements) == 1
        assert table.lookup(tokens) == expected
        assert table.lookup(["kiwi"]) == [None]
        assert len(table) == len(cold) == len(reference)
        (rows,) = table._conn().execute("SELECT COUNT(*) FROM tokens").fetchone()
        assert rows == len(reference)
        cold.close()

    def test_decode_round_trips(self, disk_backend):
        reference, table = self._pair(disk_backend)
        for batch in self.BATCHES:
            reference.encode_unique(batch)
            ids = table.encode_unique(batch)
            assert sorted(table.decode(ids)) == sorted(batch)

    def test_accepts_non_set_iterables(self, disk_backend):
        _, table = self._pair(disk_backend)
        first = table.encode_unique(["b", "a", "b", "c"])
        again = table.encode_unique(["c", "a", "b"])
        assert list(first) == list(again) == [0, 1, 2]

    def test_tiny_cache_changes_nothing(self, tmp_path):
        reference = TokenTable()
        table = DiskTokenTable(tmp_path / "tiny.db", cache_limit=4)
        tokens = [f"token-{i:03d}" for i in range(64)]
        for start in range(0, 64, 8):
            batch = set(tokens[start : start + 8])
            assert list(table.encode_unique(batch)) == list(
                reference.encode_unique(batch)
            )
        assert table.decode(range(64)) == reference.decode(range(64))
        assert list(table) == list(reference)
        table.close()

    def test_reopen_sees_persisted_vocabulary(self, tmp_path):
        table = DiskTokenTable(tmp_path / "vocab.db")
        ids = table.encode_unique({"alpha", "beta", "gamma"})
        ranks = list(table.text_order_ranks())
        first = table.token(0)
        table.close()
        # A cold open: a fresh handle with no caches shared with the
        # writer knows the size, the text ranks and the rows.
        reopened = DiskTokenTable(tmp_path / "vocab.db")
        assert len(reopened) == 3
        assert list(reopened.text_order_ranks()) == ranks
        assert reopened.token(0) == first
        assert first in {"alpha", "beta", "gamma"}
        assert list(reopened.encode_unique({"alpha", "beta", "gamma"})) == list(ids)
        reopened.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_writers_sharing_a_file_intern_dense_unique_ids(self, tmp_path):
        path = tmp_path / "shared.db"
        first = DiskTokenTable(path)
        assert list(first.encode_unique({"x"})) == [0]
        second = DiskTokenTable(path)
        assert list(second.encode_unique({"y"})) == [1]
        # ``first`` opened before ``second`` wrote; it must not reuse 1.
        assert list(first.encode_unique({"z"})) == [2]
        assert first.intern("w") == 3
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            status = 1
            try:
                os.close(read_end)
                ids = second.encode_unique({"child-b", "child-a"})
                os.write(write_end, ",".join(map(str, ids)).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            child_ids = pipe.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert child_ids == "4,5"
        assert list(second.encode_unique({"v"})) == [6]
        # ``first`` has not met the child's or ``second``'s later IDs:
        # it stays a consistent prefix, and its text ranks stay cached.
        assert list(first) == ["x", "y", "z", "w"] and len(first) == 4
        assert first.text_order_ranks() is first.text_order_ranks()
        vocabulary = ["x", "y", "z", "w", "child-a", "child-b", "v"]
        third = DiskTokenTable(path)
        for table in (first, second, third):
            assert list(table.encode_unique(set(vocabulary))) == list(range(7))
            assert table.decode(range(7)) == vocabulary
            assert [table.token(i) for i in range(7)] == vocabulary
            assert len(table) == 7
            table.close()

    def test_failed_insert_leaves_no_cache_entry(self, tmp_path):
        import sqlite3

        path = tmp_path / "failing.db"
        table = DiskTokenTable(path)
        table.encode_unique({"a"})
        other = sqlite3.connect(path, isolation_level=None)
        other.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON tokens WHEN NEW.text = 'boom' "
            "BEGIN SELECT RAISE(ABORT, 'refused'); END"
        )
        # "b" sorts before "boom", so its row is written before the failure.
        with pytest.raises(sqlite3.DatabaseError):
            table.encode_unique({"boom", "b"})
        assert table.id_of("b") is None and "b" not in table._cache
        assert len(table) == 1
        assert not table._conn().in_transaction
        other.execute("DROP TRIGGER refuse")
        other.close()
        assert list(table.encode_unique({"boom", "b"})) == [1, 2]
        assert table.decode([0, 1, 2]) == ["a", "b", "boom"]
        table.close()

    def test_pickling_degrades_to_memory_table(self, disk_backend):
        _, table = self._pair(disk_backend)
        table.encode_unique({"x", "y", "z"})
        clone = pickle.loads(pickle.dumps(table))
        assert type(clone) is TokenTable
        assert list(clone) == list(table)


class TestMmapCountColumns:
    def test_pure_kind_preserves_counts_across_growth(self, tmp_path):
        columns = MmapCountColumns(tmp_path / "cols", "pure")
        spam, ham = columns.grow(3)
        spam[0], spam[2], ham[1] = 7, 9, 4
        # Past the initial capacity: the file is extended and remapped,
        # and previously written counts must survive the move.
        spam, ham = columns.grow(3000)
        assert (spam[0], spam[2], ham[1]) == (7, 9, 4)
        assert spam[2999] == 0 and ham[2999] == 0
        spam[2999] = 11
        spam_again, _ = columns.grow(3000)
        assert spam_again[2999] == 11
        columns.close()
        columns.close()  # idempotent

    def test_nd_kind_returns_writable_int64_arrays(self, tmp_path):
        columns = MmapCountColumns(tmp_path / "cols", "nd")
        spam, ham = columns.grow(5)
        assert spam.dtype == np.int64 and ham.dtype == np.int64
        spam[:] = np.arange(5)
        spam2, _ = columns.grow(4096)
        assert list(spam2[:5]) == [0, 1, 2, 3, 4]
        assert int(spam2[5:].sum()) == 0
        columns.close()

    def test_memory_columns_grow_in_place(self):
        columns = MemoryCountColumns()
        spam, ham = columns.grow(4)
        spam[1] = 3
        spam2, ham2 = columns.grow(10)
        assert spam2 is spam and ham2 is ham  # extended, not replaced
        assert spam2[1] == 3 and len(spam2) == 10

    def test_nd_memory_columns_preserve_and_adopt(self):
        columns = NDMemoryCountColumns()
        spam, _ = columns.grow(4)
        spam[1] = 3
        spam2, _ = columns.grow(1000)
        assert spam2[1] == 3 and spam2.shape == (1000,)
        adopted = NDMemoryCountColumns.adopt(spam2.copy(), np.zeros(1000, np.int64))
        spam3, _ = adopted.grow(1000)
        assert spam3[1] == 3


class _TextSource:
    """A picklable mail source over raw message texts."""

    def __init__(self, texts):
        self.texts = texts

    def load(self, key):
        return Email.from_text(self.texts[key], msgid=key)

    def msgid(self, key):
        return key


class TestDiskRows:
    def test_keep_fetch_and_reopen(self, disk_backend):
        table = disk_backend.new_token_table()
        ids = table.encode_unique({"cash", "offer", "prize"})
        cash = table.encode_unique({"cash"})
        first, second = table.keep_row(ids), table.keep_row(cash)
        assert first != second
        assert list(table.fetch_row(first)) == list(ids)
        # A second handle over the same file (a resumed process) sees
        # the same rows and vocabulary, and neither object hands out a
        # row number the other already used.
        reopened = DiskTokenTable(table.db_path)
        assert list(reopened.fetch_row(first)) == list(ids)
        third = reopened.keep_row(ids)
        fourth = table.keep_row(cash)
        assert len({first, second, third, fourth}) == 4
        assert list(table.fetch_row(third)) == list(ids)
        assert list(reopened.fetch_row(fourth)) == list(cash)
        reopened.close()

    def test_message_row_lives_in_the_store(self, disk_backend):
        text = "Subject: cheap prize\n\nclaim your cash prize offer now"
        message = LabeledMessage(_TextSource({"spam-0": text}), True, "spam-0")
        plain = LabeledMessage(Email.from_text(text, "spam-0"), is_spam=True)
        table = disk_backend.new_token_table()
        row = message.token_ids(table)
        # The handle holds a row number; the IDs come back from SQLite.
        assert isinstance(message._row, int)
        assert list(table.fetch_row(message._row)) == list(row)
        assert list(message.token_ids(table)) == list(row)
        assert message.is_spam and message.msgid == "spam-0"
        assert message.tokens() == plain.tokens()
        # Against a different table: moved, same result as the
        # in-memory message against that table.
        other = TokenTable()
        assert list(message.token_ids(other)) == list(plain.token_ids(TokenTable()))
        # Pickling ships the row as an array next to an in-memory table.
        message.token_ids(table)
        revived = pickle.loads(pickle.dumps(message))
        assert type(revived._table) is TokenTable
        assert list(revived.token_ids(revived._table)) == list(row)
        assert revived.tokens() == plain.tokens()


class TestDiskBackendLifecycle:
    def test_resources_live_under_one_directory(self, disk_backend):
        table = disk_backend.new_token_table()
        columns = disk_backend.count_columns("pure")
        files = list(disk_backend.path.iterdir())
        assert files, "backend directory should hold store files"
        assert disk_backend.path.name.startswith(STORE_PREFIX)
        columns.grow(8)
        table.keep_row(table.encode_unique({"a"}))
        disk_backend.destroy()
        assert not disk_backend.path.exists()
        disk_backend.destroy()  # idempotent

    def test_destroy_is_owner_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        backend = DiskBackend.create()
        backend._owner_pid = os.getpid() + 1  # simulate a forked child
        backend.destroy()
        assert backend.path.exists()
        backend._owner_pid = os.getpid()
        backend.destroy()
        assert not backend.path.exists()


class TestJanitor:
    @staticmethod
    def _dead_pid() -> int:
        victim = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        return int(victim.stdout)

    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(self._dead_pid())

    def test_store_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        assert store_root() == tmp_path

    def test_orphan_discovery_and_reclaim(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        dead = tmp_path / f"{STORE_PREFIX}{self._dead_pid():x}_deadbeef"
        dead.mkdir()
        (dead / "tokens_0001.db").write_bytes(b"")
        own = tmp_path / f"{STORE_PREFIX}{os.getpid():x}_cafecafe"
        own.mkdir()
        live = tmp_path / f"{STORE_PREFIX}1_00000001"  # pid 1: alive, not ours
        live.mkdir()
        malformed = tmp_path / f"{STORE_PREFIX}zzz"
        malformed.mkdir()
        unrelated = tmp_path / "somebody-else"
        unrelated.mkdir()

        orphans = orphaned_stores()
        assert dead in orphans
        assert own not in orphans and live not in orphans
        assert malformed not in orphans and unrelated not in orphans
        # --all widens to live *other* owners, never to our own stores.
        wide = orphaned_stores(include_live=True)
        assert live in wide and own not in wide

        removed = gc_stores()
        assert str(dead) in removed
        assert not dead.exists()
        assert own.exists() and live.exists()

    def test_gc_cli_reports_reclaimed_stores(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        dead = tmp_path / f"{STORE_PREFIX}{self._dead_pid():x}_0badf00d"
        dead.mkdir()
        assert main(["gc"]) == 0
        out = capsys.readouterr().out
        assert f"removed {dead}" in out
        assert "store(s) reclaimed" in out
        assert not dead.exists()
        # Second sweep: nothing left.
        assert main(["gc"]) == 0
        assert "0 store(s) reclaimed" in capsys.readouterr().out

    def test_gc_cli_all_reclaims_live_foreign_stores(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        live = tmp_path / f"{STORE_PREFIX}1_00000001"  # pid 1: alive, not ours
        live.mkdir()
        own = tmp_path / f"{STORE_PREFIX}{os.getpid():x}_cafecafe"
        own.mkdir()
        assert main(["gc"]) == 0
        assert "0 store(s) reclaimed" in capsys.readouterr().out
        assert live.exists()
        assert main(["gc", "--all"]) == 0
        out = capsys.readouterr().out
        assert f"removed {live}" in out
        assert "1 store(s) reclaimed" in out
        assert not live.exists() and own.exists()


class TestStorageIo:
    def test_gzip_suffix_is_case_insensitive(self):
        assert is_gzip_path(Path("model.json.gz"))
        assert is_gzip_path(Path("model.json.GZ"))
        assert not is_gzip_path(Path("model.json"))

    def test_payload_round_trip_plain_and_gzip(self, tmp_path):
        for name in ("payload.json", "payload.json.gz", "payload.json.GZ"):
            target = tmp_path / name
            write_payload_text(target, "hello: κόσμε")
            assert read_payload_text(target) == "hello: κόσμε"

    def test_gzip_writes_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a.gz", tmp_path / "b.gz"
        write_payload_text(first, "same payload")
        write_payload_text(second, "same payload")
        assert first.read_bytes() == second.read_bytes()


class TestPersistenceThroughBackends:
    """Satellite regression: save/load over the disk backend."""

    def _trained(self, table=None, columns=None) -> Classifier:
        classifier = Classifier(table=table, columns=columns)
        classifier.learn({"cash", "offer", "prize", "winner"}, True)
        classifier.learn({"meeting", "agenda", "notes"}, False)
        classifier.learn({"offer", "agenda"}, False)
        return classifier

    def test_disk_backed_classifier_round_trips(self, disk_backend, tmp_path):
        trained = self._trained(
            table=disk_backend.new_token_table(),
            columns=disk_backend.count_columns("pure"),
        )
        reference = self._trained()
        assert classifier_to_dict(trained) == classifier_to_dict(reference)
        for name in ("model.json", "model.json.gz"):
            target = tmp_path / name
            save_classifier(trained, target)
            loaded = load_classifier(target)
            assert classifier_to_dict(loaded) == classifier_to_dict(trained)
            probe = {"offer", "meeting", "winner"}
            assert loaded.score(probe) == trained.score(probe)

    def test_dumps_byte_identical_across_backends(self, disk_backend, tmp_path):
        disk_target = tmp_path / "disk.json.gz"
        memory_target = tmp_path / "memory.json.gz"
        save_classifier(
            self._trained(
                table=disk_backend.new_token_table(),
                columns=disk_backend.count_columns("pure"),
            ),
            disk_target,
        )
        save_classifier(self._trained(), memory_target)
        assert disk_target.read_bytes() == memory_target.read_bytes()

    def test_load_errors_stay_persistence_errors(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_classifier(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_classifier(bad)
