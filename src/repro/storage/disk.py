"""The disk storage backend: SQLite tables + mmap count columns.

Two pieces, mirroring the protocol in :mod:`repro.storage.base`:

* :class:`DiskTokenTable` — the append-only ``str <-> int`` registry
  backed by a SQLite table, with a bounded in-process cache.  It is a
  drop-in :class:`~repro.spambayes.token_table.TokenTable`: the same
  dense-ID, append-only, **seed-stable layout** contract (new tokens
  in a batch are interned in sorted text order via the shared
  :func:`~repro.spambayes.token_table.finish_encode` helper), so every
  ID-keyed structure downstream behaves identically.  Its SQLite file
  also stores the encoded message rows (:meth:`DiskTokenTable.keep_row`):
  a message encoded against a disk table keeps only a row number in
  RAM, so a corpus never fully materializes.
* :class:`MmapCountColumns` — spam/ham count columns in file-backed
  ``mmap`` regions with geometric capacity growth.  File-backed pages
  are reclaimable by the OS and do **not** count against
  ``RLIMIT_DATA``, which is what lets a capped process score folds
  over vocabularies it could not hold as private anonymous memory.

Every store lives under one backend-owned directory named
``repro_store_<pid-hex>_<salt>`` (under ``REPRO_STORE_DIR`` or the
system tempdir).  The pid in the name is the crash-cleanup story:
:func:`gc_stores` — the ``repro gc`` janitor — removes directories
whose owning process is gone.

SQLite connections never cross a fork boundary: each table keys its
connection by ``os.getpid()`` and lazily opens a fresh one in a
forked child — which makes inherited handles safe to *read* (message
rows, token lookups) and to intern into: every table object takes new
IDs from the file inside one write-locked transaction, so two objects
or processes over one file still hand out dense, unique IDs.  Count
columns are NOT safe to inherit for writing: they are ``MAP_SHARED``,
so a child's writes would bleed into the parent.  The engine never ships a
writable disk-backed object across a fork by inheritance: every pooled
map pickles its context (this class reduces to a plain in-memory
``TokenTable``), and forked children needing their own stores build
fresh backends via ``active_backend``.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
from array import array
from pathlib import Path
from typing import Collection, Iterator

import mmap as _mmap

from repro.spambayes.token_table import (
    TOKEN_ID_TYPECODE,
    TokenTable,
    build_text_ranks,
    finish_encode,
)
from repro.storage.base import STORE_DIR_ENV, StorageBackend, pid_alive

__all__ = [
    "STORE_PREFIX",
    "DiskBackend",
    "DiskTokenTable",
    "MmapCountColumns",
    "gc_stores",
    "orphaned_stores",
    "store_root",
]

STORE_PREFIX = "repro_store_"
"""Directory-name prefix for on-disk stores (janitor discovery key)."""

# SQLite's default host-parameter limit is 999; stay well under it
# when expanding ``IN (?, ?, ...)`` lists.
_CHUNK = 512

_ITEMSIZE = array(TOKEN_ID_TYPECODE).itemsize


def _connect(db_path: str) -> sqlite3.Connection:
    """Open an autocommit connection tuned for disposable stores.

    Stores are scratch state recreated from scratch every run, so
    durability machinery (journal, fsync) is pure overhead — a crash
    loses nothing that the janitor will not sweep anyway.
    """
    # check_same_thread=False: connections are pid-keyed, not
    # thread-keyed, and the engine may touch a store from a worker
    # thread while exit cleanup runs on the main one.  CPython's
    # sqlite3 is compiled in serialized threading mode, so sharing a
    # connection across threads is safe at the library level.
    conn = sqlite3.connect(db_path, isolation_level=None, check_same_thread=False)
    conn.execute("PRAGMA journal_mode=OFF")
    conn.execute("PRAGMA synchronous=OFF")
    return conn


class DiskTokenTable(TokenTable):
    """A :class:`TokenTable` whose vocabulary lives in SQLite.

    The bounded token/text caches are pure accelerators: a miss falls
    back to a SELECT, so cache state can never change results, only
    latency.  The same file holds the rows of the messages encoded
    against the table (:meth:`keep_row`/:meth:`fetch_row`).  Pickling
    degrades to a plain in-memory ``TokenTable`` (``__reduce__``),
    matching the existing convention that tables cross process
    boundaries by value; a pickled message ships its row as an array.
    """

    __slots__ = ("_db_path", "_conns", "_cache", "_rcache", "_cache_limit", "_len")

    def __init__(self, db_path: str | Path, cache_limit: int = 1 << 16) -> None:
        # Deliberately no super().__init__(): the list/dict storage is
        # replaced wholesale; only ``_rank_cache`` is reused.
        self._db_path = str(db_path)
        self._conns: dict[int, sqlite3.Connection] = {}
        self._cache: dict[str, int] = {}
        self._rcache: dict[int, str] = {}
        self._cache_limit = cache_limit
        self._rank_cache = None
        conn = self._conn()
        self._len = int(conn.execute("SELECT COUNT(*) FROM tokens").fetchone()[0])

    @property
    def db_path(self) -> str:
        return self._db_path

    def _conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        conn = self._conns.get(pid)
        if conn is None:
            conn = _connect(self._db_path)
            conn.execute(
                "CREATE TABLE IF NOT EXISTS tokens "
                "(id INTEGER PRIMARY KEY, text TEXT NOT NULL UNIQUE)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS rows (i INTEGER PRIMARY KEY, ids BLOB NOT NULL)"
            )
            self._conns[pid] = conn
        return conn

    def _cache_put(self, cache: dict, key, value) -> None:
        if len(cache) >= self._cache_limit:
            # FIFO eviction; dicts preserve insertion order.
            cache.pop(next(iter(cache)))
        cache[key] = value

    # ------------------------------------------------------------------
    # Core interning
    # ------------------------------------------------------------------

    def intern(self, token: str) -> int:
        tid = self.id_of(token)
        return self._intern_new([token])[token] if tid is None else tid

    def id_of(self, token: str) -> int | None:
        tid = self._cache.get(token)
        if tid is None:
            tid = self._lookup_many([token]).get(token)
            if tid is not None:
                self._cache_put(self._cache, token, tid)
        return tid

    def lookup(self, tokens: Collection[str]) -> list[int | None]:
        # Cache hits first, then one chunked query for every miss: an
        # unseen token costs a share of one SELECT per message, not a
        # SELECT of its own on every score.
        ids = list(map(self._cache.get, tokens))
        if None not in ids:
            return ids
        found = self._lookup_many(
            sorted({token for token, tid in zip(tokens, ids) if tid is None})
        )
        if not found:
            return ids
        cache = self._cache
        for token, tid in found.items():
            self._cache_put(cache, token, tid)
        return [
            found.get(token) if tid is None else tid for token, tid in zip(tokens, ids)
        ]

    def token(self, token_id: int) -> str:
        tid = token_id + self._len if token_id < 0 else token_id
        text = self._rcache.get(tid)
        if text is None:
            # Not bounded by ``_len``: another writer may have interned it.
            row = self._conn().execute(
                "SELECT text FROM tokens WHERE id = ?", (tid,)
            ).fetchone()
            if tid < 0 or row is None:
                raise IndexError(f"token id {token_id} out of range")
            text = row[0]
            self._len = max(self._len, tid + 1)
            self._cache_put(self._rcache, tid, text)
        return text

    # ------------------------------------------------------------------
    # Bulk encoding
    # ------------------------------------------------------------------

    def _lookup_many(self, tokens: list[str]) -> dict[str, int]:
        found: dict[str, int] = {}
        conn = self._conn()
        for start in range(0, len(tokens), _CHUNK):
            chunk = tokens[start : start + _CHUNK]
            marks = ",".join("?" * len(chunk))
            for text, tid in conn.execute(
                f"SELECT text, id FROM tokens WHERE text IN ({marks})", chunk
            ):
                found[text] = int(tid)
        if found:
            # Another writer may have interned these: IDs are dense, so
            # the file holds at least every ID up to the largest found.
            self._len = max(self._len, max(found.values()) + 1)
        return found

    def encode_unique(self, tokens) -> array:
        unique = tokens if isinstance(tokens, (set, frozenset)) else set(tokens)
        cache_get = self._cache.get
        ids: list[int] = []
        misses: list[str] = []
        for token in unique:
            tid = cache_get(token)
            if tid is None:
                misses.append(token)
            else:
                ids.append(tid)
        new: list[str] = []
        if misses:
            # Sorted so cache state evolves the same way regardless of
            # set iteration order (results never depend on it anyway —
            # finish_encode sorts — but deterministic state is cheap).
            misses.sort()
            found = self._lookup_many(misses)
            for token in misses:
                tid = found.get(token)
                if tid is None:
                    new.append(token)
                else:
                    ids.append(tid)
                    self._cache_put(self._cache, token, tid)
        if not new:
            ids.sort()
            return array(TOKEN_ID_TYPECODE, ids)
        return finish_encode(ids, new, self._intern_new(new).__getitem__)

    def _intern_new(self, tokens: list[str]) -> dict[str, int]:
        """IDs for ``tokens``, interning those the file lacks in one write.

        Another table object or process may share the file, so IDs come
        from the file itself, inside one ``BEGIN IMMEDIATE`` transaction
        that holds the write lock: the tokens are looked up again, and
        the still-new ones take the next dense IDs in sorted text order.
        This object's caches and ``_len`` take the new IDs only after
        ``COMMIT``; a failure rolls back and leaves them as they were.
        """
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            found = self._lookup_many(tokens)
            start = conn.execute("SELECT COALESCE(MAX(id) + 1, 0) FROM tokens").fetchone()[0]
            new = sorted(token for token in tokens if token not in found)
            rows = list(enumerate(new, start))
            conn.executemany("INSERT INTO tokens (id, text) VALUES (?, ?)", rows)
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        self._len = max(self._len, start + len(rows))
        found.update((token, tid) for tid, token in rows)
        for token, tid in found.items():
            self._cache_put(self._cache, token, tid)
        return found

    def decode(self, ids) -> list[str]:
        rcache = self._rcache
        out: list[str | None] = [None] * len(ids)
        missing: list[tuple[int, int]] = []
        for position, tid in enumerate(ids):
            text = rcache.get(tid)
            if text is None:
                missing.append((position, tid))
            else:
                out[position] = text
        if missing:
            conn = self._conn()
            wanted = sorted({tid for _, tid in missing})
            found: dict[int, str] = {}
            for start in range(0, len(wanted), _CHUNK):
                chunk = wanted[start : start + _CHUNK]
                marks = ",".join("?" * len(chunk))
                for tid, text in conn.execute(
                    f"SELECT id, text FROM tokens WHERE id IN ({marks})", chunk
                ):
                    found[int(tid)] = text
            for position, tid in missing:
                text = found[tid]
                out[position] = text
                self._cache_put(rcache, tid, text)
        return out  # type: ignore[return-value]

    def keep_row(self, ids: array) -> int:
        # SQLite numbers the row, so every table object (and process)
        # over this file gets its own.
        cursor = self._conn().execute("INSERT INTO rows (ids) VALUES (?)", (ids.tobytes(),))
        return cursor.lastrowid

    def fetch_row(self, key: int) -> array:
        blob = self._conn().execute("SELECT ids FROM rows WHERE i = ?", (key,)).fetchone()[0]
        out = array(TOKEN_ID_TYPECODE)
        out.frombytes(blob)
        return out

    def text_order_ranks(self) -> array:
        cached = self._rank_cache
        n = self._len
        if cached is None or len(cached) != n:
            # The full vocabulary is fetched transiently: ranks are an
            # O(vocab) array either way, and Python's sorted() must do
            # the ordering so ranks match the pure combiner exactly.
            tokens = [
                text
                for (text,) in self._conn().execute(
                    "SELECT text FROM tokens WHERE id < ? ORDER BY id", (n,)
                )
            ]
            self._rank_cache = cached = build_text_ranks(tokens)
        return cached

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, token: str) -> bool:
        return self.id_of(token) is not None

    def __iter__(self) -> Iterator[str]:
        # The IDs this object has seen: another writer's later tokens
        # join once a lookup or encode here meets them.
        query = "SELECT text FROM tokens WHERE id < ? ORDER BY id"
        for (text,) in self._conn().execute(query, (self._len,)):
            yield text

    # ------------------------------------------------------------------
    # Pickling: degrade to an in-memory table by value
    # ------------------------------------------------------------------

    def __reduce__(self):
        return (TokenTable, (list(self),))

    def close(self) -> None:
        """Close this process's connection (others close their own)."""
        conn = self._conns.pop(os.getpid(), None)
        if conn is not None:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiskTokenTable(len={self._len}, db={self._db_path!r})"


class MmapCountColumns:
    """Spam/ham count columns in file-backed mmap regions.

    ``grow(n)`` returns length-``n`` views — ``memoryview('q')`` casts
    for the pure kernel (``kind='pure'``), writable ``numpy`` int64
    arrays for the vectorized one (``kind='nd'``).  Capacity grows
    geometrically by ``ftruncate`` + remap; ``ftruncate`` zero-fills
    the extension, which is exactly the "new IDs start at zero counts"
    contract.  Old mmaps are simply dropped: any outstanding views
    keep them alive until released, so earlier views stay valid.
    """

    __slots__ = ("_kind", "_paths", "_files", "_maps", "_capacity", "_length")

    def __init__(self, path_stem: str | Path, kind: str) -> None:
        self._kind = kind
        stem = Path(path_stem)
        self._paths = (stem.with_name(stem.name + ".spam"), stem.with_name(stem.name + ".ham"))
        self._files = [open(path, "w+b") for path in self._paths]
        self._maps: list[_mmap.mmap | None] = [None, None]
        self._capacity = 0
        self._length = 0
        self._remap(1024)

    def _remap(self, capacity: int) -> None:
        for handle in self._files:
            handle.truncate(capacity * _ITEMSIZE)
        self._maps = [
            _mmap.mmap(handle.fileno(), capacity * _ITEMSIZE) for handle in self._files
        ]
        self._capacity = capacity

    def _view(self, index: int, n: int):
        mm = self._maps[index]
        if self._kind == "nd":
            import numpy as np

            return np.frombuffer(mm, dtype=np.int64, count=n)
        return memoryview(mm)[: n * _ITEMSIZE].cast("q")

    def grow(self, n: int):
        if n > self._capacity:
            self._remap(max(n, 2 * self._capacity))
        self._length = max(self._length, n)
        return self._view(0, n), self._view(1, n)

    def close(self) -> None:
        for index, mm in enumerate(self._maps):
            if mm is not None:
                try:
                    mm.close()
                except BufferError:  # pragma: no cover - views still exported
                    pass
                self._maps[index] = None
        for handle in self._files:
            if not handle.closed:
                handle.close()


class DiskBackend(StorageBackend):
    """One store directory per process; see the module docstring."""

    name = "disk"

    def __init__(self, root: Path) -> None:
        self._root = Path(root)
        self._owner_pid = os.getpid()
        self._counter = 0
        self._resources: list = []
        self._destroyed = False

    @classmethod
    def create(cls) -> "DiskBackend":
        root = store_root()
        root.mkdir(parents=True, exist_ok=True)
        salt = int.from_bytes(os.urandom(4), "big")
        path = root / f"{STORE_PREFIX}{os.getpid():x}_{salt:08x}"
        path.mkdir()
        return cls(path)

    @property
    def path(self) -> Path:
        return self._root

    def _next(self, stem: str) -> Path:
        self._counter += 1
        return self._root / f"{stem}_{self._counter:04d}"

    def new_token_table(self) -> DiskTokenTable:
        table = DiskTokenTable(self._next("tokens").with_suffix(".db"))
        self._resources.append(table)
        return table

    def count_columns(self, kind: str) -> MmapCountColumns:
        columns = MmapCountColumns(self._next("cols"), kind)
        self._resources.append(columns)
        return columns

    def close(self) -> None:
        for resource in self._resources:
            resource.close()

    def destroy(self) -> None:
        if self._destroyed or self._owner_pid != os.getpid():
            return
        self._destroyed = True
        self.close()
        shutil.rmtree(self._root, ignore_errors=True)


# ----------------------------------------------------------------------
# Janitor: reclaim stores left by dead processes (``repro gc``)
# ----------------------------------------------------------------------


def store_root() -> Path:
    """Where store directories live (``REPRO_STORE_DIR`` or tempdir)."""
    return Path(os.environ.get(STORE_DIR_ENV) or tempfile.gettempdir())


def _pid_of_store(name: str) -> int | None:
    """Owning pid parsed from a store-directory name, else ``None``."""
    if not name.startswith(STORE_PREFIX):
        return None
    fields = name[len(STORE_PREFIX) :].split("_")
    if len(fields) != 2:
        return None
    try:
        return int(fields[0], 16)
    except ValueError:
        return None


def orphaned_stores(include_live: bool = False) -> list[Path]:
    """Store directories whose owning process is gone.

    Never lists this process's own stores; ``include_live=True``
    widens the sweep to other live owners (the ``--all`` escape hatch).
    """
    root = store_root()
    try:
        entries = sorted(path for path in root.iterdir() if path.is_dir())
    except OSError:  # pragma: no cover - root vanished mid-scan
        return []
    own_pid = os.getpid()
    orphans: list[Path] = []
    for path in entries:
        pid = _pid_of_store(path.name)
        if pid is None or pid == own_pid:
            continue
        if include_live or not pid_alive(pid):
            orphans.append(path)
    return orphans


def reclaim_stores(pids) -> None:
    """Remove the stores of exited processes ``pids`` (killed workers)."""
    dead = set(pids)
    for path in orphaned_stores():
        if _pid_of_store(path.name) in dead:
            shutil.rmtree(path, ignore_errors=True)


def gc_stores(include_live: bool = False) -> list[str]:
    """Remove orphaned store directories; returns the paths removed.

    Removal races (the owner exiting and cleaning up concurrently) are
    tolerated: a directory that vanishes mid-removal is not reported.
    """
    removed: list[str] = []
    for path in orphaned_stores(include_live=include_live):
        try:
            shutil.rmtree(path)
        except FileNotFoundError:  # pragma: no cover - lost the race
            continue
        except OSError:  # pragma: no cover - owner still writing
            continue
        removed.append(str(path))
    return removed
