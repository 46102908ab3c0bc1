"""Backend selection and the storage protocol every consumer codes to.

The storage layer owns three kinds of state that previously lived as
hard-coded in-memory structures:

* the append-only **token table** (``str <-> int`` interning with a
  seed-stable layout — see :mod:`repro.spambayes.token_table`),
* the classifier's **spam/ham count columns** (flat integer columns
  indexed by token ID),
* encoded **message rows** (each message's sorted token-ID array,
  kept by the table it was encoded against).

A :class:`StorageBackend` decides where each lives.  Two ship:

* ``memory`` — the original in-memory structures, extracted verbatim
  (:mod:`repro.storage.memory`); byte-identical behaviour to the
  pre-storage-layer code by construction;
* ``disk`` — SQLite-backed token tables that also hold their message
  rows, plus mmap-backed count columns (:mod:`repro.storage.disk`), so
  encoded corpora and vocabulary spill to disk instead of capping at
  RAM.

Selection is environmental (``REPRO_STORE=memory|disk|auto``):
``auto`` (or unset) means ``memory`` — the disk backend is opt-in
because it trades speed for bounded RSS.  The **determinism contract
survives the choice**: records never depend on the token-table layout
(scoring tie-breaks compare token *text*, persisted dumps sort by
text), so ``REPRO_STORE=memory`` and ``REPRO_STORE=disk`` produce
byte-identical scenario, replicate and stream records — the golden
records in ``tests/golden/`` are replayed on both backends by
``tests/test_golden.py``.

Backends are **per process**: :func:`active_backend` keys its cache on
``(pid, name)``, so a forked worker lazily builds its own backend (its
own SQLite connections, its own store directory) instead of sharing
file handles across the fork — SQLite connections must never cross a
fork boundary.  Cleanup is registered both with :mod:`atexit` (the
parent) and ``multiprocessing.util.Finalize`` (pool workers exit via
``os._exit`` and skip atexit); stores orphaned by SIGKILL are
reclaimed by the ``repro gc`` janitor (:func:`repro.storage.disk.
gc_stores`), which decides liveness from the pid baked into each
store-directory name.
"""

from __future__ import annotations

import atexit
import os

from repro.errors import ConfigurationError

__all__ = [
    "STORE_DIR_ENV",
    "STORE_ENV",
    "StorageBackend",
    "active_backend",
    "pid_alive",
    "store_name",
]

STORE_ENV = "REPRO_STORE"
"""Environment variable selecting the storage backend (memory/disk/auto)."""

STORE_DIR_ENV = "REPRO_STORE_DIR"
"""Directory the disk backend roots its stores under (default: tempdir)."""


def store_name() -> str:
    """Resolve the active backend name from ``REPRO_STORE``.

    ``auto`` (or unset) picks ``memory``: the in-memory backend is the
    reproduction's historical behaviour and the fastest path, so disk
    spilling is strictly opt-in.  Unknown values are a configuration
    error rather than a silent default.
    """
    value = os.environ.get(STORE_ENV, "auto").strip().lower() or "auto"
    if value == "auto":
        return "memory"
    if value not in ("memory", "disk"):
        raise ConfigurationError(
            f"{STORE_ENV} must be 'memory', 'disk' or 'auto', got {value!r}"
        )
    return value


def pid_alive(pid: int) -> bool:
    """True when a process with ``pid`` exists (signal-0 probe).

    What the store janitor decides orphan-ness from: the pid baked
    into a store directory's name.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    return True


class StorageBackend:
    """What a storage backend provides; see the module docstring.

    The interface is deliberately small — everything the classifier,
    the corpus layer and persistence need, nothing more:

    * :meth:`new_token_table` — a fresh append-only token table (the
      unit a classifier owns when none is shared with it, and the
      keeper of the rows of the messages encoded against it);
    * :meth:`count_columns` — a column store whose ``grow(n)`` returns
      the ``(spam, ham)`` count columns, NumPy int64 arrays sized to
      ``n`` IDs.
    """

    name: str = "abstract"

    def new_token_table(self):
        raise NotImplementedError

    def count_columns(self):
        raise NotImplementedError

    def close(self) -> None:
        """Release file handles (idempotent; memory backends no-op)."""

    def destroy(self) -> None:
        """Close and remove any on-disk state (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# (pid, backend name) -> backend.  Pid-keyed so forked workers build
# their own backends instead of inheriting open SQLite connections.
_active: dict[tuple[int, str], StorageBackend] = {}


def active_backend() -> StorageBackend:
    """The process's backend for the current ``REPRO_STORE`` setting.

    Read dynamically (never cached at import), so tests can flip the
    environment mid-process and the next call honours it; each
    resolved name keeps one backend per process for its lifetime.
    """
    name = store_name()
    key = (os.getpid(), name)
    backend = _active.get(key)
    if backend is None:
        if name == "disk":
            from repro.storage.disk import DiskBackend

            backend = DiskBackend.create()
        else:
            from repro.storage.memory import MemoryBackend

            backend = MemoryBackend()
        _active[key] = backend
        _register_cleanup()
    return backend


_cleanup_registered_for: int | None = None


def _destroy_own_backends() -> None:
    """Destroy every backend this process created (exit backstop)."""
    pid = os.getpid()
    for key in [k for k in _active if k[0] == pid]:
        backend = _active.pop(key)
        try:
            backend.destroy()
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass


def _register_cleanup() -> None:
    """Arm exit-time destruction in this process (once per pid).

    Pool workers exit through ``os._exit`` — atexit never runs there —
    but ``multiprocessing.util``'s finalizers do, so both hooks are
    registered; destruction is idempotent, so firing twice is safe.
    """
    global _cleanup_registered_for
    pid = os.getpid()
    if _cleanup_registered_for == pid:
        return
    _cleanup_registered_for = pid
    atexit.register(_destroy_own_backends)
    try:  # pragma: no branch - stdlib, but optional on exotic builds
        from multiprocessing import util as _mp_util

        _mp_util.Finalize(None, _destroy_own_backends, exitpriority=10)
    except ImportError:  # pragma: no cover
        pass
