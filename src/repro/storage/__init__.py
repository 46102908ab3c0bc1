"""Pluggable storage layer: where tables, counts and message rows live.

``REPRO_STORE=memory|disk|auto`` selects the backend; see
:mod:`repro.storage.base` for the protocol and the determinism
argument, :mod:`repro.storage.memory` and :mod:`repro.storage.disk`
for the two implementations, and :mod:`repro.storage.io` for the
shared save/load payload helpers.
"""

from repro.storage.base import (
    STORE_DIR_ENV,
    STORE_ENV,
    StorageBackend,
    active_backend,
    pid_alive,
    store_name,
)
from repro.storage.disk import (
    STORE_PREFIX,
    DiskBackend,
    DiskTokenTable,
    MmapCountColumns,
    gc_stores,
    orphaned_stores,
    store_root,
)
from repro.storage.memory import MemoryBackend, MemoryCountColumns

__all__ = [
    "STORE_DIR_ENV",
    "STORE_ENV",
    "STORE_PREFIX",
    "DiskBackend",
    "DiskTokenTable",
    "MemoryBackend",
    "MemoryCountColumns",
    "MmapCountColumns",
    "StorageBackend",
    "active_backend",
    "gc_stores",
    "orphaned_stores",
    "pid_alive",
    "store_name",
    "store_root",
]
