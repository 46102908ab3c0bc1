"""Pluggable storage layer: where tables, counts and message rows live.

``REPRO_STORE=memory|disk|auto`` selects the backend; see
:mod:`repro.storage.base` for the protocol and the determinism
argument, :mod:`repro.storage.memory` and :mod:`repro.storage.disk`
for the two implementations, and :mod:`repro.storage.io` for the
shared save/load payload helpers.
"""

from repro.lazy import lazy_exports
from repro.storage.base import (
    STORE_DIR_ENV,
    STORE_ENV,
    StorageBackend,
    active_backend,
    pid_alive,
    store_name,
)
from repro.storage.memory import MemoryBackend, MemoryCountColumns

# The disk names load on first use: selecting the memory backend never
# imports the disk backend (and sqlite3).
__getattr__, __dir__, _disk_names = lazy_exports(__name__, {
    "repro.storage.disk": (
        "STORE_PREFIX",
        "DiskBackend",
        "DiskTokenTable",
        "MmapCountColumns",
        "gc_stores",
        "orphaned_stores",
        "store_root",
    ),
})

__all__ = [
    "STORE_DIR_ENV",
    "STORE_ENV",
    "StorageBackend",
    "active_backend",
    "pid_alive",
    "store_name",
    "MemoryBackend",
    "MemoryCountColumns",
    *_disk_names,
]
