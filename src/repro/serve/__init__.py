"""The always-on filter service (``repro serve``).

The serving layer over the spambayes library: a long-lived asyncio
daemon (:mod:`~repro.serve.service`) speaking a length-prefixed JSON
protocol (:mod:`~repro.serve.protocol`), coalescing concurrent score
requests into bulk kernel calls (:mod:`~repro.serve.batcher`), with a
blocking client (:mod:`~repro.serve.client`) for tests and tools.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.client import ServeClient, connect
from repro.serve.service import FilterService, ServeConfig, serve_in_thread

__all__ = [
    "BatcherStats",
    "FilterService",
    "MicroBatcher",
    "ServeClient",
    "ServeConfig",
    "connect",
    "serve_in_thread",
]
