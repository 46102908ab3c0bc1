"""The always-on filter service (``repro serve``).

The serving layer over the spambayes library: a long-lived asyncio
daemon (:mod:`~repro.serve.service`) speaking a length-prefixed JSON
protocol (:mod:`~repro.serve.protocol`), coalescing concurrent score
requests into bulk kernel calls (:mod:`~repro.serve.batcher`), with a
blocking client (:mod:`~repro.serve.client`) for tests and tools.
"""

from repro.lazy import lazy_exports

# Imported on first use: a client loads neither the service nor NumPy.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.batcher": ("BatcherStats", "MicroBatcher"),
    "repro.serve.client": ("ServeClient", "connect"),
    "repro.serve.service": ("FilterService", "ServeConfig"),
})
