"""Micro-batching for concurrent score requests.

The daemon's scoring hot path is a bulk kernel call
(``Classifier.score_many`` / the ND kernel's vectorized twin), whose
per-call overhead — attribute lookups, kernel dispatch, numpy array
setup — is amortized across every message in the batch.  A lone wire
request would pay all of it for one message.  The micro-batcher
recovers the bulk shape from concurrent traffic: requests that arrive
back to back are coalesced into one bulk call and the per-request
results demultiplexed back to their futures, in submission order, so
no client can observe another client's answer.  A batch closes once
arrivals stop — the queue has not grown over two event-loop passes —
or when it is full; ``--batch-window`` (milliseconds) is only the upper
bound on how long a batch that keeps growing may wait.

The contract that makes coalescing safe is the library's own:
``score_many(token_sets)`` returns exactly
``[score(ts) for ts in token_sets]`` — byte-identical floats — so a
batched response equals the response the same request would have
received alone.  The differential suite holds the daemon to that.

A window of ``0`` disables coalescing (``max_batch`` is forced to 1):
that is the semantics of ``repro serve --batch-window 0``.
``tests/test_serve_concurrency.py`` counts the default window's
coalescing under pipelined load.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

__all__ = ["BatcherStats", "MicroBatcher"]


@dataclass
class BatcherStats:
    """Counters describing how traffic actually coalesced."""

    requests: int = 0
    batches: int = 0
    batched_requests: int = 0  # requests that shared a batch with >=1 other
    max_batch: int = 0
    batch_sizes: dict = field(default_factory=dict)  # size -> count
    closed_by: dict = field(
        default_factory=lambda: dict.fromkeys(("quiet", "full", "window"), 0)
    )

    def record(self, size: int, reason: str) -> None:
        self.closed_by[reason] += 1
        self.requests += size
        self.batches += 1
        if size > 1:
            self.batched_requests += size
        if size > self.max_batch:
            self.max_batch = size
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch": self.max_batch,
            "mean_batch": (self.requests / self.batches) if self.batches else 0.0,
            "batch_sizes": {str(k): v for k, v in sorted(self.batch_sizes.items())},
            "closed_by": dict(self.closed_by),
        }


class MicroBatcher:
    """Coalesce submitted items into bulk executions.

    ``execute`` is an async callable receiving the list of queued
    items (in submission order) and returning one result per item, in
    the same order.  Each submitter's future resolves to its own
    result; if the bulk call raises, every future in that batch gets
    the same exception.

    The drain loop waits for the first item, then yields to the event
    loop one pass at a time while concurrent peers pile in.  It
    executes up to ``max_batch`` items once the queue has not grown
    over two consecutive passes (``"quiet"``), once ``max_batch`` items
    are queued (``"full"``), or once the window ends (``"window"``);
    :attr:`BatcherStats.closed_by` counts each.  A zero window forces
    ``max_batch=1``: exactly one-request-per-call serving.
    """

    def __init__(
        self,
        execute: Callable[[Sequence[Any]], Awaitable[Sequence[Any]]],
        *,
        window_s: float = 0.002,
        max_batch: int = 256,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._execute = execute
        self._window_s = max(0.0, window_s)
        self._max_batch = 1 if self._window_s == 0.0 else max_batch
        self._queue: list[tuple[Any, asyncio.Future]] = []
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self.stats = BatcherStats()

    @property
    def max_batch(self) -> int:
        return self._max_batch

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop(), name="repro-serve-batcher"
            )

    async def close(self) -> None:
        """Stop the drain loop, failing every unanswered submission:
        the queued ones and the batch in flight."""
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            task, self._task = self._task, None
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        _fail(self._queue, asyncio.CancelledError("batcher closed"))
        self._queue.clear()

    def submit(self, item: Any) -> asyncio.Future:
        """Queue one item; the returned future resolves to its result.

        Synchronous up to the first await of the caller, so items from
        one connection's reader enqueue in frame order.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append((item, future))
        self._wakeup.set()
        return future

    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                await self._wakeup.wait()
            self._wakeup.clear()
            if self._closed:
                return
            # Two quiet passes, not one: a frame takes one pass to
            # reach the protocol and a second for its reader to
            # submit.  A queue still growing never flushes as a
            # fragment — flushing whatever is queued the moment the
            # previous batch finishes would lock the steady state into
            # alternating full and fragment batches.
            deadline = loop.time() + self._window_s
            seen, quiet, reason = len(self._queue), 0, "full"
            while seen < self._max_batch:
                if loop.time() >= deadline:
                    reason = "window"
                    break
                await asyncio.sleep(0)
                quiet = quiet + 1 if len(self._queue) == seen else 0
                seen = len(self._queue)
                if quiet == 2:
                    reason = "quiet"
                    break
            batch = self._queue[: self._max_batch]
            del self._queue[: len(batch)]
            if batch:
                await self._run_batch(batch, reason)

    async def _run_batch(
        self, batch: list[tuple[Any, asyncio.Future]], reason: str
    ) -> None:
        items = [item for item, _ in batch]
        self.stats.record(len(items), reason)
        try:
            results = await self._execute(items)
        except asyncio.CancelledError:
            # close() cancelled the drain task mid-batch: these futures
            # left the queue, so nothing else would ever resolve them.
            _fail(batch, asyncio.CancelledError("batcher closed"))
            raise
        except Exception as exc:  # noqa: BLE001 - fan the failure out per-future
            _fail(batch, exc)
            return
        if len(results) != len(items):
            _fail(batch, RuntimeError(
                f"bulk scorer returned {len(results)} results "
                f"for {len(items)} requests"
            ))
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)


def _fail(batch: list[tuple[Any, asyncio.Future]], exc: BaseException) -> None:
    for _, future in batch:
        if not future.done():
            future.set_exception(exc)
