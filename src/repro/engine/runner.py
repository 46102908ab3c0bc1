"""Deterministic fan-out of experiment tasks over worker processes.

:class:`ParallelRunner` is the one concurrency primitive in this
library.  It maps a picklable worker function over a task list with a
shared, read-only *context* object, and guarantees:

* **identical results at any worker count** — results are returned in
  task order, every task carries its own pre-derived seed (see
  :mod:`repro.engine.seeding`), and workers never share mutable state;
* **zero overhead in sequential mode** — ``workers <= 1`` runs the
  exact same worker function inline, in the parent process, with the
  parent's context object.  The sequential path *is* the parallel path
  minus the process pool, which is what makes equivalence testable;
* **one context transfer per worker, not per task** — the context
  (corpus, trained classifiers, attack objects) is shipped through the
  pool initializer, so a 10-fold sweep pickles the inbox ``min(workers,
  tasks)`` times, not 10 times.  Contexts always travel by value:
  no map creates a cross-process resource, so nothing outlives the
  pool that ran it.

The worker function must be a module-level function (picklable by
reference) of signature ``fn(context, task) -> result``.  Tasks and
results cross process boundaries, so they must pickle; everything the
experiment layer ships (datasets, classifiers, attacks, confusion
counts) does.

Persistent pools
----------------

A plain ``ParallelRunner.map`` owns its pool: it forks workers, runs
its tasks, and tears the pool down.  :class:`WorkerPool` is the
persistent alternative for callers that issue many maps against one
worker set: the supervisor's
:class:`~repro.engine.supervise.SupervisedPool` (respawn and retry
need a pool that outlives one wave) and the serve daemon's scoring
pool.  Maps may be issued from
several threads at once; each returns its own results in its own
task order.

Because one pool serves many ``(fn, context)`` pairs, contexts cannot
ride the pool initializer.  Instead each ``map`` call pickles its
``(fn, context)`` pair once into a blob, splits its tasks into
``min(workers, tasks)`` contiguous chunks, and submits each chunk with
the blob attached; workers unpickle the pair once per (worker,
map-call) and serve the rest of the call from a small cache.  Context
transfer count therefore matches the private-pool initializer path
exactly, while chunks from concurrent calls still interleave freely in
the shared worker set.

A replication (:mod:`repro.engine.replicate`) needs neither: its unit
of parallelism is a whole replica, so it is one ordinary map whose
tasks are replicas, each run start to finish inside one worker.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed, wait
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.engine import faults
from repro.errors import EngineError

__all__ = [
    "ParallelRunner",
    "WorkerPool",
    "resolve_workers",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

# Per-worker-process slots, populated once by the pool initializer.
_worker_fn: Callable[[Any, Any], Any] | None = None
_worker_context: Any = None


def _initialize_worker(fn: Callable[[Any, Any], Any], context: Any) -> None:
    global _worker_fn, _worker_context
    _worker_fn = fn
    _worker_context = context
    faults.mark_worker_process()


def _run_indexed_task(index: int, task: Any) -> tuple[int, Any]:
    assert _worker_fn is not None, "worker used before initialization"
    return index, _worker_fn(_worker_context, task)


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``--workers`` value: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(f"workers must be >= 0 (0 = all CPUs), got {workers}")
    return workers


# ----------------------------------------------------------------------
# The shared worker pool
# ----------------------------------------------------------------------

# Worker-side cache of unpickled (fn, context) pairs, keyed by map-call
# token, in LRU order.  The pool sizes the cache from its own width at
# worker startup (via the initializer), so a pool-width set of
# concurrent calls always fits, while finished calls' contexts —
# potentially a whole tokenized inbox plus trained model — roll out
# instead of staying pinned in every worker for the pool's lifetime.  Evicting a
# still-live entry is only a re-unpickle, never an error.
_shared_entries: "OrderedDict[tuple[int, int], tuple[Callable, Any]]" = OrderedDict()
_shared_entry_slots = 8


def _initialize_shared_worker(slots: int) -> None:
    global _shared_entry_slots
    _shared_entry_slots = slots
    faults.mark_worker_process()


def _run_shared_chunk(
    token: tuple[int, int],
    blob: bytes,
    start: int,
    tasks: Sequence[Any],
    fault_key: str | None = None,
) -> tuple[int, list[Any]]:
    entry = _shared_entries.get(token)
    if entry is None:
        entry = pickle.loads(blob)
        _shared_entries[token] = entry
        while len(_shared_entries) > _shared_entry_slots:
            _shared_entries.popitem(last=False)
    else:
        _shared_entries.move_to_end(token)
    fn, context = entry
    results: list[Any] = []
    for offset, task in enumerate(tasks):
        if fault_key is not None:
            # Mid-chunk injection point: a crash here discards the
            # chunk's partial results with the process, so the retry
            # recomputes the whole chunk from a freshly-unpickled
            # context — which is what keeps retries bit-identical.
            faults.inject("worker-chunk", f"{fault_key}:{offset}")
        results.append(fn(context, task))
    return start, results


def _run_direct_blob(blob: bytes, task: Any) -> Any:
    """Run one task shipped without the chunk-blob caching protocol.

    Tiny maps (a single task) skip the per-call-token worker cache:
    the ``(fn, context)`` blob the parent already pickled (to size the
    ship/inline decision) rides the submit once and is unpickled once,
    instead of being shipped, cached and evicted under a call token.
    Computes the exact same ``fn(context, task)`` as every other path.
    """
    fn, context = pickle.loads(blob)
    return fn(context, task)


# Maps with at most this many tasks skip the chunk-blob protocol.
_TINY_MAP_TASKS = 1

# A tiny map ships to the pool only while its (fn, context) pickle
# stays under this; past it, shipping moves more bytes than the lone
# task can plausibly amortize.
_TINY_MAP_SHIP_LIMIT = 4 << 20


def _tiny_map_ships(blob_size: int) -> bool:
    """Should a tiny (single-task) map ship to a :class:`WorkerPool` at all?

    A lone task gains nothing from the pool *by itself* — the win is
    concurrency with other threads' maps on the same pool.  Two
    situations where shipping is pure overhead, measured as the 0.98x
    pooled-stream regression in ``BENCH_stream.json``:

    * **No parallel hardware.**  With one CPU the pool serializes
      everything anyway, so the pickle round-trip is the only effect.
    * **An outsized context.**  Shipping multi-megabyte state across a
      process boundary for a single task costs more than the task's
      share of any concurrency it buys.

    Inline execution computes the identical ``fn(context, task)`` —
    records are byte-identical either way, which
    ``tests/test_replication.py`` pins by monkeypatching this predicate
    in both directions.
    """
    if (os.cpu_count() or 1) < 2:
        return False
    return blob_size <= _TINY_MAP_SHIP_LIMIT


def _chunked(tasks: Sequence[Any], chunks: int) -> Iterator[tuple[int, Sequence[Any]]]:
    """Split tasks into ``chunks`` contiguous, near-equal runs.

    Deterministic and order-preserving: chunk boundaries depend only on
    ``(len(tasks), chunks)``, and reassembling the chunk results by
    start index reproduces task order exactly.
    """
    n = len(tasks)
    chunks = min(chunks, n)
    base, extra = divmod(n, chunks)
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        yield start, tasks[start : start + size]
        start += size


def _drain(futures: Sequence[Any]) -> None:
    """Cancel what can be cancelled, then wait out what cannot.

    A failed map must not leave in-flight sibling tasks running
    unattended: their completions would interleave with (and in the
    shared-cache worst case, race) whatever the caller submits next.
    Cancelled futures resolve immediately; already-running ones are
    waited to completion.  Exceptions stay inside their futures.
    """
    for future in futures:
        future.cancel()
    wait(futures)


def _kill_executor(executor: Executor) -> None:
    """Tear an executor down even when its workers are dead or wedged.

    ``shutdown(wait=True)`` on a pool with a hung worker blocks until
    the worker comes back — which a wedged worker never does.  So:
    terminate every worker process first (SIGTERM, then SIGKILL for
    any survivor), then shut the bookkeeping down without waiting.
    Reaches into ``_processes`` (stable private API since 3.8); if it
    ever disappears, the fallback is a plain non-waiting shutdown.
    """
    process_map = getattr(executor, "_processes", None)
    processes = list(process_map.values()) if process_map else []
    results = getattr(executor, "_result_queue", None)  # shutdown drops it
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may complain
        pass
    for process in processes:
        try:
            process.join(5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(5.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass
    # A worker killed mid-send leaves half a result in the pipe, and the
    # executor's manager thread blocks reading the rest; interpreter exit
    # would then wait on that thread forever.  Closing this process's
    # write end turns the read into EOF once no live worker holds one.
    if results is not None:
        results._writer.close()
    # Killed workers skip their exit hooks: remove the stores they built.
    from repro.storage.disk import reclaim_stores

    reclaim_stores(process.pid for process in processes)


class WorkerPool:
    """A persistent process pool shared by many ``map`` calls.

    Call :meth:`run` once per map, from any number of threads.  The
    pool outlives any single map, which is the point: the supervisor
    respawns and retries into it, and a long-lived service keeps its
    workers warm across requests instead of forking per map.

    Results are identical to private-pool (and sequential) execution:
    each call's results come back in its own task order, and nothing a
    worker computes depends on which pool ran it.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        if self.workers < 2:
            raise EngineError(
                f"a shared WorkerPool needs >= 2 workers, got {self.workers}; "
                "run sequentially instead"
            )
        self._executor: Executor = self._spawn_executor()
        self._lock = threading.Lock()
        self._next_token = 0
        self._closed = False
        # Bumped on every respawn: a supervised map that saw the pool
        # break hands its generation back, so concurrent threads that
        # hit the same broken executor trigger exactly one respawn.
        self._generation = 0

    def _spawn_executor(self) -> Executor:
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_shared_worker,
            # Headroom over the pool width keeps a just-finished call's
            # context warm for its last straggler chunks.
            initargs=(self.workers + 4,),
        )
        # Start the pool NOW, while (ideally) only the constructing
        # thread exists.  Stock ProcessPoolExecutor starts lazily on
        # first submit — which for a shared pool would mean forking
        # workers from whichever thread submits first, the classic
        # fork-with-threads deadlock setup.  This is the exact hook submit() itself
        # calls: on the fork start method it launches every worker
        # process and the manager thread together.  It is private API;
        # if it disappears, the pool degrades to stock lazy start
        # rather than breaking.
        start = getattr(executor, "_start_executor_manager_thread", None)
        if start is not None:
            start()
        return executor

    @property
    def generation(self) -> int:
        """Current executor incarnation (bumped by :meth:`respawn`)."""
        return self._generation

    def respawn(self, generation: int | None = None) -> bool:
        """Replace the worker set with a fresh one (crash recovery).

        Swaps in a new executor, then kills the old one — terminating
        its processes first, so wedged (hung) workers die instead of
        blocking shutdown.

        ``generation`` is the incarnation the caller observed broken;
        if another thread already respawned past it this is a no-op
        returning False, so N threads hitting one broken executor pay
        one respawn, not N.
        """
        with self._lock:
            if self._closed:
                raise EngineError("WorkerPool is closed")
            if generation is not None and generation != self._generation:
                return False
            old = self._executor
            self._executor = self._spawn_executor()
            self._generation += 1
        _kill_executor(old)
        return True

    def _token(self) -> tuple[int, int]:
        with self._lock:
            token = self._next_token
            self._next_token += 1
        return (os.getpid(), token)

    def run(
        self,
        fn: Callable[[Any, TaskT], ResultT],
        context: Any,
        tasks: Sequence[TaskT],
    ) -> list[ResultT]:
        """One ``map`` call's worth of tasks through the shared pool.

        The ``(fn, context)`` pair is pickled exactly once; the tasks
        go out as ``min(workers, tasks)`` contiguous chunks carrying
        the blob (workers cache the unpickled pair per call token, so
        the unpickle cost is once per worker, like the initializer
        path).  A chunk exception propagates and cancels this call's
        remaining chunks — other concurrent calls are untouched.
        """
        if self._closed:
            raise EngineError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) <= _TINY_MAP_TASKS:
            blob = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
            if not _tiny_map_ships(len(blob)):
                # Stay inline: on this hardware (or at this context
                # size) the pool cannot pay for the transfer.  Same
                # deterministic computation, same records.
                return [fn(context, task) for task in tasks]
            futures = [
                self._executor.submit(_run_direct_blob, blob, task)
                for task in tasks
            ]
            try:
                return [future.result() for future in futures]
            except BaseException:
                _drain(futures)
                raise
        token = self._token()
        blob = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
        futures = [
            self._executor.submit(_run_shared_chunk, token, blob, start, chunk)
            for start, chunk in _chunked(tasks, self.workers)
        ]
        results: list[Any] = [None] * len(tasks)
        try:
            for future in as_completed(futures):
                start, chunk_results = future.result()
                results[start : start + len(chunk_results)] = chunk_results
        except BaseException:
            _drain(futures)
            raise
        return results

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"WorkerPool(workers={self.workers}, {state})"


class ParallelRunner:
    """Maps ``fn(context, task)`` over tasks, optionally in a process pool."""

    def __init__(self, workers: int | None = 1) -> None:
        self.workers = resolve_workers(workers)

    def map(
        self,
        fn: Callable[[Any, TaskT], ResultT],
        context: Any,
        tasks: Sequence[TaskT],
    ) -> list[ResultT]:
        """Run every task; return results in task order.

        A worker exception propagates to the caller (with the original
        traceback rendered by ``concurrent.futures``) and cancels every
        task still queued, so a failed sweep dies promptly instead of
        burning through the rest of the fan-out first.
        """
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            # A private pool for one task would pay a fork for nothing.
            return [fn(context, task) for task in tasks]
        # Supervision (timeouts/retries/fault tolerance) is ambient:
        # when a policy is active — CLI flags, REPRO_TIMEOUT/RETRIES,
        # or a fault plan — private-pool maps run supervised too.
        # Imported lazily; supervise imports this module.
        from repro.engine import supervise

        if supervise.current_policy() is not None:
            return supervise.supervised_map(fn, context, tasks, self.workers)
        # Fork-started workers inherit ``initargs`` by memory, not by
        # pickle — a disk-backed context would hand every worker the
        # parent's *live* SQLite token table and MAP_SHARED count
        # columns, so sibling interns collide and worker-side learning
        # bleeds across processes.  A pickle roundtrip first gives
        # workers the same independent by-value copies a WorkerPool
        # ships (DiskTokenTable reduces to a plain in-memory
        # table); memory-backend contexts skip the copy.
        from repro.storage import store_name

        if store_name() == "disk":
            context = pickle.loads(pickle.dumps(context))
        results: list[Any] = [None] * len(tasks)
        max_workers = min(self.workers, len(tasks))
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_initialize_worker,
            initargs=(fn, context),
        ) as executor:
            futures = [
                executor.submit(_run_indexed_task, index, task)
                for index, task in enumerate(tasks)
            ]
            try:
                for future in as_completed(futures):
                    index, result = future.result()
                    results[index] = result
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(workers={self.workers})"
