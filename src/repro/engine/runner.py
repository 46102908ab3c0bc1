"""Deterministic, supervised fan-out of experiment tasks over worker processes.

:class:`ParallelRunner` maps a picklable worker function over a task
list with a shared, read-only *context* object, and guarantees:

* **identical results at any worker count** — results are returned in
  task order, every task carries its own pre-derived seed (see
  :mod:`repro.engine.seeding`), and workers never share mutable state;
* **zero overhead in sequential mode** — ``workers <= 1`` (or a single
  task) runs the exact same worker function inline, in the parent
  process, with the parent's context object.  The sequential path *is*
  the parallel path minus the process pool, which is what makes
  equivalence testable;
* **identical results under any fault schedule** — every pooled map
  runs through one :class:`WorkerPool`, which is always supervised
  (below).

The worker function must be a module-level function (picklable by
reference) of signature ``fn(context, task) -> result``.  Tasks and
results cross process boundaries, so they must pickle; everything the
experiment layer ships (datasets, classifiers, attacks, confusion
counts) does.

The pool
--------

:class:`WorkerPool` is the one pool.  ``ParallelRunner.map`` builds one
sized to its task list for the length of the map; the serve daemon
keeps one warm across requests.  Maps may be issued from several
threads at once; each returns its own results in its own task order.

Each map pickles its ``(fn, context)`` pair once into a blob, splits its
tasks into ``min(workers, tasks)`` contiguous chunks, and submits each
chunk with the blob attached; workers unpickle the pair once per
(worker, map-call) and serve the rest of the call from a small cache.
Contexts therefore always travel by value: a worker never inherits a
live parent object (a disk-backed token table reduces to a plain
in-memory one), and no map creates a cross-process resource that
outlives its pool.

Supervision
-----------

Every map runs under a :class:`~repro.engine.supervise.SupervisePolicy`
(the ambient one unless the pool was given its own), and its
:class:`~repro.engine.supervise.SuperviseStats` ledger counts what
recovery had to do:

* **Deadlines** — each dispatch wave of chunks gets
  ``policy.timeout`` seconds; chunks that miss it are presumed wedged,
  their workers are killed, and the chunks are retried on a fresh
  worker set.
* **Crash detection** — a worker that dies mid-chunk (segfault,
  OOM-kill, injected ``os._exit``) breaks the executor
  (``BrokenProcessPool``); the pool respawns and retries only the
  chunks that never completed, so completed work survives.
* **Bounded retry, then degradation** — after ``policy.retries``
  respawn-and-retry rounds, the remaining chunks run inline,
  sequentially, in the parent process (``policy.degrade``, default
  on).  With degradation off the map raises
  :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.MapTimeoutError` carrying chunk and task
  provenance.

Recovery recomputes from pristine state, which is why records are
byte-identical under any fault schedule: a chunk's results return
all-or-nothing; every retry wave uses a fresh call token, so workers
unpickle a pristine ``(fn, context)``; and the degraded path is the
sequential path.  ``tests/test_golden.py`` checks this on every
registered scenario under injected crashes and hangs.

A replication (:mod:`repro.engine.replicate`) is one ordinary map whose
tasks are whole replicas, each run start to finish inside one worker.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, NamedTuple, Sequence, TypeVar

from repro.engine import faults
from repro.engine.supervise import (
    SupervisePolicy,
    SuperviseStats,
    current_policy,
    resolve_workers,
)
from repro.errors import EngineError, MapTimeoutError, WorkerCrashError

__all__ = [
    "ParallelRunner",
    "WorkerPool",
    "resolve_workers",
]

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


# ----------------------------------------------------------------------
# Worker side
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
    fault_key: str,
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
        # Mid-chunk injection point: a crash here discards the chunk's
        # partial results with the process, so the retry recomputes the
        # whole chunk from a freshly-unpickled context — which is what
        # keeps retries bit-identical.
        faults.inject("worker-chunk", f"{fault_key}:{offset}")
        results.append(fn(context, task))
    return start, results


def _tiny_map_ships(blob_size: int) -> bool:  # pragma: no cover
    # Uncalled; e2ebench/launch.py still wraps this name.  It goes
    # once the benchmark reads spans instead of patching module names.
    return False


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


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


def _provenance(fn: Callable, chunk: Sequence[Any]) -> str:
    """A short, re-runnable description of a chunk's first task."""
    text = f"{fn.__module__}.{fn.__qualname__}({chunk[0]!r})"
    return text if len(text) <= 160 else text[:157] + "..."


class _WaveFailure(NamedTuple):
    """What a dispatch wave left unfinished, and why."""

    open_starts: set[int]
    kind: str  # crash | timeout
    cause: BaseException | None
    generation: int


class WorkerPool:
    """A supervised process pool shared by many ``map`` calls.

    Call :meth:`run` once per map, from any number of threads.  The
    pool outlives any single map: recovery respawns and retries into
    it, and a long-lived service keeps its workers warm across requests
    instead of forking per map.

    ``policy`` defaults to the ambient
    :func:`~repro.engine.supervise.current_policy`; :attr:`stats`
    counts crashes, timeouts, respawns, retried and degraded chunks.
    Recovery is thread-safe: when one thread's wave breaks the
    executor, the generation check in :meth:`respawn` ensures exactly
    one thread pays the respawn and the others retry into the new
    worker set.

    Results are identical to sequential execution: each call's results
    come back in its own task order, and nothing a worker computes
    depends on which pool ran it or how often it was retried.
    """

    def __init__(
        self, workers: int | None = None, policy: SupervisePolicy | None = None
    ) -> None:
        self.workers = resolve_workers(workers)
        if self.workers < 2:
            raise EngineError(
                f"a WorkerPool needs >= 2 workers, got {self.workers}; "
                "run sequentially instead"
            )
        self.policy = current_policy() if policy is None else policy
        self.stats = SuperviseStats()
        self._executor: Executor = self._spawn_executor()
        self._lock = threading.Lock()
        self._next_token = 0
        self._map_seq = 0
        self._closed = False
        # Bumped on every respawn: a map that saw the pool break hands
        # its generation back, so concurrent threads that hit the same
        # broken executor trigger exactly one respawn.
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
        """One ``map`` call's worth of tasks through the pool, supervised.

        The ``(fn, context)`` pair is pickled exactly once; the tasks go
        out as ``min(workers, tasks)`` contiguous chunks carrying the
        blob.  A task's own exception is a deterministic outcome: it
        propagates, cancels this call's remaining chunks and consumes
        no retry — other concurrent calls are untouched.
        """
        if self._closed:
            raise EngineError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        with self._lock:
            map_seq = self._map_seq
            self._map_seq += 1
        policy = self.policy
        blob = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
        results: list[Any] = [None] * len(tasks)
        pending = list(_chunked(tasks, self.workers))
        attempt = 0
        while pending:
            failure = self._dispatch_wave(map_seq, attempt, blob, pending, results)
            pending = [entry for entry in pending if entry[0] in failure.open_starts]
            if not pending:
                break
            self.stats.bump({"crash": "crashes", "timeout": "timeouts"}[failure.kind])
            # Crash: the executor is broken.  Timeout: workers are
            # presumed wedged and must die.  Either way the chunks
            # retry on a fresh worker set.
            if self.respawn(failure.generation):
                self.stats.bump("respawns")
            attempt += 1
            if attempt <= policy.retries:
                self.stats.bump("retried_chunks", len(pending))
                continue
            if policy.degrade:
                # Retries exhausted: finish the map in-process, the
                # sequential reference path.  Worker-side fault sites
                # don't fire in the parent, so this always terminates.
                self.stats.bump("degraded_chunks", len(pending))
                for start, chunk in pending:
                    inline = [fn(context, task) for task in chunk]
                    results[start : start + len(inline)] = inline
                break
            starts = tuple(start for start, _ in pending)
            provenance = _provenance(fn, pending[0][1])
            if failure.kind == "timeout":
                raise MapTimeoutError(
                    f"map chunks missed their {policy.timeout:g}s deadline "
                    f"and the retry budget ({policy.retries}) is exhausted",
                    chunk_starts=starts,
                    attempts=attempt,
                    provenance=provenance,
                )
            raise WorkerCrashError(
                "worker process died (pool broke); "
                f"retry budget ({policy.retries}) is exhausted",
                chunk_starts=starts,
                attempts=attempt,
                provenance=provenance,
            ) from failure.cause
        return results

    def _dispatch_wave(
        self,
        map_seq: int,
        attempt: int,
        blob: bytes,
        pending: list[tuple[int, Sequence[Any]]],
        results: list[Any],
    ) -> _WaveFailure:
        """Submit ``pending`` once; record completions into ``results``.

        Returns the set of chunk starts still open plus the failure
        class that left them open (``crash``/``timeout``).
        Application exceptions are not failures in this sense — they
        are deterministic outcomes, so the wave drains and re-raises
        immediately, retrying nothing.
        """
        # Fresh token per wave: a retried chunk must unpickle a
        # pristine (fn, context), never one a previous attempt mutated.
        token = self._token()
        generation = self.generation
        open_starts = {start for start, _ in pending}
        futures = {}
        kind, cause = None, None
        try:
            for start, chunk in pending:
                fault_key = f"{map_seq}:{start}:{attempt}"
                futures[
                    self._executor.submit(_run_shared_chunk, token, blob, start, chunk, fault_key)
                ] = start
        except (BrokenProcessPool, RuntimeError) as exc:
            # The executor broke (or was shut down by a concurrent
            # respawn race) before the wave was fully submitted.
            kind, cause = "crash", exc
        deadline = (
            None
            if self.policy.timeout is None
            else time.monotonic() + self.policy.timeout
        )
        app_error: BaseException | None = None
        remaining = set(futures)
        while remaining:
            wait_for = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            done, remaining = wait(remaining, timeout=wait_for)
            if not done:
                kind = kind or "timeout"
                break
            for future in done:
                try:
                    chunk_start, chunk_results = future.result()
                except BrokenProcessPool as exc:
                    if kind is None:
                        kind, cause = "crash", exc
                except BaseException as exc:
                    app_error = app_error or exc
                else:
                    results[chunk_start : chunk_start + len(chunk_results)] = (
                        chunk_results
                    )
                    open_starts.discard(futures[future])
            if app_error is not None:
                # Deterministic task failure: it would fail identically
                # on any retry.  Drain the siblings and surface it as-is.
                _drain(list(futures))
                raise app_error
        return _WaveFailure(open_starts, kind or "crash", cause, generation)

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
    """Maps ``fn(context, task)`` over tasks, inline or in a :class:`WorkerPool`."""

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
        burning through the rest of the fan-out first.  A worker that
        dies or misses the ambient deadline costs a retry, not the map.
        """
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            # A pool for one task would pay a fork for nothing.
            return [fn(context, task) for task in tasks]
        with WorkerPool(min(self.workers, len(tasks))) as pool:
            return pool.run(fn, context, tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(workers={self.workers})"
