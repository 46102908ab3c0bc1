"""Worker supervision: deadlines, crash detection, bounded retry,
graceful degradation.

:class:`~repro.engine.runner.WorkerPool` is fast but trusting: one
dead worker breaks the executor and the whole map dies; one wedged
worker blocks it forever.  This module wraps the pool in the
discipline long-lived mail systems apply to their children —
supervise, respawn, retry, and when all else fails do the work
yourself:

* **Deadlines** — each dispatch wave of chunks gets
  ``policy.timeout`` seconds; chunks that miss it are presumed wedged,
  their workers are killed, and the chunks are retried on a fresh
  worker set.
* **Crash detection** — a worker that dies mid-chunk (segfault,
  OOM-kill, injected ``os._exit``) breaks the executor
  (``BrokenProcessPool``); the supervisor respawns the pool and
  retries only the chunks that never completed.
* **Chunk-level accounting** — results are recorded per chunk as
  chunks finish, so completed work *survives* a respawn; a crash at
  90% re-runs 10%.
* **Bounded retry, then degradation** — after ``policy.retries``
  respawn-and-retry rounds, the supervisor runs the remaining chunks
  inline, sequentially, in the parent process (``policy.degrade``,
  default on) — slower, but always terminates with correct results.
  With degradation off it raises
  :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.MapTimeoutError` carrying chunk and task
  provenance.

Determinism under retry
-----------------------

The contract inherited from the engine — identical results at any
worker count — extends to *identical results under any fault
schedule*, because every recovery path recomputes from pristine
state:

1. A chunk's results are returned all-or-nothing: a worker that dies
   mid-chunk takes its partial results with it, so no partially-poked
   state is ever observed.
2. Every retry wave uses a **fresh call token**, so workers unpickle a
   pristine ``(fn, context)`` — a retried chunk can never see a
   context object some earlier attempt mutated.
3. The degraded path runs the caller's original ``fn(context, task)``
   inline — exactly the sequential execution path, which is the
   equivalence the engine is tested against.

``tests/test_golden.py`` checks the theorem on every registered
scenario: each record is byte-identical to its golden under injected
crashes and hangs.

Activation
----------

A policy is *ambient*: :func:`use_supervision` installs one
thread-locally (the CLI's ``--timeout``/``--retries`` path), and the
environment supplies a default (``REPRO_TIMEOUT``, ``REPRO_RETRIES``,
``REPRO_DEGRADE`` — and merely setting ``REPRO_FAULTS`` activates
supervision, because injected faults without a supervisor would just
be crashes).  When no policy is active the engine behaves exactly as
before this layer existed.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.engine import faults
from repro.engine.runner import (
    WorkerPool,
    _chunked,
    _drain,
    _run_shared_chunk,
    resolve_workers,
)
from repro.errors import EngineError, MapTimeoutError, WorkerCrashError

__all__ = [
    "DEFAULT_RETRIES",
    "SupervisePolicy",
    "SuperviseStats",
    "SupervisedPool",
    "current_policy",
    "policy_from_env",
    "supervised_map",
    "use_supervision",
]

TIMEOUT_ENV = "REPRO_TIMEOUT"
"""Per-wave chunk deadline in seconds (float; empty/unset = none)."""
RETRIES_ENV = "REPRO_RETRIES"
"""Respawn-and-retry rounds per map call before degradation."""
DEGRADE_ENV = "REPRO_DEGRADE"
"""Set to ``0`` to raise after exhausted retries instead of running
the remaining chunks inline."""

DEFAULT_RETRIES = 2
"""Retry rounds when supervision is active but no count configured."""


@dataclass(frozen=True)
class SupervisePolicy:
    """How a supervised map treats its workers.

    ``timeout`` is the deadline, in seconds, for one dispatch wave of
    chunks — queueing included, so size it for the map, not for one
    task.  ``retries`` bounds how many respawn-and-retry rounds a map
    may consume.  ``degrade`` selects the endgame: inline sequential
    execution of whatever never completed (default), or a structured
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.MapTimeoutError`.
    """

    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise EngineError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.retries < 0:
            raise EngineError(f"retries must be >= 0, got {self.retries}")


class SuperviseStats:
    """Thread-safe counters of what supervision had to do.

    Observability for tests and post-mortems: a differential fault run
    asserts not only that the records match but that faults actually
    fired (``crashes``/``timeouts`` nonzero) — a fault suite that
    silently stopped injecting proves nothing.
    """

    _FIELDS = (
        "crashes",
        "timeouts",
        "respawns",
        "retried_chunks",
        "degraded_chunks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SuperviseStats({inner})"


# ----------------------------------------------------------------------
# Ambient policy resolution
# ----------------------------------------------------------------------

_UNSET = object()
_policy_local = threading.local()


def policy_from_env() -> SupervisePolicy | None:
    """The environment-default policy, or ``None`` when inactive.

    Active when any supervision knob is set *or* a fault plan is live:
    injecting faults into an unsupervised engine would only prove that
    crashes crash.
    """
    timeout_raw = os.environ.get(TIMEOUT_ENV, "").strip()
    retries_raw = os.environ.get(RETRIES_ENV, "").strip()
    try:
        timeout = float(timeout_raw) if timeout_raw else None
    except ValueError:
        raise EngineError(f"{TIMEOUT_ENV} must be a number, got {timeout_raw!r}") from None
    try:
        retries = int(retries_raw) if retries_raw else None
    except ValueError:
        raise EngineError(f"{RETRIES_ENV} must be an integer, got {retries_raw!r}") from None
    degrade = os.environ.get(DEGRADE_ENV, "").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )
    if timeout is None and retries is None and faults.active_plan() is None:
        return None
    return SupervisePolicy(
        timeout=timeout,
        retries=DEFAULT_RETRIES if retries is None else retries,
        degrade=degrade,
    )


@contextmanager
def use_supervision(policy: SupervisePolicy | None) -> Iterator[SupervisePolicy | None]:
    """Install ``policy`` for this thread's engine maps.

    ``None`` explicitly *disables* supervision within the block, even
    when the environment would supply a default — how a differential
    test runs its clean reference while ``REPRO_FAULTS`` is exported.
    """
    previous = getattr(_policy_local, "policy", _UNSET)
    _policy_local.policy = policy
    try:
        yield policy
    finally:
        if previous is _UNSET:
            del _policy_local.policy
        else:
            _policy_local.policy = previous


def current_policy() -> SupervisePolicy | None:
    """The policy in force on this thread (override, else env default)."""
    override = getattr(_policy_local, "policy", _UNSET)
    if override is not _UNSET:
        return override
    return policy_from_env()


# ----------------------------------------------------------------------
# The supervised pool
# ----------------------------------------------------------------------


def _provenance(fn: Callable, chunk: Sequence[Any]) -> str:
    """A short, re-runnable description of a chunk's first task."""
    text = f"{fn.__module__}.{fn.__qualname__}({chunk[0]!r})"
    return text if len(text) <= 160 else text[:157] + "..."


class SupervisedPool(WorkerPool):
    """A :class:`WorkerPool` whose maps survive their workers.

    Drop-in for ``WorkerPool`` everywhere: ``run`` returns the same
    results — it just refuses to die with its workers.  Every map,
    tiny or not, goes through the chunk protocol so that chunk
    accounting and retry apply uniformly.

    Safe to share between threads like its parent class, and so is
    recovery: when one thread's wave breaks the executor, the
    generation check in :meth:`WorkerPool.respawn` ensures exactly one
    thread pays the respawn and the others simply retry into the new
    worker set.
    """

    def __init__(
        self, workers: int | None = None, policy: SupervisePolicy | None = None
    ) -> None:
        super().__init__(workers)
        if policy is None:
            policy = current_policy() or SupervisePolicy()
        self.policy = policy
        self.stats = SuperviseStats()
        self._map_seq = 0

    def run(
        self,
        fn: Callable[[Any, Any], Any],
        context: Any,
        tasks: Sequence[Any],
    ) -> list[Any]:
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
        pending: list[tuple[int, Sequence[Any]]] = list(
            _chunked(tasks, self.workers)
        )
        attempt = 0
        while pending:
            failure = self._dispatch_wave(
                map_seq, attempt, blob, pending, results
            )
            pending = [entry for entry in pending if entry[0] in failure.open_starts]
            if not pending:
                break
            kind, cause = failure.kind, failure.cause
            self.stats.bump({"crash": "crashes", "timeout": "timeouts"}[kind])
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
                pending = []
                break
            starts = tuple(start for start, _ in pending)
            provenance = _provenance(fn, pending[0][1])
            if kind == "timeout":
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
            ) from cause
        return results

    # -- one dispatch wave -------------------------------------------

    class _WaveFailure:
        """What a wave left unfinished, and why."""

        __slots__ = ("open_starts", "kind", "cause", "generation")

        def __init__(self, open_starts, kind, cause, generation):
            self.open_starts = open_starts
            self.kind = kind
            self.cause = cause
            self.generation = generation

    def _dispatch_wave(
        self,
        map_seq: int,
        attempt: int,
        blob: bytes,
        pending: list[tuple[int, Sequence[Any]]],
        results: list[Any],
    ) -> "_WaveFailure":
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
                    self._executor.submit(
                        _run_shared_chunk, token, blob, start, chunk, fault_key
                    )
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
                kind, cause = kind or "timeout", cause
                break
            for future in done:
                start = futures[future]
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
                    open_starts.discard(start)
            if app_error is not None:
                break
        if app_error is not None:
            # Deterministic task failure: it would fail identically on
            # any retry.  Drain the siblings and surface it as-is.
            _drain(list(futures))
            raise app_error
        return self._WaveFailure(open_starts, kind or "crash", cause, generation)


def supervised_map(
    fn: Callable[[Any, Any], Any],
    context: Any,
    tasks: Sequence[Any],
    workers: int | None,
    policy: SupervisePolicy | None = None,
) -> list[Any]:
    """One private map under supervision.

    What ``ParallelRunner.map`` routes into when a policy is ambient
    (a replication's replica map included): a throwaway
    :class:`SupervisedPool` sized to the task list.  Falls back to inline execution when the
    map couldn't go parallel anyway.
    """
    tasks = list(tasks)
    if policy is None:
        policy = current_policy()
    pool_workers = min(resolve_workers(workers), len(tasks))
    if policy is None or pool_workers < 2 or len(tasks) < 2:
        return [fn(context, task) for task in tasks]
    with SupervisedPool(pool_workers, policy=policy) as pool:
        return pool.run(fn, context, tasks)
