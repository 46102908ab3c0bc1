"""The always-on filter service: an asyncio daemon over a live classifier.

This is the project's serving layer — the paper's threat
model is a *live* filter under continuous mail flow with periodic
retraining, and this daemon is that surface: clients connect over a
Unix socket or TCP port, stream framed requests
(:mod:`repro.serve.protocol`), and get scores from, and apply training
to, one long-lived classifier built on whatever ``REPRO_STORE``
backend is ambient.

Three tasks structure the loop:

* **Reader tasks** (one per connection) parse frames and dispatch
  them.  Dispatch is synchronous up to enqueue — a connection's
  requests enter the scoring batcher and the writer queue in frame
  order — then each response writes itself from a done-callback when
  its future resolves, demultiplexed by request ``id``.
* **The micro-batcher** (:mod:`repro.serve.batcher`) coalesces
  concurrent ``score`` requests into one bulk call, closed once
  arrivals stop — ``Classifier.score_many`` inline on the loop thread,
  or per-message ``score`` fanned across a
  :class:`~repro.engine.runner.WorkerPool` from a helper thread (a
  pooled run can block for long) when ``--workers N>=2`` — both
  byte-identical to scoring each message alone, which is the
  library's own ``score_many`` contract.
* **The writer task** applies every mutation (``train``, ``feedback``,
  ``snapshot``) one at a time, in arrival order, stamping each with a
  global sequence number.  Scoring holds the same model lock per
  batch, so a batch sees either all or none of any mutation and
  reports ``model_seq`` — the sequence number of the state it scored
  under — which is what lets the concurrency suite replay a concurrent
  session sequentially and demand identical floats.

Crash behaviour is inherited, not reinvented: pooled scoring runs
through the engine's always-supervised
:class:`~repro.engine.runner.WorkerPool`, so an injected or genuine
worker death (``REPRO_FAULTS=crash:p=...``) retries the batch on a
fresh worker set and ultimately degrades to inline scoring — the
client sees the same bytes, later, never a dropped connection.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import ConfigurationError, ProtocolError, ServeError
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.spambayes import ndkernel
from repro.spambayes.classifier import Classifier
from repro.spambayes.persistence import save_classifier
from repro.storage import store_name

if TYPE_CHECKING:
    from repro.engine.runner import WorkerPool

__all__ = ["ServeConfig", "FilterService", "serve_in_thread"]

DEFAULT_BATCH_WINDOW_MS = 2.0
DEFAULT_MAX_BATCH = 256


def _score_task(classifier: Classifier, tokens: Sequence[str]) -> float:
    """Worker-side scoring unit: one message through the live model.

    Module-level so it pickles by reference; the classifier rides the
    pool's ``(fn, context)`` blob once per batch, so every worker
    scores against the exact model state the batch was stamped with.
    """
    return classifier.score(tokens)


@dataclass(frozen=True)
class ServeConfig:
    """How to run the daemon.

    Exactly one of ``socket_path`` (Unix domain socket) and ``port``
    (TCP, ``host`` defaulting to loopback; port 0 lets the OS pick and
    :attr:`FilterService.address` reports the choice).  A
    ``batch_window_ms`` of 0 disables coalescing entirely: every
    request is its own bulk call.  ``workers >= 2`` scores batches
    through a supervised process pool; below that, inline.
    """

    socket_path: str | None = None
    port: int | None = None
    host: str = "127.0.0.1"
    batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS
    workers: int = 1
    max_batch: int = DEFAULT_MAX_BATCH
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.port is None):
            raise ConfigurationError(
                "serve needs exactly one of --socket PATH or --port N"
            )
        if self.port is not None and not (0 <= self.port <= 65535):
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.batch_window_ms < 0:
            raise ConfigurationError(
                f"batch window must be >= 0 ms, got {self.batch_window_ms}"
            )
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.max_batch < 1:
            raise ConfigurationError(f"max batch must be >= 1, got {self.max_batch}")
        if self.max_frame_bytes < protocol.HEADER.size:
            raise ConfigurationError(
                f"frame cap must be >= {protocol.HEADER.size} bytes, "
                f"got {self.max_frame_bytes}"
            )


class FilterService:
    """One live classifier behind a framed request/response loop.

    ``classifier`` defaults to a fresh
    :func:`~repro.spambayes.ndkernel.create_classifier` on the ambient
    storage backend.  ``pool`` is an optional pre-built
    :class:`~repro.engine.runner.WorkerPool`; when ``workers >=
    2`` and none is given, :meth:`run` builds one (callers embedding
    the service in a threaded host should build the pool themselves,
    in the main thread, before any threads start — forking with
    threads live is the classic deadlock).
    """

    def __init__(
        self,
        config: ServeConfig,
        classifier: Classifier | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.config = config
        self.classifier = (
            ndkernel.create_classifier() if classifier is None else classifier
        )
        self.pool = pool
        self._owns_pool = False
        self.ready = threading.Event()
        self.stopped = threading.Event()
        self.address: Any = None  # socket path, or (host, port) once bound
        self.seq = 0  # global mutation counter
        self.requests: dict[str, int] = {verb: 0 for verb in protocol.VERBS}
        self.errors = 0
        self.startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_requested: asyncio.Event | None = None
        self._batcher: MicroBatcher | None = None
        self._model_lock: asyncio.Lock | None = None
        self._write_queue: asyncio.Queue | None = None
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives.

        Blocking; owns its own event loop.  Sets :attr:`ready` once
        the listening socket is bound and :attr:`stopped` on the way
        out — the handshake ``serve_in_thread`` and the CLI's address
        announcement both key on.
        """
        if self.pool is None and self.config.workers >= 2:
            self.pool = _worker_pool(self.config.workers)
            self._owns_pool = True
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self.startup_error = exc
            raise
        finally:
            if self._owns_pool and self.pool is not None:
                self.pool.close()
                self.pool = None
            self.ready.set()  # never leave a waiter hanging on a failed start
            self.stopped.set()

    def stop(self) -> None:
        """Request shutdown from any thread (signal handlers, hosts)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._request_stop)

    def _request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        # Clean exit on SIGINT/SIGTERM in the CLI path; unavailable
        # (and unneeded) when hosted off the main thread.
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.add_signal_handler(signum, self._request_stop)
        self._model_lock = asyncio.Lock()
        self._write_queue = asyncio.Queue()
        self._batcher = MicroBatcher(
            self._score_batch,
            window_s=self.config.batch_window_ms / 1000.0,
            max_batch=self.config.max_batch,
        )
        self._batcher.start()
        writer_task = self._loop.create_task(
            self._writer_loop(), name="repro-serve-writer"
        )
        server = await self._open_server()
        try:
            self.ready.set()
            await self._stop_requested.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Drain in-flight work before tearing the machinery down:
            # connections finish their current responses, queued
            # mutations apply, then the batcher and writer stop.
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._write_queue.join()
            writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
            await self._batcher.close()
            self._unlink_socket()

    async def _open_server(self):
        if self.config.socket_path is not None:
            path = Path(self.config.socket_path)
            if path.exists():
                raise ServeError(f"socket path already exists: {path}")
            path.parent.mkdir(parents=True, exist_ok=True)
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path)
            )
            self.address = str(path)
        else:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            self.address = server.sockets[0].getsockname()[:2]
        return server

    def _unlink_socket(self) -> None:
        if self.config.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        pending: set[asyncio.Future] = set()

        def send(payload: dict) -> None:
            # Whole-frame writes from the loop thread never interleave;
            # backpressure is applied by the read loop's drain() below.
            with contextlib.suppress(Exception):
                writer.write(protocol.encode_frame(payload))

        def deliver(future: asyncio.Future, request_id) -> None:
            # Runs as a done-callback: no per-request reply task.  Each
            # reply is its own writer.write, and on an idle transport
            # each write goes out as its own send(); a batch's replies
            # are not joined into one write.
            pending.discard(future)
            try:
                payload = future.result()
            except asyncio.CancelledError:
                send(protocol.error_reply(request_id, "service shutting down"))
                return
            except Exception as exc:  # noqa: BLE001 - envelope per failure
                self.errors += 1
                send(protocol.error_reply(request_id, exc))
                return
            send({"id": request_id, "ok": True, **payload})

        try:
            while True:
                try:
                    body = await protocol.read_frame(
                        reader, self.config.max_frame_bytes
                    )
                except protocol.OversizedFrameError as exc:
                    # The stream cannot be resynchronized past a bogus
                    # length; answer, then drop the connection.
                    self.errors += 1
                    send(protocol.error_reply(None, exc))
                    break
                except protocol.TruncatedFrameError as exc:
                    # Peer vanished mid-frame; best-effort envelope in
                    # case half the duplex is still up.
                    self.errors += 1
                    send(protocol.error_reply(None, exc))
                    break
                if body is None:  # clean EOF at a frame boundary
                    break
                try:
                    request = protocol.decode_payload(body)
                except ProtocolError as exc:
                    # Framing survived; only this payload is garbage.
                    self.errors += 1
                    send(protocol.error_reply(None, exc))
                    await writer.drain()
                    continue
                # Dispatch synchronously (ordering!); the reply writes
                # itself when the future resolves.
                future = self._dispatch(request)
                pending.add(future)
                future.add_done_callback(
                    functools.partial(deliver, request_id=request.get("id"))
                )
                # Per-connection backpressure: past the transport's
                # high-water mark this parks the reader until the
                # client reads its replies.
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if pending:
                # In-flight requests finish and (their callbacks ran
                # first — registered before gather's) get answered
                # before the connection closes under them.
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            self._connections.discard(task)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, request: dict):
        """Route one request; returns an awaitable of the reply payload.

        Synchronous through enqueue: by the time this returns, a score
        sits in the batcher queue and a mutation in the writer queue,
        so one connection's requests take effect in frame order.
        """
        verb = request.get("verb")
        if verb not in protocol.VERBS:
            return self._fail(
                f"unknown verb {verb!r}; expected one of {', '.join(protocol.VERBS)}"
            )
        self.requests[verb] += 1
        if verb == "ping":
            return self._immediate({"pong": True})
        if verb == "score":
            try:
                tokens = self._tokens_of(request)
            except ProtocolError as exc:
                return self._fail(exc)
            return self._batcher.submit(tokens)
        if verb in ("train", "feedback"):
            try:
                tokens = self._tokens_of(request)
                is_spam = request.get("is_spam")
                if not isinstance(is_spam, bool):
                    raise ProtocolError(
                        f"{verb} needs boolean field 'is_spam', got "
                        f"{type(is_spam).__name__}"
                    )
            except ProtocolError as exc:
                return self._fail(exc)
            return self._enqueue_write(self._apply_learn, tokens, is_spam)
        if verb == "snapshot":
            path = request.get("path")
            if not isinstance(path, str) or not path:
                return self._fail("snapshot needs non-empty string field 'path'")
            return self._enqueue_write(self._apply_snapshot, path)
        if verb == "stats":
            return self._immediate(self._stats_payload())
        # shutdown: acknowledge first, then stop — the reply must make
        # it out before the server starts tearing connections down.
        self._loop.call_soon(self._request_stop)
        return self._immediate({"stopping": True})

    @staticmethod
    def _tokens_of(request: dict) -> list[str]:
        tokens = request.get("tokens")
        if not isinstance(tokens, list) or not all(
            map(isinstance, tokens, itertools.repeat(str))
        ):
            raise ProtocolError("field 'tokens' must be a list of strings")
        return tokens

    def _immediate(self, payload: dict):
        future = self._loop.create_future()
        future.set_result(payload)
        return future

    def _fail(self, message: object):
        future = self._loop.create_future()
        future.set_exception(ProtocolError(protocol.one_line(message)))
        return future

    # ------------------------------------------------------------------
    # The writer task (mutations, serialized)
    # ------------------------------------------------------------------

    def _enqueue_write(self, apply, *args):
        future = self._loop.create_future()
        self._write_queue.put_nowait((apply, args, future))
        return future

    async def _writer_loop(self) -> None:
        while True:
            apply, args, future = await self._write_queue.get()
            try:
                async with self._model_lock:
                    payload = apply(*args)
            except Exception as exc:  # noqa: BLE001 - envelope per request
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(payload)
            finally:
                self._write_queue.task_done()

    def _apply_learn(self, tokens: list[str], is_spam: bool) -> dict:
        self.classifier.learn(tokens, is_spam)
        self.seq += 1
        return {
            "seq": self.seq,
            "nspam": self.classifier.nspam,
            "nham": self.classifier.nham,
        }

    def _apply_snapshot(self, path: str) -> dict:
        save_classifier(self.classifier, path)
        return {"path": path, "seq": self.seq}

    # ------------------------------------------------------------------
    # Scoring (the batcher's execute callback)
    # ------------------------------------------------------------------

    async def _score_batch(self, token_lists: Sequence[list[str]]) -> list[dict]:
        async with self._model_lock:
            model_seq = self.seq
            if self.pool is not None:
                # A supervised pool run can block for long: off the loop.
                scores = await asyncio.to_thread(
                    self.pool.run, _score_task, self.classifier, list(token_lists)
                )
            else:
                scores = self.classifier.score_many(list(token_lists))
        batch = len(token_lists)
        return [
            {"score": score, "batch": batch, "model_seq": model_seq}
            for score in scores
        ]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def _stats_payload(self) -> dict:
        payload = {
            "requests": dict(self.requests),
            "errors": self.errors,
            "seq": self.seq,
            "nspam": self.classifier.nspam,
            "nham": self.classifier.nham,
            # Kept for stats clients; there is one kernel.
            "kernel": ndkernel.kernel_name(),
            "store": store_name(),
            "workers": self.config.workers,
            "batch_window_ms": self.config.batch_window_ms,
            "batching": self._batcher.stats.as_dict(),
        }
        if self.pool is not None:
            payload["supervision"] = self.pool.stats.as_dict()
        return payload


def _worker_pool(workers: int) -> WorkerPool:
    # The process pool (and multiprocessing) loads only when a
    # ``--workers N>=2`` daemon needs it.
    from repro.engine.runner import WorkerPool

    return WorkerPool(workers)


@contextlib.contextmanager
def serve_in_thread(
    config: ServeConfig, classifier: Classifier | None = None
) -> Iterator[FilterService]:
    """Run a service on a daemon thread for the duration of a block.

    The test-suite harness: builds the (optional) supervised pool in
    the *calling* thread — before the serve thread exists, keeping the
    fork away from live threads — starts :meth:`FilterService.run` on
    a daemon thread, waits for the socket to be bound, and guarantees
    shutdown (and pool teardown) on exit however the block ends.
    """
    pool = _worker_pool(config.workers) if config.workers >= 2 else None
    service = FilterService(config, classifier=classifier, pool=pool)

    def _run_quietly() -> None:
        # run() records any failure in service.startup_error; the
        # thread excepthook would only add traceback noise on top.
        with contextlib.suppress(BaseException):
            service.run()

    thread = threading.Thread(
        target=_run_quietly, name="repro-serve", daemon=True
    )
    thread.start()
    service.ready.wait(timeout=30.0)
    try:
        if service.startup_error is not None:
            raise ServeError(
                f"filter service failed to start: "
                f"{protocol.one_line(service.startup_error)}"
            ) from service.startup_error
        yield service
    finally:
        service.stop()
        service.stopped.wait(timeout=30.0)
        thread.join(timeout=30.0)
        if pool is not None:
            pool.close()
