"""Property tests for the shared-memory corpus transport.

The contract under test (``repro.engine.sharedmem``):

* a published corpus round-trips exactly — the pickled handle is tiny,
  workers (or a re-attached handle in this process) read back the same
  rows, zero-copy;
* attached views are **read-only** — a worker cannot scribble on the
  corpus other workers are scoring;
* segments never leak — unlink-on-pool-shutdown, explicit unlink, and
  the atexit backstop all remove the ``/dev/shm`` name, and every test
  here runs under a leak detector that scans the run-unique prefix in
  teardown;
* when shared memory is unavailable the layer degrades to ordinary
  pickling through a ``ReproError``-mediated fallback, with identical
  data on the other side.

Plus the WorkerPool tiny-map regression (BENCH_stream 0.98x): maps of
a single task skip the chunk-blob protocol, and the pooled path's
records stay byte-identical to sequential execution.
"""

from __future__ import annotations

import json
import os
import pickle
import signal

import pytest

np = pytest.importorskip("numpy")

from repro.engine import sharedmem
from repro.engine.runner import WorkerPool
from repro.errors import EngineError, ReproError
from repro.spambayes.ndkernel import CsrMatrix


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Fail any test that leaves a segment under the run-unique prefix."""
    yield
    prefix = sharedmem.segment_prefix()
    leaked = sorted(
        name for name in os.listdir("/dev/shm") if name.startswith(prefix)
    ) if os.path.isdir("/dev/shm") else []
    if leaked:
        # Clean up before failing so one leak doesn't cascade.
        sharedmem.unlink_all_segments()
        for name in leaked:
            path = os.path.join("/dev/shm", name)
            if os.path.exists(path):  # pragma: no cover - unlink_all missed it
                os.unlink(path)
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


def _corpus_rows(n: int = 6) -> list:
    return [np.arange(i, 2 * i + 1, dtype=np.int64) for i in range(n)]


def _make_csr(n: int = 6) -> CsrMatrix:
    return CsrMatrix.from_rows(_corpus_rows(n))


# ----------------------------------------------------------------------
# Publish / attach round-trips
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_handle_pickles_in_bytes_and_rows_round_trip(self):
        csr = _make_csr()
        handle = sharedmem.SharedCorpus.publish(csr)
        try:
            blob = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
            # The whole point of the transport: a corpus handle is a
            # name plus two lengths, not the corpus.
            assert len(blob) < 200
            attached = pickle.loads(blob)
            assert not attached.owner
            assert len(attached) == len(csr)
            got = [row.tolist() for row in attached.as_csr().rows()]
            want = [row.tolist() for row in csr.rows()]
            assert got == want
            del got
            attached.close()
        finally:
            handle.unlink()

    def test_empty_corpus_round_trips(self):
        csr = CsrMatrix.from_rows([])
        handle = sharedmem.SharedCorpus.publish(csr)
        try:
            attached = pickle.loads(pickle.dumps(handle))
            assert len(attached) == 0
            assert list(attached.as_csr().rows()) == []
            attached.close()
        finally:
            handle.unlink()

    def test_rows_list_is_cached_and_identical(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            first = handle.rows_list()
            second = handle.rows_list()
            # Stable view objects: what keeps per-message score memos
            # warm across repeated map calls in a worker.
            assert all(a is b for a, b in zip(first, second))
            assert len(first) == len(handle)
            del first, second
        finally:
            handle.unlink()

    def test_attach_detach_reattach(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            twin = pickle.loads(pickle.dumps(handle))
            before = [row.tolist() for row in twin.as_csr().rows()]
            twin.close()
            after = [row.tolist() for row in twin.as_csr().rows()]
            assert before == after
            twin.close()
        finally:
            handle.unlink()


# ----------------------------------------------------------------------
# Read-only enforcement
# ----------------------------------------------------------------------


class TestReadOnly:
    def test_attached_views_refuse_writes(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            attached = pickle.loads(pickle.dumps(handle))
            csr = attached.as_csr()
            assert not csr.indices.flags.writeable
            assert not csr.indptr.flags.writeable
            with pytest.raises(ValueError):
                csr.indices[0] = 99
            with pytest.raises(ValueError):
                csr.row(2)[0] = 99
            del csr
            attached.close()
        finally:
            handle.unlink()


# ----------------------------------------------------------------------
# Lifetime: unlink semantics and the leak detector
# ----------------------------------------------------------------------


class TestLifetime:
    def test_unlink_removes_dev_shm_name(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        assert os.path.exists(os.path.join("/dev/shm", handle.name))
        handle.unlink()
        assert not os.path.exists(os.path.join("/dev/shm", handle.name))

    def test_unlink_is_idempotent(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        handle.unlink()
        handle.unlink()

    def test_close_is_idempotent_and_attach_safe(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            twin = pickle.loads(pickle.dumps(handle))
            twin.close()
            twin.close()
        finally:
            handle.unlink()

    def test_unlink_all_segments_backstop(self):
        handles = [sharedmem.SharedCorpus.publish(_make_csr(n)) for n in (2, 3, 4)]
        names = [handle.name for handle in handles]
        assert all(os.path.exists(os.path.join("/dev/shm", name)) for name in names)
        sharedmem.unlink_all_segments()
        assert not any(os.path.exists(os.path.join("/dev/shm", name)) for name in names)

    def test_unlink_while_attached_elsewhere_is_safe(self):
        # POSIX semantics the lifetime model leans on: unlinking drops
        # the name immediately; existing mappings keep working.
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        twin = pickle.loads(pickle.dumps(handle))
        rows = twin.as_csr()
        handle.unlink()
        assert not os.path.exists(os.path.join("/dev/shm", handle.name))
        assert rows.row(1).tolist() == _corpus_rows()[1].tolist()
        del rows
        twin.close()


# ----------------------------------------------------------------------
# Error paths: attach failures, create failures, live-view close
# ----------------------------------------------------------------------


class TestErrorPaths:
    def test_attach_after_unlink_raises_engine_error(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        twin = pickle.loads(pickle.dumps(handle))
        handle.unlink()
        with pytest.raises(EngineError):
            twin.as_csr()

    def test_publish_translates_oserror(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no shm for you")

        monkeypatch.setattr(sharedmem._shm_module, "SharedMemory", refuse)
        with pytest.raises(EngineError):
            sharedmem.SharedCorpus.publish(_make_csr())

    def test_attach_without_shm_module_raises(self, monkeypatch):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            twin = pickle.loads(pickle.dumps(handle))
            with monkeypatch.context() as patched:
                patched.setattr(sharedmem, "_shm_module", None)
                with pytest.raises(EngineError):
                    twin.as_csr()
        finally:
            handle.unlink()

    def test_attach_untracked_without_tracker_module(self, monkeypatch):
        # On builds without resource_tracker there is nothing to
        # suppress — the attach passes straight through.
        class StubShm:
            def __init__(self, name):
                self.name = name

        stub_module = type(
            "StubModule", (), {"SharedMemory": staticmethod(StubShm)}
        )
        monkeypatch.setattr(sharedmem, "_resource_tracker", None)
        monkeypatch.setattr(sharedmem, "_shm_module", stub_module)
        assert sharedmem._attach_untracked("seg-name").name == "seg-name"

    def test_close_with_live_views_stays_attached(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            twin = pickle.loads(pickle.dumps(handle))
            csr = twin.as_csr()
            # Closing while numpy still exports the buffer must not
            # corrupt the handle: it stays attached, views keep working.
            twin.close()
            assert csr.row(1).tolist() == _corpus_rows()[1].tolist()
            del csr
            twin.close()
        finally:
            handle.unlink()

    def test_owner_unlink_after_close_reattaches(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        name = handle.name
        handle.close()
        handle.unlink()
        assert not os.path.exists(os.path.join("/dev/shm", name))


# ----------------------------------------------------------------------
# Graceful fallback when shared memory is unavailable
# ----------------------------------------------------------------------


class TestFallback:
    def test_publish_raises_repro_error_when_disabled(self, monkeypatch):
        monkeypatch.setenv(sharedmem.SHM_ENV, "0")
        with pytest.raises(ReproError):
            sharedmem.SharedCorpus.publish(_make_csr())
        with pytest.raises(EngineError):
            sharedmem.SharedCorpus.publish(_make_csr())

    def test_share_corpus_falls_back_to_inline(self, monkeypatch):
        monkeypatch.setenv(sharedmem.SHM_ENV, "0")
        csr = _make_csr()
        corpus = sharedmem.share_corpus(csr)
        assert isinstance(corpus, sharedmem.InlineCorpus)
        clone = pickle.loads(pickle.dumps(corpus))
        assert [row.tolist() for row in clone.as_csr().rows()] == [
            row.tolist() for row in csr.rows()
        ]
        # Interface parity: lifetime calls are harmless no-ops.
        clone.close()
        clone.unlink()
        assert clone.name is None

    def test_share_corpus_falls_back_when_module_missing(self, monkeypatch):
        monkeypatch.setattr(sharedmem, "_shm_module", None)
        assert not sharedmem.shared_memory_enabled()
        corpus = sharedmem.share_corpus(_make_csr())
        assert isinstance(corpus, sharedmem.InlineCorpus)

    def test_inline_rows_list_cached(self):
        corpus = sharedmem.InlineCorpus(_make_csr())
        assert all(a is b for a, b in zip(corpus.rows_list(), corpus.rows_list()))
        assert len(corpus) == 6


# ----------------------------------------------------------------------
# WorkerPool integration: adoption, unlink-on-shutdown, workers attach
# ----------------------------------------------------------------------


class _CorpusContext:
    """Minimal context exposing the pool's ``shared_corpora`` hook."""

    def __init__(self, corpus):
        self.corpus = corpus

    def shared_corpora(self):
        return [self.corpus]


def _read_row(context, i):
    row = context.corpus.as_csr().row(i)
    return (os.getpid(), row.tolist(), bool(row.flags.writeable))


class TestWorkerPoolTransport:
    def test_workers_attach_read_only_and_pool_unlinks_on_close(self):
        corpus = sharedmem.SharedCorpus.publish(_make_csr(8))
        context = _CorpusContext(corpus)
        with WorkerPool(2) as pool:
            results = pool.run(_read_row, context, list(range(8)))
            assert os.path.exists(os.path.join("/dev/shm", corpus.name))
        # Pool shutdown owns the segment's end of life.
        assert not os.path.exists(os.path.join("/dev/shm", corpus.name))
        parent = os.getpid()
        assert all(pid != parent for pid, _, _ in results)
        assert [row for _, row, _ in results] == [
            row.tolist() for row in _make_csr(8).rows()
        ]
        assert all(not writable for _, _, writable in results)

    def test_single_task_map_uses_direct_path_and_matches_inline(self, monkeypatch):
        from repro.engine import runner as engine_runner

        # Force the skip-pool heuristic to ship: this test is about
        # the direct transport path, not the heuristic's verdict on
        # this particular machine.
        monkeypatch.setattr(engine_runner, "_tiny_map_ships", lambda size: True)
        corpus = sharedmem.SharedCorpus.publish(_make_csr(4))
        context = _CorpusContext(corpus)
        inline = _read_row(context, 2)
        with WorkerPool(2) as pool:
            (pooled,) = pool.run(_read_row, context, [2])
        assert pooled[1] == inline[1]
        assert pooled[0] != os.getpid()


# ----------------------------------------------------------------------
# Tiny-map regression: pooled and sequential paths byte-identical
# ----------------------------------------------------------------------


def _echo_task(context, task):
    return {"task": task, "context": context}


class TestTinyMapRegression:
    @pytest.mark.parametrize("ships", [True, False], ids=["direct", "inline"])
    def test_single_task_skips_chunk_blob_protocol(self, ships, monkeypatch):
        # The direct path (and the inline path the heuristic falls back
        # to) must produce exactly what inline execution produces, for
        # any picklable payload.
        from repro.engine import runner as engine_runner

        monkeypatch.setattr(engine_runner, "_tiny_map_ships", lambda size: ships)
        context = {"weights": [0.25, 0.5], "name": "tiny"}
        inline = [_echo_task(context, 7)]
        with WorkerPool(2) as pool:
            assert pool.run(_echo_task, context, [7]) == inline

    def test_stream_records_byte_identical_sequential_vs_pooled(self, monkeypatch):
        # The BENCH_stream workload in miniature: a whole stream is a
        # single engine task, shipped here through the tiny-map path.
        from repro.engine import runner as engine_runner
        from repro.stream.runner import _run_stream_task, run_stream_experiment
        from repro.stream.spec import StreamSpec

        spec = StreamSpec(
            ticks=3,
            ham_per_tick=8,
            spam_per_tick=8,
            attack_variant="usenet",
            attack_start_tick=2,
            attack_per_tick=4,
            test_size=20,
            seed=97,
        )
        sequential = run_stream_experiment(spec).to_record().as_dict()
        monkeypatch.setattr(engine_runner, "_tiny_map_ships", lambda size: True)
        with WorkerPool(2) as pool:
            (result,) = pool.run(_run_stream_task, spec, [0])
        pooled = result.to_record().as_dict()
        assert (
            json.dumps(sequential, sort_keys=True).encode()
            == json.dumps(pooled, sort_keys=True).encode()
        )


# ----------------------------------------------------------------------
# Crash-safe lifecycle: name drops, orphan janitor, respawn survival
# ----------------------------------------------------------------------


class TestCrashSafeLifecycle:
    def test_owner_views_survive_name_drop(self):
        # The property the supervisor's degraded path relies on: after
        # the /dev/shm name is gone, the owner's existing mapping (and
        # its cached views) keep serving reads.
        csr = _make_csr()
        handle = sharedmem.SharedCorpus.publish(csr)
        try:
            before = [row.tolist() for row in handle.as_csr().rows()]
            assert sharedmem.drop_segment_name(handle.name)
            assert not os.path.exists(os.path.join("/dev/shm", handle.name))
            after = [row.tolist() for row in handle.as_csr().rows()]
            assert after == before
        finally:
            handle.unlink()

    def test_new_attach_after_drop_raises_segment_lost(self):
        from repro.errors import SegmentLostError

        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            blob = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
            assert sharedmem.drop_segment_name(handle.name)
            with pytest.raises(SegmentLostError):
                attached = pickle.loads(blob)
                attached.as_csr()
        finally:
            handle.unlink()

    def test_respawn_keeps_adopted_segments_for_new_workers(self):
        corpus = sharedmem.SharedCorpus.publish(_make_csr(8))
        context = _CorpusContext(corpus)
        with WorkerPool(2) as pool:
            first = pool.run(_read_row, context, list(range(8)))
            assert pool.respawn()
            # The fresh worker set attaches to the segments the old
            # one was using; results are unchanged.
            second = pool.run(_read_row, context, list(range(8)))
            assert [r[1] for r in second] == [r[1] for r in first]
            assert os.path.exists(os.path.join("/dev/shm", corpus.name))
        # ...and close() still owns the end of life.
        assert not os.path.exists(os.path.join("/dev/shm", corpus.name))

    def test_stale_respawn_is_a_noop(self):
        with WorkerPool(2) as pool:
            generation = pool.generation
            assert pool.respawn(generation)
            # A second caller holding the old generation lost the race.
            assert not pool.respawn(generation)
            assert pool.generation == generation + 1

    def test_orphan_janitor_ignores_live_publishers(self):
        handle = sharedmem.SharedCorpus.publish(_make_csr())
        try:
            # Our own (live) segment is never considered orphaned...
            assert handle.name not in sharedmem.orphaned_segments()
            # ...not even by the --all hammer, whose job is *other*
            # processes' wedged runs.
            assert handle.name not in sharedmem.orphaned_segments(include_live=True)
        finally:
            handle.unlink()


_PUBLISH_AND_DIE = """
import os, signal, sys
import numpy as np
from repro.engine import sharedmem
from repro.spambayes.ndkernel import CsrMatrix

handle = sharedmem.SharedCorpus.publish(
    CsrMatrix.from_rows([np.arange(6, dtype=np.int64)])
)
print(handle.name, flush=True)
# Die like a kill -9'd job or an OOM group kill: the whole process
# group goes — including Python's resource-tracker daemon, which would
# otherwise unlink the segment for us.  No atexit, no tracker, no
# unlink: an orphaned segment.
os.killpg(os.getpgrp(), signal.SIGKILL)
"""


@pytest.mark.slow
def test_gc_shm_reclaims_segments_of_sigkilled_publisher(tmp_path):
    """A publisher SIGKILL'd past its cleanup leaks a segment; the
    ``repro gc-shm`` janitor must find and reclaim it."""
    import subprocess
    import sys as _sys

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    victim = subprocess.run(
        [_sys.executable, "-c", _PUBLISH_AND_DIE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        start_new_session=True,  # its killpg must not reach this process
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    name = victim.stdout.strip()
    assert name.startswith(sharedmem.BASE_PREFIX)
    path = os.path.join("/dev/shm", name)
    try:
        assert os.path.exists(path), "SIGKILL'd publisher left no segment"
        assert name in sharedmem.orphaned_segments()
        janitor = subprocess.run(
            [_sys.executable, "-m", "repro", "gc-shm"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert janitor.returncode == 0, janitor.stderr
        assert name in janitor.stdout
        assert not os.path.exists(path)
    finally:
        if os.path.exists(path):  # pragma: no cover - janitor failed
            os.unlink(path)

