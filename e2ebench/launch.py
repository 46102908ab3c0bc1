"""Run one ``repro`` CLI command in this process, optionally traced.

Usage::

    python3 e2ebench/launch.py REPORT.json TRACE -- <repro CLI arguments>

``TRACE`` is ``0`` or ``1``.  The launcher imports ``repro.cli``, notes
when the import finished (``ready_at``, a ``time.perf_counter`` reading;
on Linux that clock is system-wide, so the parent can subtract its own
spawn time), runs ``repro.cli.main`` and writes a JSON report:

* ``ready_at``, ``import_s``, ``wall_s`` (``main`` only) and ``status``;
* with ``TRACE=1``, a ``trace`` object: busy seconds, call counts and
  extra counters per layer span, the union of time any span was open
  (``covered_s``), and raw samples for the few layers reported as
  percentiles.

Tracing wraps the public entry points of each layer from here, in the
process that does the work.  Nothing in ``src/`` changes, and a wrapper
only times and counts: it passes arguments and results through, so the
command's records are byte-identical with tracing on or off.  Work done
inside forked pool workers is not traced (the wrappers check the pid);
the parent reports it as ``engine.map_wait_s``.

An empty command (``--`` alone) stops after the import: that is the
set-up probe.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Per-layer spans and counters, kept in memory until exit.

    A span is named after its layer (``classifier.score_str``).  Nested
    spans of the same name count once (``learn_many`` calls ``learn``).
    ``covered_s`` is the union over all threads of the time at least
    one span was open: the share of wall time the layer spans explain.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._open = 0
        self._opened_at = 0.0
        self.covered_s = 0.0
        self._local = threading.local()

    def stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> None:
        with self._lock:
            if self._open == 0:
                self._opened_at = time.perf_counter()
            self._open += 1

    def _leave(self) -> None:
        with self._lock:
            self._open -= 1
            if self._open == 0:
                self.covered_s += time.perf_counter() - self._opened_at

    def traced(self, name, fn, *, skip_inside=(), before=None, after=None):
        """``fn`` wrapped in span ``name``.

        ``before(args)`` and ``after(args, result)`` record counters
        around the call.  Calls made inside a
        span named in ``skip_inside`` pass straight through.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer.stack()
            if name in stack or any(outer in stack for outer in skip_inside):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tracer._enter()
            stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.busy[name] += time.perf_counter() - start
                tracer.calls[name] += 1
                stack.pop()
                tracer._leave()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, after):
        """Wrap ``fn`` to run ``after(args, result)`` without opening a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() == tracer.pid:
                after(args, result)
            return result

        return wrapper

    def traced_async(self, name, fn):
        """:meth:`traced` for a coroutine function on the event loop."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            tracer._enter()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.busy[name] += time.perf_counter() - start
                tracer.calls[name] += 1
                tracer._leave()

        return wrapper

    def report(self) -> dict:
        return {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "covered_s": self.covered_s,
        }


def _patch(cls, attr: str, wrap) -> None:
    """Replace ``cls.attr`` (plain, class- or static method) in place."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def _patch_function(module, attr: str, wrap) -> None:
    """Replace a module function everywhere ``from ... import`` bound it."""
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, loaded in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.corpus import trec
    from repro.defenses.roni import RoniDefense
    from repro.defenses.threshold import DynamicThresholdDefense
    from repro.engine import runner, supervise
    from repro.experiments import results
    from repro.scenarios import protocols
    from repro.serve.batcher import MicroBatcher
    from repro.serve.service import FilterService
    from repro.spambayes.classifier import Classifier
    from repro.spambayes.ndkernel import NDClassifier
    from repro.spambayes.token_table import TokenTable
    from repro.spambayes.tokenizer import Tokenizer
    from repro.stream.profile import PhaseTimer

    # Imported for their side effect: modules that bind the functions
    # patched below by name must be loaded before the patch runs.
    import repro.engine.checkpoint  # noqa: F401
    import repro.engine.replicate  # noqa: F401

    counts = tracer.counts
    span = tracer.traced

    # Ingest: corpus generation, tokenizing, the shared preparation stage.
    _patch(trec.TrecStyleCorpus, "generate", lambda fn: span("corpus.generate", fn))
    _patch(Tokenizer, "tokenize", lambda fn: span("tokenizer.tokenize", fn))
    _patch_function(protocols, "prepare_inbox", lambda fn: span("scenarios.prepare", fn))

    # Token table: interning and the text-order rank cache.
    def note_vocab(args, result):
        counts["token_table.vocab"] = max(counts["token_table.vocab"], len(args[0]))

    def note_rank(args):
        table = args[0]
        cached = getattr(table, "_rank_cache", None)
        if cached is None or len(cached) != len(table):
            counts["token_table.rank_rebuilds"] += 1

    _patch(TokenTable, "encode_unique",
           lambda fn: span("token_table.encode", fn, after=note_vocab))
    _patch(TokenTable, "text_order_ranks",
           lambda fn: span("token_table.ranks", fn, before=note_rank))

    # Classifier: creation, training, string and ID scoring.
    def count_msgs(key):
        def after(args, result):
            counts[key] += len(result)
        return after

    def note_roni_score(args):
        if "roni.measure" in tracer.stack():
            counts["roni.score_calls"] += 1

    def note_create(args, result):
        counts["classifier.create_calls"] += 1

    _patch(Classifier, "__init__", lambda fn: tracer.counted(fn, note_create))
    for attr in ("learn", "learn_ids", "learn_many", "learn_repeated", "learn_ids_repeated"):
        _patch(Classifier, attr, lambda fn: span("classifier.learn", fn))
    for cls in (Classifier, NDClassifier):
        for attr in ("score_many_ids", "score_workspace", "score_csr"):
            if attr in cls.__dict__:
                _patch(cls, attr, lambda fn: span(
                    "classifier.score_ids", fn, skip_inside=("classifier.score_str",),
                    before=note_roni_score, after=count_msgs("classifier.score_ids_msgs")))

    # Defenses: the RONI gate and the dynamic threshold.
    def note_candidates(args, result):
        counts["roni.candidates"] += len(result) if isinstance(result, list) else 1

    for attr in ("measure_tokens", "measure_ids", "measure_batch", "measure", "measure_many"):
        _patch(RoniDefense, attr, lambda fn: span("roni.measure", fn, after=note_candidates))
    for attr in ("fit", "fit_from_scores"):
        _patch(DynamicThresholdDefense, attr, lambda fn: span("threshold.fit", fn))

    # Engine: pool start, map dispatch, supervision ledger.
    def note_map(args, result):
        counts["engine.map_calls"] += 1
        counts["engine.tasks"] += len(result)

    def note_inline_map(args, result):
        note_map(args, result)
        counts["engine.inline_maps"] += 1

    def trace_map(fn):
        # Only maps that may dispatch to a pool open a span; a
        # sequential map's work is covered by the layer spans inside it.
        pooled = span("engine.map", fn, after=note_map)
        inline = tracer.counted(fn, note_inline_map)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            return (inline if self.workers <= 1 else pooled)(self, *args, **kwargs)

        return wrapper

    def note_tiny(args, result):
        if not result:
            counts["engine.inline_maps"] += 1

    def note_bump(args, result):
        name = args[1]
        amount = args[2] if len(args) > 2 else 1
        counts[f"engine.bump.{name}"] += amount

    _patch(runner.WorkerPool, "__init__", lambda fn: span("engine.pool_start", fn))
    _patch(runner.ParallelRunner, "map", trace_map)
    runner._tiny_map_ships = tracer.counted(runner._tiny_map_ships, note_tiny)
    _patch(supervise.SuperviseStats, "bump", lambda fn: tracer.counted(fn, note_bump))

    # Records: serialization and replica pooling.
    _patch_function(results, "save_record", lambda fn: span("records.serialize", fn))
    _patch(results.ReplicatedRecord, "pool", lambda fn: span("replicate.pool", fn))

    # Stream runner: keep the per-tick phase profile (--profile only).
    def keep_profile(args, result):
        if result is not None:
            for tick in result.per_tick:
                tracer.samples["stream.tick_s"].append(sum(tick.values()))
                for phase, seconds in tick.items():
                    counts[f"stream.{phase}_s"] += seconds

    _patch(PhaseTimer, "finish", lambda fn: tracer.counted(fn, keep_profile))

    # Serve: batch wait (submit -> bulk scoring starts), batch scoring
    # and the single writer's learn.
    submitted: dict[int, float] = {}

    def note_submit(args, result):
        submitted[id(args[1])] = time.perf_counter()

    def batch_wait(args):
        if submitted and isinstance(args[1], list):
            now = time.perf_counter()
            for tokens in args[1]:
                sent = submitted.pop(id(tokens), None)
                if sent is not None:
                    tracer.samples["serve.batch_wait_s"].append(now - sent)

    _patch(MicroBatcher, "submit", lambda fn: tracer.counted(fn, note_submit))
    _patch(FilterService, "_score_batch", lambda fn: tracer.traced_async("serve.score_batch", fn))
    _patch(FilterService, "_apply_learn", lambda fn: span("serve.learn", fn))
    _patch(Classifier, "score_many",
           lambda fn: span("classifier.score_str", fn,
                           before=batch_wait,
                           after=count_msgs("classifier.score_str_msgs")))


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    report_path, trace, separator, *cli_args = argv
    if separator != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: launch.py REPORT.json 0|1 -- <repro arguments>")
    import repro.cli

    ready_at = time.perf_counter()
    report: dict = {"ready_at": ready_at, "import_s": ready_at - started}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        install(tracer)
    status = 0
    if cli_args:
        status = repro.cli.main(cli_args)
        sys.stdout.flush()
    report["wall_s"] = time.perf_counter() - ready_at
    report["status"] = status
    if tracer is not None:
        report["trace"] = tracer.report()
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
