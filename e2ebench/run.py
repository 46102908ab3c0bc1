"""End-to-end and per-layer benchmark of the repro CLI and daemon.

Run from the repository root::

    python3 e2ebench/run.py --workload roni-stream --seed 3 --seconds 15 --trace 0

Workloads (see ``e2ebench/README.md`` for why each exists):

* ``replicate-sweep``: ``repro replicate figure1-dictionary --seeds 4 --workers 2``
* ``threshold-fit``: ``repro run-scenario figure5-threshold``
* ``roni-stream``: ``repro run-scenario stream-dictionary-vs-roni``
* ``serve-session``: a scripted ``repro serve`` session (``serve_session.py``)

All use small scale, the ``nd`` kernel and the memory store.  A run
repeats its workload until ``--seconds`` have passed (at least once)
and reports medians.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is the host key; results from different hosts are never
comparable.

Correctness: a batch repetition fails if the command exits non-zero or
its record's sha256 differs from the one committed in ``digests.json``
for that seed.  The benchmark seed selects the workload seed
``seed % DIGEST_SEEDS``; workload seed 11 is kept back for the last
check of a change.  ``--write-digests`` recomputes the table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from proctree import TreePeak
from speed import SPEED_EXPONENT, SpeedMonitor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "e2ebench"
DIGESTS = HERE / "digests.json"
DIGEST_SEEDS = 12
SETUP_PROBES = 5
COVERAGE_FLOOR = 0.9
GENERATOR_BUSY = 0.8
COMMAND_TIMEOUT_S = 120.0

BATCH = {
    "replicate-sweep": ["replicate", "figure1-dictionary", "--seeds", "4", "--workers", "2"],
    "threshold-fit": ["run-scenario", "figure5-threshold", "--workers", "1"],
    "roni-stream": ["run-scenario", "stream-dictionary-vs-roni", "--workers", "1"],
}
_SMALL_SWEEP = ["--set", "inbox_size=200", "--set", "corpus_ham=150", "--set", "corpus_spam=150",
                "--set", "folds=2", "--set", "attack_fractions=(0.0, 0.05)"]
TINY = {
    "replicate-sweep": ["--set", "variants=('usenet',)", *_SMALL_SWEEP],
    "threshold-fit": _SMALL_SWEEP,
    "roni-stream": ["--set", "ticks=3", "--set", "attack_start_tick=2",
                    "--set", "ham_per_tick=20", "--set", "spam_per_tick=20"],
}
WORKLOADS = (*BATCH, "serve-session")
SINGLE_PROCESS = ("threshold-fit", "roni-stream")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "import.cli_s": "s",
    "corpus.generate_s": "s", "corpus.generate_calls": "count",
    "tokenizer.tokenize_s": "s", "tokenizer.messages": "count",
    "scenarios.prepare_s": "s",
    "token_table.encode_s": "s", "token_table.encode_calls": "count",
    "token_table.vocab": "count", "token_table.ranks_s": "s",
    "token_table.rank_calls": "count", "token_table.rank_rebuilds": "count",
    "token_table.rank_reuse_ratio": "ratio",
    "classifier.score_str_s": "s", "classifier.score_str_calls": "count",
    "classifier.score_str_msgs": "count",
    "classifier.score_ids_s": "s", "classifier.score_ids_calls": "count",
    "classifier.score_ids_msgs": "count",
    "classifier.learn_s": "s", "classifier.learn_calls": "count",
    "classifier.create_calls": "count",
    "roni.measure_s": "s", "roni.candidates": "count", "roni.score_calls_per_candidate": "ratio",
    "threshold.fit_s": "s", "threshold.fits": "count",
    "stream.ticks": "count", "stream.tick_p50_s": "s", "stream.tick_max_s": "s",
    "stream.train_s": "s", "stream.defense_s": "s", "stream.eval_s": "s",
    "engine.pool_start_s": "s", "engine.map_calls": "count", "engine.tasks": "count",
    "engine.map_wait_s": "s", "engine.inline_maps": "count", "engine.retries": "count",
    "engine.respawns": "count", "engine.degrades": "count",
    "records.serialize_s": "s", "replicate.pool_s": "s",
    "serve.read_req_per_s": "1/s", "serve.read_p50_ms": "ms", "serve.read_p99_ms": "ms",
    "serve.read_samples": "count",
    "serve.mixed_req_per_s": "1/s",
    "serve.mixed_score_p50_ms": "ms", "serve.mixed_score_p99_ms": "ms",
    "serve.mixed_score_samples": "count",
    "serve.mixed_write_p50_ms": "ms", "serve.mixed_write_p99_ms": "ms",
    "serve.mixed_write_samples": "count",
    "serve.frame_encode_s": "s", "serve.frame_decode_s": "s",
    "serve.batches": "count", "serve.batch_mean": "count", "serve.batch_max": "count",
    "serve.errors": "count",
    "serve.score_batch_s": "s", "serve.learn_s": "s", "serve.batch_wait_ms": "ms",
    "serve.generator_cpu_frac": "ratio",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "host.cpu_speed": "ratio",
    "failed_frac": "ratio",
}

# Per-layer metric -> (span or counter in the trace report, kind).
_SPANS = {
    "corpus.generate": ("corpus.generate_s", "corpus.generate_calls"),
    "tokenizer.tokenize": ("tokenizer.tokenize_s", "tokenizer.messages"),
    "scenarios.prepare": ("scenarios.prepare_s", None),
    "token_table.encode": ("token_table.encode_s", "token_table.encode_calls"),
    "token_table.ranks": ("token_table.ranks_s", "token_table.rank_calls"),
    "classifier.score_str": ("classifier.score_str_s", "classifier.score_str_calls"),
    "classifier.score_ids": ("classifier.score_ids_s", "classifier.score_ids_calls"),
    "classifier.learn": ("classifier.learn_s", "classifier.learn_calls"),
    "roni.measure": ("roni.measure_s", None),
    "threshold.fit": ("threshold.fit_s", "threshold.fits"),
    "engine.pool_start": ("engine.pool_start_s", None),
    "engine.map": ("engine.map_wait_s", None),
    "records.serialize": ("records.serialize_s", None),
    "replicate.pool": ("replicate.pool_s", None),
    "serve.score_batch": ("serve.score_batch_s", None),
    "serve.learn": ("serve.learn_s", None),
}
_COUNTERS = {
    "token_table.vocab": "token_table.vocab",
    "token_table.rank_rebuilds": "token_table.rank_rebuilds",
    "classifier.score_str_msgs": "classifier.score_str_msgs",
    "classifier.score_ids_msgs": "classifier.score_ids_msgs",
    "classifier.create_calls": "classifier.create_calls",
    "roni.candidates": "roni.candidates",
    "engine.map_calls": "engine.map_calls",
    "engine.tasks": "engine.tasks",
    "engine.inline_maps": "engine.inline_maps",
    "engine.retries": "engine.bump.retried_chunks",
    "engine.respawns": "engine.bump.respawns",
    "engine.degrades": "engine.bump.degraded_chunks",
    "stream.train_s": "stream.train_s",
    "stream.defense_s": "stream.defense_s",
    "stream.eval_s": "stream.eval_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_KERNEL="nd",
        REPRO_STORE="memory",
        PYTHONHASHSEED="0",
        TMPDIR=str(WORK / "tmp"),
    )
    for name in ("REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_WORKERS"):
        env.pop(name, None)
    return env


def host_key() -> dict:
    """What makes two results comparable: same host, same code."""
    import numpy

    from repro.spambayes import ndkernel
    from repro.storage import store_name

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or None
    except OSError:
        rev = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "os_kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_kernel": ndkernel.kernel_name(),
        "repro_store": store_name(),
        "git_rev": rev,
        "src_sha256": source.hexdigest(),
    }


def _launcher(report: Path, trace: bool) -> list[str]:
    return [sys.executable, str(HERE / "launch.py"), str(report), "1" if trace else "0"]


def _run_child(argv: list[str], log) -> tuple[int, float, float]:
    """Run ``argv``; return (status, spawn time, peak tree RSS in MiB)."""
    spawned = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                             stdout=subprocess.DEVNULL, stderr=log)
    peak = TreePeak(child.pid)
    try:
        status = child.wait(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        status = child.wait()
    return status, spawned, peak.stop()


def setup_probe(log) -> tuple[float, float]:
    """Spawn until a fresh interpreter has imported repro.cli, as a window."""
    report = WORK / "probe.json"
    status, spawned, _ = _run_child([*_launcher(report, False), "--"], log)
    if status != 0:
        raise RuntimeError("set-up probe failed")
    return spawned, json.loads(report.read_text(encoding="utf-8"))["ready_at"]


def seconds_at_reference(monitor, window: tuple[float, float]) -> float:
    """A window's length in seconds at the monitor's reference CPU speed."""
    start, end = window
    return (end - start) * monitor.speed(start, end) ** SPEED_EXPONENT


def record_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def batch_command(workload: str, seed: int, tiny: bool, trace: bool,
                  out: Path) -> tuple[list[str], Path]:
    """CLI arguments of a batch workload writing under ``out``, and the
    path of the record it writes."""
    args = [*BATCH[workload], "--seed", str(seed), *(TINY[workload] if tiny else [])]
    if workload == "replicate-sweep":
        record = out / "record.json"
        args += ["--out", str(record)]
    else:
        record = out / f"{args[1]}.json"
        args += ["--out", str(out)]
    if trace and workload == "roni-stream":
        args.append("--profile")  # stream phase timings; record unchanged
    return args, record


def batch_rep(workload: str, seed: int, tiny: bool, trace: bool, log) -> dict:
    """One run of a batch command; its timings, digest and trace."""
    tag = "traced" if trace else "plain"
    out = WORK / "out" / tag
    shutil.rmtree(out, ignore_errors=True)
    args, record = batch_command(workload, seed, tiny, trace, out)
    report = WORK / f"{tag}.json"
    report.unlink(missing_ok=True)
    status, spawned, rss = _run_child([*_launcher(report, trace), "--", *args], log)
    rep = {"status": status, "digest": record_digest(record), "peak_rss_mb": rss}
    if report.is_file():
        launched = json.loads(report.read_text(encoding="utf-8"))
        ready = launched["ready_at"]
        rep.update(setup=(spawned, ready), wall=(ready, ready + launched["wall_s"]),
                   import_s=launched["import_s"], trace=launched.get("trace"))
    return rep


def load_digests(tiny: bool) -> dict:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table["tiny" if tiny else "full"]


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _quantile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


def layer_metrics(traces: list[dict], imports: list[float]) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for trace in traces:
        busy, calls, counts = trace["busy"], trace["calls"], trace["counts"]
        for span, (seconds, count) in _SPANS.items():
            values[seconds].append(busy.get(span, 0.0))
            if count:
                values[count].append(calls.get(span, 0))
        for metric, key in _COUNTERS.items():
            values[metric].append(counts.get(key, 0))
        rank_calls = calls.get("token_table.ranks", 0)
        rebuilds = counts.get("token_table.rank_rebuilds", 0)
        values["token_table.rank_reuse_ratio"].append(
            (rank_calls - rebuilds) / rank_calls if rank_calls else 0.0)
        candidates = counts.get("roni.candidates", 0)
        values["roni.score_calls_per_candidate"].append(
            counts.get("roni.score_calls", 0) / candidates if candidates else 0.0)
        ticks = trace["samples"].get("stream.tick_s", [])
        values["stream.ticks"].append(len(ticks))
        values["stream.tick_p50_s"].append(_median(ticks))
        values["stream.tick_max_s"].append(max(ticks, default=0.0))
        waits = trace["samples"].get("serve.batch_wait_s", [])
        values["serve.batch_wait_ms"].append(_median(waits) * 1e3)
    values["import.cli_s"] = imports
    return {name: _median(series) for name, series in values.items()}


def coverage_flag(workload: str, traces: list[dict], walls: list[float]) -> float:
    coverage = _median([t["covered_s"] / w for t, w in zip(traces, walls) if w])
    if coverage < COVERAGE_FLOOR:
        uncovered = _median([w - t["covered_s"] for t, w in zip(traces, walls)])
        print(f"flag: {workload} trace.coverage {coverage:.3f} is below {COVERAGE_FLOOR}; "
              f"{uncovered:.3f} s of wall time is outside every layer span",
              file=sys.stderr)
    return coverage


def _repeat(seconds: float, trace: bool, run_one) -> tuple[list, list]:
    """Repeat ``run_one(traced)`` for ``seconds`` (once at least, and once
    traced when ``trace``), alternating untraced and traced runs."""
    plain: list = []
    traced: list = []
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        as_traced = trace and len(traced) < len(plain)
        (traced if as_traced else plain).append(run_one(as_traced))
    return plain, traced


def _trace_checks(workload: str, untraced: list[float], traced: list[float],
                  traces: list[dict], traced_walls: list[float], speeds: list[float]) -> dict:
    """Tracing overhead (both sides at reference speed) and coverage."""
    return {
        "trace.untraced_wall_s": _median(untraced),
        "trace.traced_wall_s": _median(traced),
        "trace.overhead_s": _median(traced) - _median(untraced),
        "trace.coverage": coverage_flag(workload, traces, traced_walls),
        "host.cpu_speed": _median(speeds),
    }


def run_batch(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
              monitor, log) -> dict:
    expected = load_digests(tiny)[workload].get(str(seed))
    setups = [setup_probe(log) for _ in range(SETUP_PROBES + 1)][1:]  # first warms caches
    plain, traced = _repeat(seconds, trace, lambda as_traced: batch_rep(
        workload, seed, tiny, as_traced, log))
    monitor.stop()
    reps = plain + traced
    failed = sum(1 for r in reps if r["status"] != 0 or r["digest"] != expected
                 or expected is None)
    result = {"attempted": len(reps), "failed": failed}
    ok = [r for r in plain if "wall" in r]
    traced_ok = [r for r in traced if r.get("trace")]
    result["reps"] = [
        {"traced": as_traced, "raw_wall_s": r["wall"][1] - r["wall"][0],
         "cpu_speed": monitor.speed(*r["wall"])}
        for as_traced, group in ((False, ok), (True, traced_ok)) for r in group
    ]
    if not trace:
        result["metrics"] = {
            "setup_s": _median([seconds_at_reference(monitor, w)
                                for w in setups + [r["setup"] for r in ok]]),
            "wall_s": _median([seconds_at_reference(monitor, r["wall"]) for r in ok]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        }
        return result
    traces = [r["trace"] for r in traced_ok]
    metrics = layer_metrics(traces, [r["import_s"] for r in traced_ok])
    metrics.update(_trace_checks(
        workload,
        [seconds_at_reference(monitor, r["wall"]) for r in ok],
        [seconds_at_reference(monitor, r["wall"]) for r in traced_ok],
        traces,
        [end - start for start, end in (r["wall"] for r in traced_ok)],
        [monitor.speed(*r["wall"]) for r in ok],
    ))
    result["metrics"] = metrics
    return result


def run_serve(seed: int, seconds: float, trace: bool, tiny: bool, monitor, log) -> dict:
    import serve_session

    size = serve_session.TINY if tiny else serve_session.FULL
    inputs = serve_session.build_inputs(seed, size)
    env = child_env()
    setups = []
    for _ in range(SETUP_PROBES + 1):
        daemon, address, window = serve_session.spawn_daemon(ROOT, env, None, log)
        serve_session.stop_daemon(daemon, address)
        daemon.stdout.close()
        setups.append(window)
    setups = setups[1:]  # the first warms caches
    counts = {"attempted": 0, "failed": 0}

    def session(as_traced: bool):
        report = WORK / "serve-trace.json" if as_traced else None
        try:
            done = serve_session.run_session(ROOT, env, inputs, size, report, log)
        except (OSError, RuntimeError, KeyError) as exc:
            print(f"serve session failed: {exc}", file=sys.stderr)
            counts["attempted"] += 1
            counts["failed"] += 1
            return None
        attempted, failed = serve_session.count_failures(done)
        counts["attempted"] += attempted
        counts["failed"] += failed
        return done

    plain, traced = _repeat(seconds, trace, session)
    monitor.stop()
    plain = [s for s in plain if s is not None]
    traced = [s for s in traced if s is not None and s.trace]
    result = {**counts, "metrics": {}}
    if not plain:
        return result

    def phase_seconds(s) -> float:
        return sum(seconds_at_reference(monitor, s.phases[name].window)
                   for name in ("read", "mixed"))

    result["reps"] = [
        {"traced": as_traced, "phase": name, "raw_wall_s": s.phases[name].wall_s,
         "cpu_speed": monitor.speed(*s.phases[name].window)}
        for as_traced, group in ((False, plain), (True, traced)) for s in group
        for name in ("read", "mixed")
    ]
    if not trace:
        result["metrics"] = {
            "setup_s": _median([seconds_at_reference(monitor, w)
                                for w in setups + [s.setup for s in plain]]),
            "wall_s": _median([phase_seconds(s) for s in plain]),
            "peak_rss_mb": _median([s.peak_rss_mb for s in plain]),
        }
        return result
    traces = [s.trace["trace"] for s in traced]
    metrics = layer_metrics(traces, [s.trace["import_s"] for s in traced])
    metrics.update(serve_metrics(plain))
    metrics.update({
        "serve.frame_encode_s": _median([s.encode_s for s in traced]),
        "serve.frame_decode_s": _median([s.decode_s for s in traced]),
    })
    # Overhead compares the timed phases; coverage is over the daemon's life.
    metrics.update(_trace_checks(
        "serve-session",
        [phase_seconds(s) for s in plain],
        [phase_seconds(s) for s in traced],
        traces,
        [s.trace["wall_s"] for s in traced],
        [monitor.speed(*s.phases[name].window) for s in plain for name in ("read", "mixed")],
    ))
    result["metrics"] = metrics
    return result


def serve_metrics(sessions: list) -> dict:
    """Phase throughput and latency over untraced sessions, pooled."""
    reads, scores, writes = [], [], []
    read_rate, mixed_rate, cpu_frac = [], [], []
    for session in sessions:
        read, mixed = session.phases["read"], session.phases["mixed"]
        reads += read.latencies
        for request, latency in zip(mixed.requests, mixed.latencies):
            (scores if request["verb"] == "score" else writes).append(latency)
        read_rate.append(len(read.requests) / read.wall_s)
        mixed_rate.append(len(mixed.requests) / mixed.wall_s)
        cpu_frac.append(max(read.cpu_s / read.wall_s, mixed.cpu_s / mixed.wall_s))
    generator_cpu = _median(cpu_frac)
    if generator_cpu > GENERATOR_BUSY:
        print(f"flag: the load generator was {generator_cpu:.0%} busy; it, not the daemon, "
              "may bound serve-session throughput", file=sys.stderr)
    batching = [s.stats.get("batching", {}) for s in sessions]
    return {
        "serve.read_req_per_s": _median(read_rate),
        "serve.read_p50_ms": _quantile_ms(reads, 0.5),
        "serve.read_p99_ms": _quantile_ms(reads, 0.99),
        "serve.read_samples": len(reads),
        "serve.mixed_req_per_s": _median(mixed_rate),
        "serve.mixed_score_p50_ms": _quantile_ms(scores, 0.5),
        "serve.mixed_score_p99_ms": _quantile_ms(scores, 0.99),
        "serve.mixed_score_samples": len(scores),
        "serve.mixed_write_p50_ms": _quantile_ms(writes, 0.5),
        "serve.mixed_write_p99_ms": _quantile_ms(writes, 0.99),
        "serve.mixed_write_samples": len(writes),
        "serve.batches": _median([b.get("batches", 0) for b in batching]),
        "serve.batch_mean": _median([b.get("mean_batch", 0.0) for b in batching]),
        "serve.batch_max": _median([b.get("max_batch", 0) for b in batching]),
        "serve.errors": _median([s.stats.get("errors", 0) for s in sessions]),
        "serve.generator_cpu_frac": generator_cpu,
    }


def write_digests() -> None:
    """Recompute digests.json: every seed at full size, seed 0 tiny."""
    table: dict = {"full": {}, "tiny": {}}
    with open(WORK / "digests.log", "w", encoding="utf-8") as log:
        for workload in BATCH:
            table["full"][workload] = {
                str(seed): batch_rep(workload, seed, False, False, log)["digest"]
                for seed in range(DIGEST_SEEDS)
            }
            table["tiny"][workload] = {"0": batch_rep(workload, 0, True, False, log)["digest"]}
            print(workload, table["full"][workload], file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute digests.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update({k: v for k, v in child_env().items() if k.startswith("REPRO_")})
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seed = args.seed % DIGEST_SEEDS
    trace = bool(args.trace)
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload in SINGLE_PROCESS:
        # One CPU for the command (children inherit the affinity) and
        # its speed monitor, so the monitor reads the core that works.
        cpus = cpus[-1:]
        os.sched_setaffinity(0, cpus)
    monitor = SpeedMonitor(cpus, WORK)
    try:
        with open(WORK / f"{args.workload}.log", "w", encoding="utf-8") as log:
            if args.workload == "serve-session":
                result = run_serve(seed, args.seconds, trace, args.tiny, monitor, log)
            else:
                result = run_batch(args.workload, seed, args.seconds, trace, args.tiny,
                                   monitor, log)
    finally:
        monitor.stop()
    names = PER_LAYER if trace else END_TO_END
    if trace:
        result["metrics"]["failed_frac"] = result["failed"] / max(1, result["attempted"])
    metrics = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in names.items()}
    host = host_key()
    full = {"workload": args.workload, "seed": args.seed, "workload_seed": seed,
            "trace": args.trace, "host": host, **result}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
