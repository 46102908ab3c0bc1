#!/usr/bin/env python3
"""Stream-engine throughput: messages/sec, sequential vs pooled.

A stream is inherently sequential — tick ``t+1`` trains on the state
tick ``t`` left behind — so the streaming engine's parallelism lever
is *across* streams: under ``replicate_scenario`` each replica —
its whole stream — runs in its own worker process, so N seeds play N
streams concurrently instead of one after another.

This benchmark replays the same multi-seed stream replication two
ways — ``workers=1`` (strictly sequential) and ``workers>=2`` (one
replica per worker) — asserts the pooled records **identical**, and reports
throughput as messages/sec, where the message count is everything the
engine ingests or scores: every arrival the per-tick gate saw (ham,
spam and attack mail, trained or rejected) plus every held-out
evaluation (clean-counterfactual re-evaluations included).

A second, ``--ticks``-scaled **long-horizon mode** measures the clean
counterfactual itself: one stream with a clean twin, played with
per-tick phase profiling on.  It asserts that the profiled phases sum
to within tolerance of the wall time, and reports the per-tick
counterfactual cost series and its flatness ratio (last-quarter over
first-quarter mean; ~1 when the cost does not grow with the attack
history).  That the twin's record equals the unlearn-all excursion it
replaces is checked by ``tests/test_stream_clean_twin.py`` on this
mode's smoke spec.  Phase timings land in
``benchmarks/results/BENCH_stream_phases[.<scale>].json``.

Run directly (it is a script, not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/bench_stream_throughput.py --workers 4
    PYTHONPATH=src python benchmarks/bench_stream_throughput.py --scale smoke
    PYTHONPATH=src python benchmarks/bench_stream_throughput.py --scale large --ticks 40

Records **append** to ``benchmarks/results/BENCH_stream.json``
(``BENCH_stream.smoke.json`` for the smoke scale): each run adds one
entry, so the file accumulates the stream engine's throughput
trajectory across revisions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.replicate import replicate_scenario
from repro.scenarios import get_scenario
from repro.stream.runner import StreamRunner
from repro.stream.spec import StreamSpec

_RESULTS_DIR = Path(__file__).resolve().parent / "results"

_SCALES = {
    # (seeds, scenario overrides).  The ramp scenario keeps the
    # per-tick defense trivial, so the measured work is the engine
    # itself: arrival generation, incremental training and the bulk
    # scoring kernel.
    "smoke": (
        4,
        dict(ticks=4, ham_per_tick=30, spam_per_tick=30, test_size=80),
    ),
    "small": (
        8,
        dict(ticks=6, ham_per_tick=40, spam_per_tick=40, test_size=120),
    ),
    # Long streams with big per-tick evaluations: the bulk scoring
    # kernel does most of the work, and each whole-stream replica is a
    # single engine task riding the tiny-map direct path.
    "large": (
        12,
        dict(ticks=10, ham_per_tick=60, spam_per_tick=60, test_size=200),
    ),
}


_CF_SCALES = {
    # Long-horizon counterfactual runs: per-tick sizes and the default
    # tick count when --ticks is given without a value.  The focused
    # variant draws a distinct token set per attack message, so an
    # unlearn excursion's per-tick cost would grow with the trained
    # attack history — the shape the twin is flat against.
    "smoke": dict(ticks=8, ham_per_tick=10, spam_per_tick=10,
                  attack_per_tick=24, test_size=60),
    "small": dict(ticks=20, ham_per_tick=12, spam_per_tick=12,
                  attack_per_tick=40, test_size=100),
    "large": dict(ticks=100, ham_per_tick=10, spam_per_tick=10,
                  attack_per_tick=80, test_size=120),
}

# Profiled phases must explain at least this share of the wall time,
# or the phase accounting is lying and the run fails.
_ACCOUNTED_FLOOR = 0.7


def _default_json(scale_name: str) -> Path:
    if scale_name == "small":
        return _RESULTS_DIR / "BENCH_stream.json"
    return _RESULTS_DIR / f"BENCH_stream.{scale_name}.json"


def _phases_json(scale_name: str) -> Path:
    if scale_name == "small":
        return _RESULTS_DIR / "BENCH_stream_phases.json"
    return _RESULTS_DIR / f"BENCH_stream_phases.{scale_name}.json"


def _append_record(json_out: Path, record: dict) -> int:
    json_out.parent.mkdir(parents=True, exist_ok=True)
    history: list = []
    if json_out.exists():
        try:
            existing = json.loads(json_out.read_text(encoding="utf-8"))
            history = existing if isinstance(existing, list) else [existing]
        except json.JSONDecodeError:
            history = []
    history.append(record)
    json_out.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return len(history)


def _stream_messages(scenario: str, overrides: dict) -> int:
    """Messages one replica ingests + scores, from the spec alone.

    Mirrors :meth:`StreamResult.messages_processed` for undefended
    streams (the benchmark's scenarios): the clean-counterfactual
    re-score only happens from the first tick with attack mail
    trained — earlier ticks copy the actual confusion.
    """
    spec = get_scenario(scenario).build_config(**overrides)
    test_messages = 2 * (spec.test_size // 2)
    evaluations = 0
    attack_so_far = 0
    for count in spec.tick_attack_counts():
        evaluations += 1
        attack_so_far += count
        if spec.measure_clean and attack_so_far > 0:
            evaluations += 1
    return spec.total_arrivals() + evaluations * test_messages


def run(
    scale_name: str,
    base_seed: int,
    workers: int,
    scenario: str,
    rounds: int,
    json_out: Path,
) -> int:
    n_seeds, overrides = _SCALES[scale_name]
    messages = _stream_messages(scenario, overrides) * n_seeds
    print(
        f"# stream throughput benchmark — scale={scale_name}, "
        f"scenario={scenario}, seeds={n_seeds}, workers={workers}, "
        f"messages={messages}, best-of-{rounds}"
    )

    def _best_of(fn):
        best = None
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, result

    def _replicate(replicate_workers: int):
        return replicate_scenario(
            scenario,
            seeds=n_seeds,
            base_seed=base_seed,
            overrides=overrides,
            workers=replicate_workers,
        )

    sequential_seconds, sequential = _best_of(lambda: _replicate(1))
    pooled_seconds, pooled = _best_of(lambda: _replicate(workers))

    identical = json.dumps(sequential.as_dict()) == json.dumps(pooled.as_dict())
    sequential_rate = messages / sequential_seconds if sequential_seconds else 0.0
    pooled_rate = messages / pooled_seconds if pooled_seconds else 0.0
    speedup = sequential_seconds / pooled_seconds if pooled_seconds else 0.0
    print(
        f"sequential   {sequential_seconds:7.2f}s  {sequential_rate:10.0f} msgs/s\n"
        f"pooled       {pooled_seconds:7.2f}s  {pooled_rate:10.0f} msgs/s\n"
        f"speedup      {speedup:7.2f}x   identical: {'yes' if identical else 'NO'}"
    )
    if workers >= 2 and speedup <= 1.0:
        print("NOTE: pooled streams did not win at this scale/machine")

    record = {
        "benchmark": "stream-throughput",
        "scale": scale_name,
        "scenario": scenario,
        "n_seeds": n_seeds,
        "workers": workers,
        "base_seed": base_seed,
        "messages": messages,
        "sequential_seconds": sequential_seconds,
        "pooled_seconds": pooled_seconds,
        "sequential_msgs_per_sec": sequential_rate,
        "pooled_msgs_per_sec": pooled_rate,
        "speedup": speedup,
        "identical": identical,
    }
    count = _append_record(json_out, record)
    print(f"appended to {json_out} ({count} record(s))")
    return 0 if identical else 1


def run_counterfactual(
    scale_name: str,
    ticks: int,
    base_seed: int,
    json_out: Path,
    phases_out: Path,
) -> int:
    """The long-horizon run: per-tick clean-twin counterfactual cost."""
    params = dict(_CF_SCALES[scale_name])
    params["ticks"] = ticks or params["ticks"]
    spec = StreamSpec(
        ticks=params["ticks"],
        ham_per_tick=params["ham_per_tick"],
        spam_per_tick=params["spam_per_tick"],
        attack_start_tick=2,
        attack_per_tick=params["attack_per_tick"],
        attack_variant="focused",
        test_size=params["test_size"],
        measure_clean=True,
        profile_phases=True,
        seed=base_seed,
    )
    print(
        f"# stream counterfactual benchmark — scale={scale_name}, "
        f"ticks={spec.ticks}, attack/tick={spec.attack_per_tick} "
        f"({spec.attack_variant}), test={spec.test_size}"
    )

    start = time.perf_counter()
    result = StreamRunner(spec).run()
    wall = time.perf_counter() - start
    profile = result.phase_profile
    accounted = profile.accounted_fraction()
    accounted_ok = accounted >= _ACCOUNTED_FLOOR

    # Per-tick counterfactual cost, measured only where a real
    # counterfactual evaluation happens (from the attack's first tick;
    # earlier ticks copy the actual confusion for free).
    series = profile.phase_series("counterfactual")[spec.attack_start_tick - 1 :]
    quarter = max(1, len(series) // 4)

    def _mean(values):
        return sum(values) / len(values) if values else 0.0

    # Flatness: last-quarter mean over first-quarter mean, ~1.0 when
    # the per-tick cost is independent of the attack history.
    first = _mean(series[:quarter])
    flatness = _mean(series[-quarter:]) / first if first > 0.0 else 0.0

    print(
        f"twin         {wall:7.2f}s  "
        f"counterfactual {sum(series):6.2f}s  "
        f"flatness {flatness:5.2f}  "
        f"accounted {accounted * 100:5.1f}%"
    )
    if not accounted_ok:
        print(
            f"ERROR: profiled phases explain < {_ACCOUNTED_FLOOR:.0%} of wall time"
        )

    record = {
        "benchmark": "stream-counterfactual",
        "scale": scale_name,
        "ticks": spec.ticks,
        "attack_variant": spec.attack_variant,
        "attack_per_tick": spec.attack_per_tick,
        "test_size": spec.test_size,
        "base_seed": base_seed,
        "twin_seconds": wall,
        "twin_counterfactual_per_tick": series,
        "twin_flatness": flatness,
        "accounted_ok": accounted_ok,
    }
    count = _append_record(json_out, record)
    print(f"appended to {json_out} ({count} record(s))")
    phases_record = {
        "benchmark": "stream-phases",
        "scale": scale_name,
        "ticks": spec.ticks,
        "base_seed": base_seed,
        "accounted_floor": _ACCOUNTED_FLOOR,
        "twin": profile.as_dict(),
    }
    count = _append_record(phases_out, phases_record)
    print(f"appended to {phases_out} ({count} record(s))")
    return 0 if accounted_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=tuple(_SCALES), default="small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scenario", default="stream-dictionary-ramp")
    parser.add_argument("--rounds", type=int, default=2,
                        help="best-of-N rounds per arm (default 2)")
    parser.add_argument("--json", type=Path, default=None,
                        help="record path (default: benchmarks/results/"
                             "BENCH_stream[.<scale>].json, appended)")
    parser.add_argument("--ticks", type=int, nargs="?", const=0, default=None,
                        metavar="N",
                        help="long-horizon counterfactual mode: play one "
                             "N-tick stream with a clean twin and record "
                             "per-tick counterfactual cost (bare --ticks "
                             "uses the scale's default horizon)")
    parser.add_argument("--phases-json", type=Path, default=None,
                        help="phase-timing record path for --ticks mode "
                             "(default: benchmarks/results/"
                             "BENCH_stream_phases[.<scale>].json, appended)")
    args = parser.parse_args(argv)
    if args.ticks is not None:
        return run_counterfactual(
            args.scale, args.ticks, args.seed,
            args.json or _default_json(args.scale),
            args.phases_json or _phases_json(args.scale),
        )
    return run(
        args.scale, args.seed, args.workers, args.scenario, args.rounds,
        args.json or _default_json(args.scale),
    )


if __name__ == "__main__":
    sys.exit(main())
