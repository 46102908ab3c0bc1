#!/usr/bin/env python3
"""Replication-engine benchmark: replica per worker vs naive seed loop.

A multi-seed replication can be scheduled two ways:

* **naive sequential seed loop** — run the scenario once per seed, one
  after the other, each run fanning its own folds out over a private
  process pool.  Every seed pays pool startup, and all workers idle
  while the parent generates the next seed's corpus, tokenizes it and
  trains its full model;
* **replica per worker** — what
  :func:`repro.engine.replicate.replicate_scenario` does: one process
  pool of ``min(workers, seeds)`` workers, each running whole replicas
  (ingest, training and every fold) at ``workers=1``, so every stage
  of every replica runs in parallel with the others.

This benchmark runs both at the same worker count, asserts the pooled
records are **identical** (same dict, byte for byte once serialized),
and measures the wall-clock difference.  At ``workers >= 2`` the
replica pool should win — that is the engine's reason to exist — and
the emitted record says by how much.

Run directly (it is a script, not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/bench_replication.py --workers 4
    PYTHONPATH=src python benchmarks/bench_replication.py --scale smoke

Records **append** to ``benchmarks/results/BENCH_replication.json``
(``BENCH_replication.smoke.json`` for the smoke scale): each run adds
one entry, so the file accumulates the replication engine's speedup
trajectory across revisions.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.replicate import replica_seeds, replicate_scenario
from repro.experiments.results import ReplicatedRecord
from repro.scenarios import get_scenario, run_scenario

_RESULTS_DIR = Path(__file__).resolve().parent / "results"

_SCALES = {
    # (seeds, scenario overrides) per scale.  Many seeds of a moderate
    # run is the replication engine's home turf: the naive loop pays
    # pool startup per seed and idles its workers through every seed's
    # parent-side preparation (corpus + full model), and both costs
    # scale with the seed count.  Small enough for CI either way.
    "smoke": (
        4,
        dict(
            inbox_size=200,
            folds=3,
            corpus_ham=150,
            corpus_spam=150,
            attack_fractions=(0.0, 0.02, 0.05),
        ),
    ),
    "small": (
        16,
        dict(
            inbox_size=240,
            folds=3,
            corpus_ham=180,
            corpus_spam=180,
            attack_fractions=(0.0, 0.01, 0.05),
        ),
    ),
    # Enough replica work that the pooled path's fixed costs (pool
    # startup, shipping records back) amortize to noise.
    "large": (
        24,
        dict(
            inbox_size=320,
            folds=3,
            corpus_ham=240,
            corpus_spam=240,
            attack_fractions=(0.0, 0.01, 0.02, 0.05),
        ),
    ),
}


def _default_json(scale_name: str) -> Path:
    if scale_name == "small":
        return _RESULTS_DIR / "BENCH_replication.json"
    return _RESULTS_DIR / f"BENCH_replication.{scale_name}.json"


def _naive_seed_loop(
    scenario: str, seeds: list[int], overrides: dict, workers: int
) -> ReplicatedRecord:
    """The baseline: one full scenario run per seed, strictly in order.

    Each run uses the stock per-experiment fan-out (its own process
    pool at ``workers``), exactly as N manual ``repro run-scenario``
    invocations would.
    """
    spec = get_scenario(scenario)
    records = []
    for seed in seeds:
        config = spec.build_config(**overrides, seed=seed, workers=workers)
        records.append(run_scenario(spec, config=config).record)
    return ReplicatedRecord.pool(
        records,
        config={
            "scenario": spec.name,
            "n_seeds": len(seeds),
            "base_seed": None,
            "replica_seeds": list(seeds),
            "overrides": {},
        },
    )


def run(
    scale_name: str,
    base_seed: int,
    workers: int,
    scenario: str,
    rounds: int,
    json_out: Path,
) -> int:
    n_seeds, overrides = _SCALES[scale_name]
    seeds = replica_seeds(base_seed, n_seeds)
    print(
        f"# replication benchmark — scale={scale_name}, scenario={scenario}, "
        f"seeds={n_seeds}, workers={workers}, best-of-{rounds}"
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

    naive_seconds, naive = _best_of(
        lambda: _naive_seed_loop(scenario, seeds, overrides, workers)
    )
    pooled_seconds, pooled = _best_of(
        lambda: replicate_scenario(
            scenario,
            seeds=seeds,
            overrides=overrides or None,
            workers=workers,
        )
    )

    # The replica pool must change scheduling only.  Compare on the
    # stats + replicas (the naive baseline does not reconstruct the
    # derived-seed config block).
    identical = (
        [s.as_dict() for s in naive.stats] == [s.as_dict() for s in pooled.stats]
        and [r.as_dict() for r in naive.replicas]
        == [r.as_dict() for r in pooled.replicas]
    )
    speedup = naive_seconds / pooled_seconds if pooled_seconds else 0.0
    print(
        f"naive seed loop   {naive_seconds:7.2f}s\n"
        f"replica per worker {pooled_seconds:6.2f}s\n"
        f"speedup           {speedup:7.2f}x   identical: {'yes' if identical else 'NO'}"
    )
    if workers >= 2 and speedup <= 1.0:
        print("NOTE: replica pool did not win at this scale/machine")

    record = {
        "benchmark": "replication",
        "scale": scale_name,
        "scenario": scenario,
        "n_seeds": n_seeds,
        "workers": workers,
        "base_seed": base_seed,
        "naive_seconds": naive_seconds,
        "pooled_seconds": pooled_seconds,
        "speedup": speedup,
        "identical": identical,
    }
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
    print(f"appended to {json_out} ({len(history)} record(s))")
    return 0 if identical else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=tuple(_SCALES), default="small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scenario", default="dictionary-vs-none")
    parser.add_argument("--rounds", type=int, default=2,
                        help="best-of-N rounds per arm (default 2)")
    parser.add_argument("--json", type=Path, default=None,
                        help="record path (default: benchmarks/results/"
                             "BENCH_replication[.<scale>].json, appended)")
    args = parser.parse_args(argv)
    return run(
        args.scale, args.seed, args.workers, args.scenario, args.rounds,
        args.json or _default_json(args.scale),
    )


if __name__ == "__main__":
    sys.exit(main())
