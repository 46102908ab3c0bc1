"""Multi-seed replication: one scenario, N seeds, pooled error bars.

Every figure in the paper pools repeated randomized trials — the
curves are means over folds *and* seeds, not single runs.  This module
is the engine layer for that: :func:`replicate_scenario` runs any
registered scenario at N root seeds and pools the per-seed
:class:`~repro.experiments.results.ExperimentRecord`\\s into one
:class:`~repro.experiments.results.ReplicatedRecord` carrying per-x
mean, sample std and a 95% confidence interval for every rate of every
curve.

**Replica per worker.**  A replica is the unit of parallelism.  With
``workers > 1`` and at least two replicas to run, the replication is
one :class:`~repro.engine.runner.ParallelRunner` map over the replica
indices: each replica runs start to finish (corpus generation,
tokenizing, training, every fold) inside one worker process at
``workers=1``, and saves its checkpoint from that worker as soon as it
finishes.  Ingest, the bulk of a replica, therefore runs on every core
at once instead of behind the parent's GIL, and nothing crosses a
process boundary but the replica index going out and its record coming
back.  A lone replica (one seed, or one left to run on ``--resume``)
runs in the parent instead and keeps the full ``workers`` for its own
fold fan-out.

The replica map is supervised like every pooled map
(:class:`~repro.engine.runner.WorkerPool`): a crashed or hung worker's
replicas are retried on a fresh worker set, and ``--timeout`` bounds
one dispatch wave of whole replicas.

**Determinism.**  Replica ``i`` runs at root seed
``spawn_seed(base_seed, "replicate") || "replica:i"`` — a pure
function of ``(base_seed, i)``, independent of scheduling, worker
count and ``PYTHONHASHSEED`` (the interning layer assigns token
IDs in sorted order, see
:meth:`~repro.spambayes.token_table.TokenTable.encode_unique`).  Each
replica's record is exactly what a single ``run_scenario`` at that
seed produces, the pooled record lists the replica seeds so any one of
them can be re-run standalone, and the serialized JSON is
byte-identical across runs, hash seeds and ``--workers`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence, TYPE_CHECKING

from repro.engine.checkpoint import ReplicaStore
from repro.engine.runner import ParallelRunner, resolve_workers
from repro.errors import EngineError
from repro.experiments.results import ExperimentRecord, ReplicatedRecord
from repro.rng import SeedSpawner

if TYPE_CHECKING:  # runtime import would cycle via repro.scenarios
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["replica_seeds", "replicate_scenario"]


def replica_seeds(base_seed: int, count: int) -> list[int]:
    """The root seeds replicas ``0..count-1`` run at.

    Spawned (``SHA-256(base_seed || label)``) rather than consecutive:
    ``base_seed`` and ``base_seed + 1`` replications share no replica
    seeds, so pooling both never silently double-counts a trial.
    """
    if count < 1:
        raise EngineError(f"replication needs >= 1 seed, got {count}")
    spawner = SeedSpawner(base_seed).spawn("replicate")
    return [spawner.child_seed(f"replica:{index}") for index in range(count)]


def _json_safe(value: Any) -> Any:
    """Render an override value into the JSON-stable config block."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in sorted(value.items())}
    return repr(value)


def _resolve_spec(scenario: "str | ScenarioSpec") -> "ScenarioSpec":
    # Late import: repro.scenarios imports the engine package.
    from repro.scenarios import get_scenario

    return get_scenario(scenario) if isinstance(scenario, str) else scenario


@dataclass(frozen=True)
class _ReplicaContext:
    """Everything a worker needs to run any replica of one replication."""

    spec: "ScenarioSpec"
    seeds: tuple[int, ...]
    overrides: dict[str, Any]
    base_config: Any | None
    checkpoint_dir: str | None
    workers: int

    def config(self, seed: int) -> Any:
        if self.base_config is not None:
            return replace(self.base_config, seed=seed, workers=self.workers)
        return self.spec.build_config(**self.overrides, seed=seed, workers=self.workers)


def _run_replica(context: _ReplicaContext, index: int) -> ExperimentRecord:
    """Engine worker: run replica ``index`` and checkpoint its record."""
    from repro.scenarios import run_scenario  # late: import cycle

    seed = context.seeds[index]
    outcome = run_scenario(context.spec, config=context.config(seed))
    if outcome.record is None:
        raise EngineError(
            f"scenario {context.spec.name!r} produces no serializable record; "
            "replication has nothing to pool"
        )
    if context.checkpoint_dir is not None:
        ReplicaStore(context.checkpoint_dir, context.spec.name).save(
            seed, outcome.record
        )
    return outcome.record


def replicate_scenario(
    scenario: "str | ScenarioSpec",
    *,
    seeds: int | Sequence[int] = 8,
    base_seed: int = 0,
    overrides: Mapping[str, Any] | None = None,
    workers: int | None = 1,
    base_config: Any | None = None,
    extra_config: Mapping[str, Any] | None = None,
    checkpoint_dir: str | None = None,
) -> ReplicatedRecord:
    """Run ``scenario`` at N seeds and pool the results.

    ``seeds`` is either a replica count (seeds derived from
    ``base_seed`` via :func:`replica_seeds`) or an explicit seed
    sequence.  ``overrides`` are config-field overrides applied to
    every replica — exactly the ``--set`` surface of ``run-scenario``.
    ``base_config`` is the alternative for callers that already built a
    config (the CLI's ``--scale paper`` path): each replica runs
    ``dataclasses.replace(base_config, seed=..., workers=...)``;
    mixing it with ``overrides`` is an error.  ``extra_config`` entries
    are merged (JSON-rendered) into the pooled record's config block —
    how the ``base_config`` path records what the config was built
    from, since the record cannot infer it.

    ``workers <= 1`` runs the replicas sequentially, entirely in the
    parent process.  ``workers > 1`` runs each replica whole inside
    one worker process, up to ``workers`` replicas at a time (see the
    module docstring).  The returned record is identical either way.

    ``checkpoint_dir`` makes the replication resumable: each replica
    record is persisted (atomically, by the process that ran it) the
    moment it completes, replicas already checkpointed there are loaded
    instead of re-run, and because every record is a pure function of
    its seed the pooled output is byte-identical to an uninterrupted
    run.  The replica map is supervised, so a worker crash or hang costs
    a retry of the replicas it held rather than the run.
    """
    spec = _resolve_spec(scenario)
    if isinstance(seeds, int):
        seed_list = replica_seeds(base_seed, seeds)
    else:
        seed_list = [int(seed) for seed in seeds]
        if not seed_list:
            raise EngineError("replication needs >= 1 seed")
        if len(set(seed_list)) != len(seed_list):
            raise EngineError(f"replica seeds must be distinct, got {seed_list}")
    if base_config is not None and overrides:
        raise EngineError("pass either base_config or overrides, not both")
    # seed/workers are replication-owned: every replica runs at its
    # derived seed with the pool's worker count.  Accepting them as
    # overrides would silently archive a config block contradicting
    # the replica_seeds that actually ran.
    for reserved in ("seed", "workers"):
        if overrides and reserved in overrides:
            raise EngineError(
                f"override {reserved!r} conflicts with replication; use the "
                f"{'base_seed' if reserved == 'seed' else 'workers'} parameter"
            )
    pool_workers = resolve_workers(workers)

    records: list[ExperimentRecord | None] = [None] * len(seed_list)
    todo = list(range(len(seed_list)))
    if checkpoint_dir is not None:
        store = ReplicaStore(checkpoint_dir, spec.name)
        todo = []
        for index, seed in enumerate(seed_list):
            records[index] = store.load(seed)
            if records[index] is None:
                todo.append(index)

    # Several replicas: one per worker, each sequential inside it.  A
    # lone replica runs here and fans its own folds out instead.
    fanout = min(pool_workers, len(todo))
    context = _ReplicaContext(
        spec=spec,
        seeds=tuple(seed_list),
        overrides=dict(overrides or {}),
        base_config=base_config,
        checkpoint_dir=checkpoint_dir,
        workers=pool_workers if fanout == 1 else 1,
    )
    finished = ParallelRunner(max(fanout, 1)).map(_run_replica, context, todo)
    for index, record in zip(todo, finished):
        records[index] = record

    config: dict[str, Any] = {
        "scenario": spec.name,
        "n_seeds": len(seed_list),
        "base_seed": base_seed if isinstance(seeds, int) else None,
        "replica_seeds": list(seed_list),
        "overrides": {
            key: _json_safe(value) for key, value in sorted((overrides or {}).items())
        },
    }
    for key, value in (extra_config or {}).items():
        config[str(key)] = _json_safe(value)
    return ReplicatedRecord.pool(records, config=config)
