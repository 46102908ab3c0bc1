"""Parallel experiment execution engine.

The experiments of Sections 4-5 decompose into independent, seeded
units of work — folds of a cross-validated sweep, repetitions of a
RONI calibration, targets of a focused attack.  This package runs
those units across worker processes without changing a single result:

* :mod:`repro.engine.runner` — :class:`ParallelRunner`, the one
  concurrency primitive: map a worker function over tasks with a
  shared read-only context, results in task order, sequential when
  ``workers <= 1``, otherwise through the one :class:`WorkerPool`,
  which supervises every map: per-wave chunk deadlines, crash
  detection with pool respawn, bounded retry, and graceful
  degradation to in-process execution — all preserving the engine's
  bit-identical determinism contract;
* :mod:`repro.engine.seeding` — per-task seed derivation shared with
  the benchmark harness, so parallel and sequential runs consume
  identical random streams;
* :mod:`repro.engine.sweep` — the K-fold attack-sweep engine behind
  Figures 1 and 5: fold models derived from one shared full-inbox
  classifier by snapshot/unlearn/restore, deterministic fold fan-out,
  bulk scoring via :meth:`Classifier.score_many`;
* :mod:`repro.engine.replicate` — multi-seed replication: the same
  scenario at N root seeds, one whole replica per worker process,
  pooled into a
  :class:`~repro.experiments.results.ReplicatedRecord` with per-point
  mean/std/95%-CI error bars.  (Imported lazily by
  :mod:`repro.scenarios`, which re-exports ``replicate_scenario``.)
* :mod:`repro.engine.supervise` — the supervision policy, its stats
  ledger and ambient policy resolution;
* :mod:`repro.engine.faults` — deterministic, seed-driven fault
  injection (``REPRO_FAULTS``) that makes those failure paths
  routinely executable in tests and CI;
* :mod:`repro.engine.checkpoint` — per-replica checkpoints so a killed
  replication resumes, reproducing uninterrupted output byte-for-byte.

Every experiment driver accepts ``workers`` in its config (surfaced as
``--workers N`` on the CLI).  The default of 1 runs everything in the
parent process; any other value changes wall-clock time only.
"""

from repro.engine.checkpoint import ReplicaStore
from repro.engine.faults import FaultPlan, FaultSpec, parse_faults, use_faults
from repro.engine.runner import ParallelRunner, WorkerPool, resolve_workers
from repro.engine.seeding import drawn_seeds, resolve_root_seed
from repro.engine.supervise import SupervisePolicy, current_policy, use_supervision
from repro.engine.sweep import (
    AttackSweepPoint,
    IncrementalAttackTrainer,
    SweepResult,
    SweepSpec,
    attack_message_count,
    evaluate_dataset,
    run_attack_sweeps,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "ParallelRunner",
    "ReplicaStore",
    "SupervisePolicy",
    "WorkerPool",
    "current_policy",
    "parse_faults",
    "resolve_workers",
    "use_faults",
    "use_supervision",
    "drawn_seeds",
    "resolve_root_seed",
    "AttackSweepPoint",
    "IncrementalAttackTrainer",
    "SweepResult",
    "SweepSpec",
    "attack_message_count",
    "evaluate_dataset",
    "run_attack_sweeps",
]
