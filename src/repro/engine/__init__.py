"""Parallel experiment execution engine.

The experiments of Sections 4-5 decompose into independent, seeded
units of work — folds of a cross-validated sweep, repetitions of a
RONI calibration, targets of a focused attack.  This package runs
those units across worker processes without changing a single result:

* :mod:`repro.engine.runner` —
  :class:`~repro.engine.runner.ParallelRunner`, the one concurrency
  primitive: map a worker function over tasks with a shared read-only
  context, results in task order, sequential when ``workers <= 1``,
  otherwise through the one :class:`~repro.engine.runner.WorkerPool`,
  which supervises every map: per-wave chunk deadlines, crash
  detection with pool respawn, bounded retry, and graceful
  degradation to in-process execution — all preserving the engine's
  bit-identical determinism contract;
* :mod:`repro.engine.seeding` — per-task seed derivation, so parallel
  and sequential runs consume identical random streams;
* :mod:`repro.engine.sweep` — the K-fold attack-sweep engine behind
  Figures 1 and 5: fold models derived from one shared full-inbox
  classifier by snapshot/unlearn/restore, deterministic fold fan-out,
  each held-out stripe scored through one cached workspace
  (:meth:`~repro.spambayes.classifier.Classifier.score_workspace`);
* :mod:`repro.engine.replicate` — multi-seed replication: the same
  scenario at N root seeds, one whole replica per worker process,
  pooled into a
  :class:`~repro.experiments.results.ReplicatedRecord` with per-point
  mean/std/95%-CI error bars (:func:`repro.scenarios.replicate_scenario`
  is the by-name entry point);
* :mod:`repro.engine.supervise` — the supervision policy, its stats
  ledger and ambient policy resolution;
* :mod:`repro.engine.faults` — deterministic, seed-driven fault
  injection (``REPRO_FAULTS``) that makes those failure paths
  routinely executable in tests and CI;
* :mod:`repro.engine.checkpoint` — per-replica checkpoints so a killed
  replication resumes, reproducing uninterrupted output byte-for-byte.

Every experiment config accepts ``workers`` (surfaced as
``--workers N`` on the CLI).  The default of 1 runs everything in the
parent process; any other value changes wall-clock time only.
"""
