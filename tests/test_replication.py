"""Tests for the multi-seed replication engine.

Three layers, mirroring how the tentpole is built:

* :class:`~repro.engine.runner.WorkerPool` — the one process pool
  (chunk reassembly, error propagation, single-task maps);
* :func:`~repro.scenarios.replicate_scenario` — replica seed
  derivation, pooled statistics, and the core guarantee that running
  one whole replica per worker process returns byte-identical records
  to the sequential path, with each replica checkpointed by the worker
  that ran it;
* the ``repro replicate`` CLI's input errors and the pooled record's
  rendering.

The replicated golden records (``tests/test_golden.py``) pin the
``--out`` bytes across worker counts, kernels, stores and faults.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.engine.replicate import replica_seeds
from repro.engine.runner import ParallelRunner, WorkerPool
from repro.errors import EngineError
from repro.scenarios import replicate_scenario

TINY_DICTIONARY = dict(
    inbox_size=120,
    folds=2,
    corpus_ham=120,
    corpus_spam=120,
    attack_fractions=(0.0, 0.05),
)


# Module-level so the pool can pickle it by reference.
def _square_task(context, task):
    return context["offset"] + task * task


def _pid_task(context, task):
    import os

    return os.getpid()


def _failing_task(context, task):
    if task == 3:
        raise ValueError("task three exploded")
    return task


_MARKING: dict = {}
"""What :func:`_marking_run` needs; set by the test before the pool forks."""


def _marking_run(spec, config=None):
    """``run_scenario`` that leaves a pid mark, and holds replica 1's
    worker until replica 0's checkpoint is on disk.  Module-level, so
    the replica context pickles it by reference."""
    from repro.scenarios import executor

    marks, store, seeds = _MARKING["state"]
    outcome = executor.run_scenario(spec, config=config)
    (marks / f"run.{config.seed}").write_text(str(os.getpid()))
    if config.seed == seeds[1]:
        deadline = time.monotonic() + 120
        while not store.path(seeds[0]).exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        (marks / "saw-first").write_text(str(store.path(seeds[0]).exists()))
    return outcome


class TestWorkerPool:
    def test_rejects_sequential_sizes(self):
        with pytest.raises(EngineError):
            WorkerPool(1)

    def test_run_preserves_task_order_across_chunks(self):
        tasks = list(range(23))  # deliberately not divisible by workers
        with WorkerPool(3) as pool:
            results = pool.run(_square_task, {"offset": 5}, tasks)
        assert results == [5 + task * task for task in tasks]

    def test_empty_task_list(self):
        with WorkerPool(2) as pool:
            assert pool.run(_square_task, {"offset": 0}, []) == []

    def test_worker_exception_propagates(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task three exploded"):
                pool.run(_failing_task, None, list(range(6)))
            # The pool survives a failed call and serves the next one.
            assert pool.run(_square_task, {"offset": 0}, [2, 4]) == [4, 16]

    def test_closed_pool_rejected(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(EngineError):
            pool.run(_square_task, {"offset": 0}, [1])

    def test_single_task_ships_to_the_pool(self):
        # A lone task still runs in a pool worker, while a
        # ParallelRunner map of a single task stays inline rather than
        # paying a fork.
        with WorkerPool(2) as pool:
            (pooled_pid,) = pool.run(_pid_task, None, [0])
        assert pooled_pid != os.getpid()
        (inline_pid,) = ParallelRunner(workers=2).map(_pid_task, None, [0])
        assert inline_pid == os.getpid()


_SEQUENTIAL_BYTES: dict[int, str] = {}


def _pooled_bytes(n_seeds: int, workers: int) -> str:
    record = replicate_scenario(
        "dictionary-vs-none", seeds=n_seeds, overrides=TINY_DICTIONARY, workers=workers
    )
    return json.dumps(record.as_dict(), indent=2)


class TestReplicaSeeds:
    def test_deterministic_and_distinct(self):
        seeds = replica_seeds(0, 8)
        assert seeds == replica_seeds(0, 8)
        assert len(set(seeds)) == 8
        # Prefix-stable: asking for more seeds never changes the first ones.
        assert replica_seeds(0, 4) == seeds[:4]

    def test_base_seeds_do_not_overlap(self):
        assert not set(replica_seeds(0, 16)) & set(replica_seeds(1, 16))

    def test_invalid_counts_rejected(self):
        with pytest.raises(EngineError):
            replica_seeds(0, 0)
        with pytest.raises(EngineError):
            replicate_scenario("dictionary-vs-none", seeds=[])
        with pytest.raises(EngineError):
            replicate_scenario("dictionary-vs-none", seeds=[7, 7])


@pytest.mark.slow
class TestReplicateScenario:
    def test_replicas_are_standalone_runs(self):
        from repro.scenarios import get_scenario, run_scenario

        record = replicate_scenario(
            "dictionary-vs-none", seeds=2, overrides=TINY_DICTIONARY, workers=1
        )
        assert record.n_replicas == 2
        assert [s.name for s in record.stats] == ["usenet"]
        assert record.config["scenario"] == "dictionary-vs-none"
        seeds = record.config["replica_seeds"]
        assert seeds == replica_seeds(0, 2)
        # Replica 1's record is exactly a plain run at that seed.
        spec = get_scenario("dictionary-vs-none")
        config = spec.build_config(**TINY_DICTIONARY, seed=seeds[1], workers=1)
        standalone = run_scenario(spec, config=config).record
        assert record.replicas[1].as_dict() == standalone.as_dict()

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("n_seeds", [3])
    def test_replica_pool_matches_sequential_bytes(self, n_seeds, workers):
        # Three replicas: uneven over two workers, one each over three,
        # and a pool sized down to the replicas at four.  (Two replicas
        # at workers 1-4 are the replicated golden's cells.)
        if n_seeds not in _SEQUENTIAL_BYTES:
            _SEQUENTIAL_BYTES[n_seeds] = _pooled_bytes(n_seeds, workers=1)
        assert _pooled_bytes(n_seeds, workers=workers) == _SEQUENTIAL_BYTES[n_seeds]

    def test_replicas_run_and_checkpoint_in_workers(self, tmp_path, monkeypatch):
        # Every replica runs in a worker process, and that worker saves
        # its checkpoint the moment the replica finishes: replica 1
        # holds its worker until replica 0's checkpoint is on disk,
        # which a save made after the whole map returned never is.
        from repro.engine.checkpoint import ReplicaStore
        from repro.engine.replicate import replicate_spec
        from repro.scenarios import get_scenario

        marks = tmp_path / "marks"
        marks.mkdir()
        store = ReplicaStore(tmp_path / "ckpt", "dictionary-vs-none")
        seeds = replica_seeds(0, 2)
        real_save = ReplicaStore.save

        def save(self, seed, record):
            real_save(self, seed, record)
            (marks / f"save.{seed}").write_text(str(os.getpid()))

        monkeypatch.setitem(_MARKING, "state", (marks, store, seeds))
        monkeypatch.setattr(ReplicaStore, "save", save)
        record = replicate_spec(
            get_scenario("dictionary-vs-none"),
            _marking_run,
            seeds=2,
            overrides=TINY_DICTIONARY,
            workers=2,
            checkpoint_dir=str(store.root),
        )
        assert (marks / "saw-first").read_text() == "True"
        for seed in seeds:
            runner_pid = (marks / f"run.{seed}").read_text()
            assert runner_pid != str(os.getpid())
            assert (marks / f"save.{seed}").read_text() == runner_pid
        assert [store.load(seed).as_dict() for seed in seeds] == [
            replica.as_dict() for replica in record.replicas
        ]

    def test_explicit_seed_list(self):
        record = replicate_scenario(
            "dictionary-vs-none", seeds=[11, 5], overrides=TINY_DICTIONARY
        )
        assert record.config["replica_seeds"] == [11, 5]
        assert record.config["base_seed"] is None
        assert [r.config["seed"] for r in record.replicas] == [11, 5]

    def test_stats_pool_the_replica_curves(self):
        record = replicate_scenario(
            "dictionary-vs-none", seeds=3, overrides=TINY_DICTIONARY
        )
        (stats,) = [stats for stats in record.stats if stats.name == "usenet"]
        for index, point in enumerate(stats.points):
            samples = [
                replica.series_named("usenet").points[index].ham_misclassified_rate
                for replica in record.replicas
            ]
            assert point.n == 3
            assert point.rate("ham_misclassified_rate").mean == pytest.approx(
                sum(samples) / 3
            )

    def test_scenario_without_series_pools_empty_stats(self):
        from repro.defenses.roni import RoniConfig

        record = replicate_scenario(
            "focused-vs-roni",
            seeds=2,
            overrides=dict(
                pool_size=80,
                n_nonattack_spam=4,
                repetitions_per_variant=1,
                corpus_ham=120,
                corpus_spam=120,
                roni=RoniConfig(train_size=10, validation_size=20, trials=2),
            ),
        )
        assert record.stats == []
        assert record.n_replicas == 2
        assert all(r.extras["attack_impacts"] for r in record.replicas)

    def test_base_config_and_overrides_conflict(self):
        from repro.scenarios import get_scenario

        config = get_scenario("dictionary-vs-none").build_config(**TINY_DICTIONARY)
        with pytest.raises(EngineError):
            replicate_scenario(
                "dictionary-vs-none",
                seeds=2,
                overrides={"folds": 2},
                base_config=config,
            )

    def test_reserved_overrides_rejected(self):
        # seed/workers in overrides would be silently overwritten by
        # the per-replica values while the record archived them as if
        # they had applied — reject instead.
        for reserved in ({"seed": 777}, {"workers": 3}):
            with pytest.raises(EngineError, match="conflicts with replication"):
                replicate_scenario(
                    "dictionary-vs-none",
                    seeds=2,
                    overrides={**TINY_DICTIONARY, **reserved},
                )


class TestRenderReplicated:
    def test_error_bar_table_renders(self):
        from repro.experiments.reporting import render_replicated_record

        record = replicate_scenario(
            "dictionary-vs-none", seeds=2, overrides=TINY_DICTIONARY
        )
        text = render_replicated_record(record)
        assert "pooled over 2 seed(s)" in text
        assert "ham-as-spam|unsure" in text
        assert "±" in text
        assert "usenet" in text

    def test_seriesless_record_renders_summary_line(self):
        from repro.experiments.reporting import render_replicated_record
        from repro.experiments.results import ExperimentRecord, ReplicatedRecord

        record = ReplicatedRecord.pool(
            [ExperimentRecord(experiment="x", config={}, extras={"n": 1})]
        )
        text = render_replicated_record(record)
        assert "no curve series" in text


class TestReplicateCli:
    def test_cli_rejects_reserved_and_unknown_overrides(self, capsys):
        from repro.cli import main

        assert main(["replicate", "dictionary-vs-none", "--set", "seed=3"]) == 2
        assert "conflicts with replication" in capsys.readouterr().err
        assert main(["replicate", "dictionary-vs-none", "--set", "bogus=1"]) == 2
        assert "unknown override" in capsys.readouterr().err
        assert main(["replicate", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["replicate", "dictionary-vs-none", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err
