"""Tests for the fault-injection harness and the supervision layer.

Three layers:

* :mod:`repro.engine.faults` — spec parsing, deterministic hash
  draws, site gating, worker-only firing;
* :class:`repro.engine.runner.WorkerPool` — the recovery ladder every
  pooled map runs under: crash → respawn → retry → degrade, hang →
  deadline → retry, app errors propagating unretried, with stats
  proving the faults actually fired;
* :mod:`repro.engine.checkpoint` — replica checkpoint round-trips and
  rejection of foreign/torn files, and a killed ``repro replicate``
  resuming via ``--resume`` to byte-identical pooled output.

That every scenario's record is byte-identical under injected crashes
and hangs is checked by the golden harness (``tests/test_golden.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.engine import checkpoint, faults, runner, supervise
from repro.engine.faults import FaultPlan, FaultSpec, parse_faults, use_faults
from repro.engine.replicate import replica_seeds, replicate_scenario
from repro.engine.runner import ParallelRunner, WorkerPool
from repro.engine.supervise import SupervisePolicy, use_supervision
from repro.errors import (
    ConfigurationError,
    EngineError,
    MapTimeoutError,
    WorkerCrashError,
)
from repro.experiments.results import ExperimentRecord
from repro.storage.disk import orphaned_stores

TINY_DICTIONARY = dict(
    inbox_size=120,
    folds=2,
    corpus_ham=120,
    corpus_spam=120,
    attack_fractions=(0.0, 0.05),
)


# Module-level so pool workers can pickle them by reference.
def _square_task(context, task):
    return context["offset"] + task * task


def _csr_row_task(context, task):
    return context["csr"].row(task).tolist()


def _failing_task(context, task):
    if task == 3:
        raise ValueError("task three exploded")
    return task


def _die_once(context, task):
    # Task 3 kills its worker the first time it runs; the marker file
    # lets the retry through.  Never in the parent, which runs pytest.
    marker_dir, parent = context
    marker = Path(marker_dir) / "died"
    if task == 3 and os.getpid() != parent and not marker.exists():
        marker.touch()
        os._exit(1)
    return task * task


def _store_then_hang(context, task):
    from repro.storage import active_backend

    active_backend()  # REPRO_STORE=disk: this worker's own store directory
    time.sleep(30.0)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class TestParseFaults:
    def test_none_and_empty_mean_no_plan(self):
        assert parse_faults(None) is None
        assert parse_faults("") is None
        assert parse_faults("  ,  ") is None

    def test_single_clause_defaults(self):
        plan = parse_faults("crash")
        assert plan.specs == (FaultSpec("crash", 1.0),)
        assert plan.seed == 0

    def test_full_grammar(self):
        plan = parse_faults("crash:p=0.2,hang:p=0.05:s=0.5,seed=7")
        assert plan.seed == 7
        assert plan.specs[0] == FaultSpec("crash", 0.2)
        assert plan.specs[1] == FaultSpec("hang", 0.05, seconds=0.5)

    @pytest.mark.parametrize(
        "text",
        [
            "explode",  # unknown mode
            "shm-unlink:p=0.1",  # removed mode
            "crash:p=2",  # probability out of range
            "crash:q=0.5",  # unknown param
            "crash:p",  # missing value
            "crash:p=abc",  # non-numeric value
            "seed=x",  # bad seed
            "hang:s=-1",  # negative stall
        ],
    )
    def test_junk_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_faults(text)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan((FaultSpec("crash", 0.5),), seed=3)
        draws = [plan.decide("worker-chunk", f"k{i}") for i in range(64)]
        assert draws == [plan.decide("worker-chunk", f"k{i}") for i in range(64)]
        fired = sum(1 for draw in draws if draw is not None)
        assert 0 < fired < 64  # p=0.5 over 64 keys: both outcomes occur

    def test_seed_changes_decisions(self):
        keys = [f"k{i}" for i in range(64)]

        def fired(seed):
            plan = FaultPlan((FaultSpec("crash", 0.5),), seed=seed)
            return [plan.decide("worker-chunk", key) is not None for key in keys]

        assert fired(0) != fired(1)

    def test_site_gating(self):
        plan = FaultPlan((FaultSpec("crash", 1.0),))
        assert plan.decide("worker-chunk", "k") is not None
        assert plan.decide("stream-task", "k") is not None
        assert plan.decide("elsewhere", "k") is None

    @pytest.mark.parametrize("mode", faults.MODES)
    def test_every_mode_fires_only_at_worker_sites(self, mode):
        plan = FaultPlan((FaultSpec(mode, 1.0),))
        assert [plan.decide(site, "k") is not None for site in (
            "worker-chunk", "stream-task", "shm-unlink", "supervisor"
        )] == [True, True, False, False]

    def test_bool_reflects_live_probability(self):
        assert not FaultPlan((FaultSpec("crash", 0.0),))
        assert FaultPlan((FaultSpec("crash", 0.1),))

    def test_inject_is_noop_outside_workers(self):
        # An injected crash in the parent would take the whole test
        # run with it; this call returning at all is the assertion.
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            assert not faults.in_worker_process()
            faults.inject("worker-chunk", "any")

    def test_env_activation_and_cache(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active_plan() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:p=0.25")
        plan = faults.active_plan()
        assert plan.specs == (FaultSpec("crash", 0.25),)
        assert faults.active_plan() is plan  # cached per distinct value


# ----------------------------------------------------------------------
# Policy resolution
# ----------------------------------------------------------------------


_SUPERVISION_ENV = ("REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_DEGRADE", "REPRO_FAULTS")


class TestPolicyResolution:
    def test_defaults_when_nothing_is_set(self, monkeypatch):
        for var in _SUPERVISION_ENV:
            monkeypatch.delenv(var, raising=False)
        assert supervise.current_policy() == SupervisePolicy()
        assert SupervisePolicy().retries == supervise.DEFAULT_RETRIES

    def test_faults_env_selects_a_plan_not_a_policy(self, monkeypatch):
        # REPRO_FAULTS only picks a fault plan; the policy it runs under
        # is the same one every pooled map gets.
        for var in _SUPERVISION_ENV:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "crash:p=0.1")
        assert supervise.current_policy() == SupervisePolicy()
        assert faults.active_plan() == parse_faults("crash:p=0.1")

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        policy = supervise.current_policy()
        assert policy == SupervisePolicy(timeout=2.5, retries=4, degrade=False)

    def test_thread_local_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "4")
        explicit = SupervisePolicy(retries=0)
        with use_supervision(explicit):
            assert supervise.current_policy() is explicit
        assert supervise.current_policy().retries == 4  # env default restored

    def test_invalid_policy_rejected(self):
        with pytest.raises(EngineError):
            SupervisePolicy(timeout=0)
        with pytest.raises(EngineError):
            SupervisePolicy(retries=-1)


# ----------------------------------------------------------------------
# The pool's recovery ladder
# ----------------------------------------------------------------------


class TestWorkerPoolSupervision:
    def test_worker_death_costs_a_retry_with_no_policy_set(self, tmp_path, monkeypatch):
        # No REPRO_* knob and no use_supervision: every pool is
        # supervised anyway, so a real worker death is retried.
        for var in _SUPERVISION_ENV:
            monkeypatch.delenv(var, raising=False)
        tasks = list(range(8))
        inline = [task * task for task in tasks]
        runner_dir, pool_dir = tmp_path / "runner", tmp_path / "pool"
        runner_dir.mkdir()
        pool_dir.mkdir()
        assert ParallelRunner(2).map(_die_once, (str(runner_dir), os.getpid()), tasks) == inline
        with WorkerPool(2) as pool:
            assert pool.run(_die_once, (str(pool_dir), os.getpid()), tasks) == inline
            assert pool.stats.crashes == 1
        assert (runner_dir / "died").exists() and (pool_dir / "died").exists()

    def test_clean_run_records_nothing(self):
        tasks = list(range(23))
        policy = SupervisePolicy(timeout=120.0, retries=2)
        # use_faults(None): stay clean even when the CI leg exports
        # REPRO_FAULTS around this whole file.
        with use_faults(None), WorkerPool(3, policy=policy) as pool:
            results = pool.run(_square_task, {"offset": 5}, tasks)
            stats = pool.stats.as_dict()
        assert results == [5 + task * task for task in tasks]
        assert all(count == 0 for count in stats.values())

    def test_certain_crash_degrades_to_correct_results(self):
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            policy = SupervisePolicy(retries=1, degrade=True)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 3}, list(range(8)))
                stats = pool.stats.as_dict()
        assert results == [3 + task * task for task in range(8)]
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1
        assert stats["degraded_chunks"] >= 1

    def test_certain_crash_without_degrade_raises_with_provenance(self):
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))):
            policy = SupervisePolicy(retries=1, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.run(_square_task, {"offset": 0}, list(range(8)))
        error = excinfo.value
        assert error.attempts == 2  # initial try + 1 retry
        assert error.chunk_starts  # the unfinished offsets survive
        assert "_square_task" in error.provenance

    def test_partial_crash_retries_only_unfinished_chunks(self):
        # seed=1 fires at least one crash on attempt 0 and none on
        # attempt 1 for this map shape, so the retry completes without
        # ever degrading — the accounting path, not the fallback path.
        with use_faults(FaultPlan((FaultSpec("crash", 0.08),), seed=1)):
            policy = SupervisePolicy(retries=3, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 3}, list(range(16)))
                stats = pool.stats.as_dict()
        assert results == [3 + task * task for task in range(16)]
        assert stats["crashes"] >= 1
        assert stats["retried_chunks"] >= 1
        assert stats["degraded_chunks"] == 0

    def test_hang_past_deadline_raises_timeout_without_degrade(self):
        with use_faults(FaultPlan((FaultSpec("hang", 1.0, seconds=30.0),))):
            policy = SupervisePolicy(timeout=0.5, retries=0, degrade=False)
            with WorkerPool(2, policy=policy) as pool:
                with pytest.raises(MapTimeoutError) as excinfo:
                    pool.run(_square_task, {"offset": 0}, list(range(4)))
        assert "deadline" in str(excinfo.value)

    def test_hang_past_deadline_degrades_to_correct_results(self):
        with use_faults(FaultPlan((FaultSpec("hang", 1.0, seconds=30.0),))):
            policy = SupervisePolicy(timeout=0.5, retries=0, degrade=True)
            with WorkerPool(2, policy=policy) as pool:
                results = pool.run(_square_task, {"offset": 1}, list(range(4)))
                stats = pool.stats.as_dict()
        assert results == [1 + task * task for task in range(4)]
        assert stats["timeouts"] >= 1
        assert stats["degraded_chunks"] >= 1

    def test_killed_workers_leave_no_disk_stores(self, tmp_path, monkeypatch):
        # Killed workers skip their exit hooks; the supervisor reclaims
        # the stores they built.
        monkeypatch.setenv("REPRO_STORE", "disk")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        policy = SupervisePolicy(timeout=1.0, retries=0, degrade=False)
        with use_faults(None), WorkerPool(2, policy=policy) as pool:
            with pytest.raises(MapTimeoutError):
                pool.run(_store_then_hang, None, [0, 1])
        assert list(tmp_path.glob("repro_store_*")) == []

    def test_kill_releases_a_manager_stuck_on_half_a_result(self):
        # A worker killed mid-send leaves a length header without its
        # payload: the executor's manager thread blocks reading the
        # rest, and interpreter exit would wait on that thread forever.
        executor = ProcessPoolExecutor(max_workers=2)
        assert executor.submit(abs, -1).result() == 1
        manager = executor._executor_manager_thread
        os.write(executor._result_queue._writer.fileno(), struct.pack("!i", 1 << 16))
        runner._kill_executor(executor)
        manager.join(10.0)
        assert not manager.is_alive()

    def test_app_exception_propagates_unretried(self):
        policy = SupervisePolicy(retries=5, degrade=True)
        with use_faults(None), WorkerPool(2, policy=policy) as pool:
            with pytest.raises(ValueError, match="task three exploded"):
                pool.run(_failing_task, None, list(range(6)))
            stats = pool.stats.as_dict()
            # A deterministic failure consumed no retry budget...
            assert stats["retried_chunks"] == 0
            assert stats["degraded_chunks"] == 0
            # ...and the pool survives to serve the next map.
            assert pool.run(_square_task, {"offset": 0}, [2, 4]) == [4, 16]

    def test_pool_survives_recovery_and_serves_next_map(self):
        crash_all = FaultPlan((FaultSpec("crash", 1.0),))
        policy = SupervisePolicy(retries=0, degrade=True)
        with use_faults(None), WorkerPool(2, policy=policy) as pool:
            with use_faults(crash_all):
                degraded = pool.run(_square_task, {"offset": 0}, list(range(6)))
            # Faults gone: the respawned workers serve a clean map.
            clean = pool.run(_square_task, {"offset": 0}, list(range(6)))
        assert degraded == clean == [task * task for task in range(6)]

    def test_stats_ledger_counts_crashes_and_timeouts_only(self):
        assert set(supervise.SuperviseStats().as_dict()) == {
            "crashes",
            "timeouts",
            "respawns",
            "retried_chunks",
            "degraded_chunks",
        }

    @pytest.mark.parametrize(
        "plan, policy",
        [
            (
                FaultPlan((FaultSpec("crash", 0.08),), seed=1),
                SupervisePolicy(retries=3, degrade=False),
            ),
            (
                FaultPlan((FaultSpec("crash", 1.0),)),
                SupervisePolicy(retries=0, degrade=True),
            ),
        ],
        ids=["retry", "degrade"],
    )
    def test_crash_recovery_reships_csr_context(self, plan, policy):
        # The sweep's CSR corpus rides the context by value, so a
        # respawned worker set (or the degraded inline run) reads the
        # same rows without any resource surviving the dead workers.
        np = pytest.importorskip("numpy")
        from repro.spambayes.ndkernel import CsrMatrix

        csr = CsrMatrix.from_rows(
            [np.arange(i, 3 * i + 1, dtype=np.int64) for i in range(16)]
        )
        tasks = list(range(16))
        inline = [_csr_row_task({"csr": csr}, task) for task in tasks]
        with use_faults(plan), WorkerPool(2, policy=policy) as pool:
            results = pool.run(_csr_row_task, {"csr": csr}, tasks)
            stats = pool.stats.as_dict()
        assert results == inline
        assert stats["crashes"] >= 1
        assert stats["respawns"] >= 1

    def test_pool_takes_the_ambient_policy_when_built(self):
        ambient = SupervisePolicy(timeout=60.0, retries=0)
        explicit = SupervisePolicy(retries=4, degrade=False)
        with use_supervision(ambient):
            pool = WorkerPool(2)
            chosen = WorkerPool(2, policy=explicit)
        try:
            # Captured at construction, not looked up per map.
            assert pool.policy is ambient
            assert chosen.policy is explicit
        finally:
            pool.close()
            chosen.close()

    def test_runner_map_under_a_policy_matches_inline(self):
        tasks = list(range(10))
        inline = [_square_task({"offset": 2}, task) for task in tasks]
        with use_faults(None), use_supervision(SupervisePolicy(retries=1)):
            pooled = ParallelRunner(2).map(_square_task, {"offset": 2}, tasks)
        assert pooled == inline

    def test_runner_map_uses_the_ambient_policy(self):
        # The ambient policy reaches the pool ParallelRunner builds: with
        # no retry and no degradation, a certain crash surfaces as-is.
        policy = SupervisePolicy(retries=0, degrade=False)
        with use_faults(FaultPlan((FaultSpec("crash", 1.0),))), use_supervision(policy):
            with pytest.raises(WorkerCrashError):
                ParallelRunner(2).map(_square_task, {"offset": 0}, list(range(4)))


# ----------------------------------------------------------------------
# Replica checkpoints
# ----------------------------------------------------------------------


class TestReplicaStore:
    def _record(self, seed):
        return ExperimentRecord(experiment="t", config={"seed": seed})

    def test_round_trip(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        assert store.load(7) is None
        store.save(7, self._record(7))
        assert store.load(7) == self._record(7)
        assert store.completed_seeds() == [7]

    def test_wrong_scenario_or_seed_rejected(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        store.save(7, self._record(7))
        other = checkpoint.ReplicaStore(tmp_path, "stream-clean-control")
        assert other.load(7) is None
        # A file renamed to another seed is detected by the envelope.
        os.rename(store.path(7), store.path(8))
        assert store.load(8) is None

    def test_torn_file_treated_as_absent(self, tmp_path):
        store = checkpoint.ReplicaStore(tmp_path, "s")
        store.path(3).write_text('{"format": "repro-replica', encoding="utf-8")
        assert store.load(3) is None
        assert store.completed_seeds() == []


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


def _record_bytes(record) -> bytes:
    return json.dumps(record.as_dict(), sort_keys=True).encode()


class TestResume:
    def test_resume_skips_completed_replicas(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        kwargs = dict(seeds=2, overrides=TINY_DICTIONARY, workers=1)
        full = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        # Second run must not recompute anything: poison run_scenario.
        import repro.scenarios

        def explode(*args, **kw):  # pragma: no cover - failure mode
            raise AssertionError("resume recomputed a completed replica")

        monkeypatch.setattr(repro.scenarios, "run_scenario", explode)
        resumed = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        assert _record_bytes(resumed) == _record_bytes(full)

    def test_partial_checkpoints_complete_to_identical_bytes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        kwargs = dict(seeds=2, overrides=TINY_DICTIONARY, workers=1)
        full = replicate_scenario("dictionary-vs-none", **kwargs)
        # Pre-seed the store with replica 0 only; the resumed run must
        # compute replica 1 and pool to the uninterrupted bytes.
        store = checkpoint.ReplicaStore(tmp_path, "dictionary-vs-none")
        seeds = replica_seeds(0, 2)
        store.save(seeds[0], full.replicas[0])
        resumed = replicate_scenario(
            "dictionary-vs-none", checkpoint_dir=str(tmp_path), **kwargs
        )
        assert _record_bytes(resumed) == _record_bytes(full)
        assert store.completed_seeds() == sorted(seeds)


def _replicate_command(out: Path, resume: Path) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "replicate",
        "dictionary-vs-none",
        "--seeds",
        "3",
        "--workers",
        "2",
        "--resume",
        str(resume),
        "--out",
        str(out),
    ]
    for key, value in TINY_DICTIONARY.items():
        command += ["--set", f"{key}={value}"]
    return command


@pytest.mark.slow
def test_sigkill_mid_replicate_resumes_to_identical_bytes(tmp_path):
    """SIGKILL a replication mid-flight; ``--resume`` must reproduce
    the uninterrupted output byte-for-byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_FAULTS", None)
    # The uninterrupted reference.
    reference = tmp_path / "reference.json"
    done = subprocess.run(
        _replicate_command(reference, tmp_path / "ckpt-reference"),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    # The victim: killed as soon as its first replica checkpoints.
    out = tmp_path / "resumed.json"
    ckpt = tmp_path / "ckpt"
    stores_before = set(orphaned_stores())
    # Its own session, so the SIGKILL reaches the forked pool workers
    # too: killing only the parent would leave them asleep forever.
    victim = subprocess.Popen(
        _replicate_command(out, ckpt),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline and victim.poll() is None:
            if list(ckpt.glob("*.json")):
                break
            time.sleep(0.05)
    finally:
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:  # the whole group already exited
            pass
        victim.wait(timeout=60)
        # Under the disk backend the group kill skips the victim's
        # cleanup, so its (and its pool workers') store directories are
        # orphans: reclaim them here, by dead pid as ``repro gc`` does,
        # rather than leave them for a later test's janitor to find.
        # The orphaned workers count as alive until init reaps them, so
        # first wait for the victim's whole process group to be gone.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                os.killpg(victim.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        # Only stores orphaned since the victim started are touched.
        for path in set(orphaned_stores()) - stores_before:
            shutil.rmtree(path, ignore_errors=True)
    # Resume: loads the surviving checkpoints, runs the rest.
    resumed = subprocess.run(
        _replicate_command(out, ckpt),
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_bytes() == reference.read_bytes()
