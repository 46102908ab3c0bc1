"""The determinism contract, pinned by golden records.

Every record must be the same bytes under any store, worker count,
``PYTHONHASHSEED`` and fault schedule.  This module replays each
golden in ``tests/golden/`` (written by ``tools/regen_goldens.py``)
across a pairwise covering array of those axes plus ``PINNED``, the
exact cells the older differential suites checked, and compares the
``--out`` artifact byte for byte (``golden_cells.py`` runs a cell).
Cells with a pinned hash seed run in one background interpreter per
seed, a seed at a time, while the in-process cells run; a fault cell
whose entry fans out must record a crash or a timeout, the disk stores
of a hash-seed batch must be gone when it exits, and an in-process cell
must add no ``repro_shm_*`` entry to ``/dev/shm``.  The serve golden is replayed through the
library and the daemon.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from golden_cells import Cell, golden, run_cell
from repro.scenarios import get_scenario, scenario_names
from repro.serve import ServeClient, ServeConfig
from harness import serve_in_thread
from repro.storage import STORE_DIR_ENV, STORE_ENV

BATCH_TIMEOUT = 120  # seconds one hash seed's interpreter may take (it needs ~10)

GOLDENS = {path.stem: json.loads(path.read_text()) for path in sorted(golden.GOLDEN_DIR.glob("*.json"))}
ENTRIES = tuple(name for name in GOLDENS if name != golden.SERVE)
INPROC = "in-process"
STORES = ("memory", "disk")
AXES = {"entry": ENTRIES, "store": STORES, "workers": (1, 2, 3),
        "hashseed": (INPROC, "0", "1"), "faults": ("off", "crash", "hang")}


def covering_array(entries) -> list[Cell]:
    """Three cells per entry covering every pair of axis values: row
    ``j`` of entry ``e`` takes workers ``j``, hash seed ``j + e`` and
    faults ``j + 2e`` (mod 3), orthogonal Latin squares once ``e`` runs
    through every residue; the store alternates against them."""
    S, W, H, F = (AXES[a] for a in ("store", "workers", "hashseed", "faults"))
    return [Cell(entry, S[(e // 2 + j + (j == 2)) % 2], W[j], H[(j + e) % 3], F[(j + 2 * e) % 3])
            for e, entry in enumerate(entries) for j in range(3)]


def _pins(leg, entry, store=("memory",), workers=(1,), hashseed=(INPROC,), faults=("off",)):
    return [(Cell(entry, *cell), leg)
            for cell in itertools.product(store, workers, hashseed, faults)]


BATCH, FIG1, FIG5 = "dictionary-vs-none", "figure1-dictionary", "figure5-threshold"
REP_BATCH, REP_STREAM = "replicate-dictionary-vs-none", "replicate-stream-dictionary-ramp"
PINNED = [
    *_pins("storage: batch scenario across backends", BATCH, STORES),
    *_pins("storage: stream replication across backends", REP_STREAM, STORES),
    *_pins("storage: stream replication across workers", REP_STREAM, store=STORES, workers=(1, 2)),
    # A pooled fold map must not hand its workers the parent's live
    # SQLite table.
    *_pins("storage: private-pool fork safety", FIG5),
    *_pins("storage: private-pool fork safety", FIG5, store=("disk",), workers=(1, 2)),
    *_pins("storage: backends across hash seeds", REP_STREAM, hashseed=("0",)),
    *_pins("storage: backends across hash seeds", REP_STREAM, store=("disk",), hashseed=("1", "2")),
    *_pins("determinism: replication across hash seeds", REP_BATCH, hashseed=("0", "1")),
    *_pins("determinism: stream replication across hash seeds", REP_STREAM, hashseed=("0", "1")),
    *_pins("determinism: stream replication across workers", REP_STREAM, workers=(2,), hashseed=("1",)),
    *_pins("faults: scenario under faults", BATCH, workers=(2,), faults=("crash", "hang")),
    *_pins("faults: replicate under faults", REP_BATCH, workers=(2,), faults=("crash",)),
    *_pins("faults: stream replicate under faults", REP_STREAM, workers=(2,), faults=("crash",)),
    *_pins("replication: replica pool vs sequential", REP_BATCH, workers=(1, 2, 3, 4)),
    *_pins("replication: parallel nd sweep", BATCH, store=STORES, workers=(2, 3)),
    *_pins("replication: supervised parallel nd sweep", BATCH, store=STORES, workers=(2, 3), faults=("crash",)),
    *_pins("ndkernel: dictionary attacks", FIG1),
    *_pins("ndkernel: dictionary attacks across worker counts", FIG1, workers=(2,)),
    *_pins("ndkernel: stream defenses", "stream-dictionary-ramp"),
    *_pins("ndkernel: stream defenses", "stream-threshold-over-time"),
    *_pins("ndkernel: dictionary attacks across hash seeds", FIG1, hashseed=("0", "1")),
]
"""Every exact combination a retired differential leg checked, with the
leg it stands for (CHANGES.md maps each removed test to these)."""

CELLS = list(dict.fromkeys(covering_array(ENTRIES) + [cell for cell, _ in PINNED]))
IN_PROCESS = [cell for cell in CELLS if cell.hashseed == INPROC]
SUBPROCESS = [cell for cell in CELLS if cell.hashseed != INPROC]


def _shm_segments() -> list[str]:
    # The prefix the deleted shared-memory corpus transport used: a
    # pooled map ships its corpus by value and publishes nothing.
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith("repro_shm_"))


def _assert_faults_fired(cell: Cell, tally: dict) -> None:
    """A standalone stream and Table 1 run inline at any worker count;
    every other entry fans out at two workers, and then a fault must
    have fired."""
    if cell.faults == "off":
        return
    spec = GOLDENS[cell.entry]
    inline = spec["command"] == "run-scenario" and get_scenario(spec["scenario"]).protocol in ("stream", "table1")
    pooled = cell.workers > 1 and not inline
    assert (tally.get("maps", 0) > 0) == pooled, tally
    assert not pooled or tally.get("crashes", 0) + tally.get("timeouts", 0) >= 1, tally


@pytest.mark.parametrize("cell", IN_PROCESS, ids=[cell.id for cell in IN_PROCESS])
def test_cell_matches_golden(cell, tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
    segments = _shm_segments()
    artifact, tally = run_cell(GOLDENS[cell.entry], cell)
    assert golden.compare(GOLDENS[cell.entry], artifact) is None
    _assert_faults_fired(cell, tally)
    assert _shm_segments() == segments


@pytest.fixture(scope="module")
def serve_workload():
    return golden.serve_workload()


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("mode", ("library", "unbatched", "coalesced", "pooled"))
def test_serve_scores_match_golden(mode, store, serve_workload, tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_ENV, store)
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
    train, score = serve_workload
    if mode == "library":
        scores = golden.library_scores(train, score)
    else:
        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                             batch_window_ms={"unbatched": 0.0, "coalesced": 25.0, "pooled": 10.0}[mode],
                             workers=2 if mode == "pooled" else 1)
        with serve_in_thread(config) as service, ServeClient(service.address) as client:
            for tokens, is_spam in train:
                client.train(tokens, is_spam)
            if mode == "unbatched":
                scores = [client.score(tokens) for tokens in score]
            else:  # all in flight at once, so the window coalesces them
                ids = [client.send("score", tokens=tokens) for tokens in score]
                replies = [client.recv(request_id) for request_id in ids]
                scores = [reply["score"] for reply in replies]
                assert mode != "coalesced" or max(reply["batch"] for reply in replies) > 1
    assert golden.compare_scores(GOLDENS[golden.SERVE], scores) is None


# ----------------------------------------------------------------------
# Meta: the array, the pins and the goldens themselves
# ----------------------------------------------------------------------


def test_covering_array_covers_every_pair():
    missing = [
        (left, x, right, y)
        for (a, left), (b, right) in itertools.combinations(enumerate(AXES), 2)
        for x in AXES[left] for y in AXES[right]
        if not any(cell[a] == x and cell[b] == y for cell in CELLS)
    ]
    assert missing == []


def test_every_pinned_cell_is_present():
    assert [cell for cell, _ in PINNED if cell not in CELLS] == []


def test_goldens_match_the_registry():
    # A newly registered scenario fails here until its golden exists.
    commands = {name: GOLDENS[name]["command"] for name in ENTRIES}
    assert {name for name, command in commands.items() if command == "run-scenario"} == set(scenario_names())
    replicated = [GOLDENS[name]["scenario"] for name, command in commands.items() if command == "replicate"]
    assert sorted(get_scenario(name).protocol for name in replicated) == ["dictionary-sweep", "stream"]
    assert set(GOLDENS) == {*golden.ENTRIES, golden.SERVE}


@pytest.mark.parametrize("name", ENTRIES)
def test_golden_describes_itself(name):
    stored, spec = GOLDENS[name], golden.golden_spec(name)
    assert {key: stored[key] for key in spec} == spec
    assert golden.compare(stored, json.dumps(stored["record"], indent=2).encode()) is None


def test_compare_names_the_entry_and_the_changed_float():
    record = json.loads(json.dumps(GOLDENS[FIG1]["record"]))
    record["series"][1]["points"][1]["ham_as_spam_rate"] += 0.125
    problem = golden.compare(GOLDENS[FIG1], json.dumps(record, indent=2).encode())
    assert problem.startswith(f"{FIG1}: record differs from golden at $.series[1].points[1].ham_as_spam_rate")


def test_check_flags_a_stale_golden(tmp_path):
    # As if regenerated by code that moved one rate.
    stale = json.loads(json.dumps(GOLDENS[BATCH]))
    stale["record"]["series"][0]["points"][0]["spam_as_spam_rate"] = 0.5
    stale["sha256"] = hashlib.sha256(json.dumps(stale["record"], indent=2).encode()).hexdigest()
    golden.golden_path(BATCH, tmp_path).write_text(golden.golden_text(stale))
    (problem,) = golden.check([BATCH], tmp_path)
    assert problem.startswith(f"{BATCH}: record differs from golden at $.series[0].points[0].spam_as_spam_rate")


# ----------------------------------------------------------------------
# Hash-seed cells: one background interpreter per seed
# ----------------------------------------------------------------------


def _launch_batch(cells: list[Cell], batch: Path) -> subprocess.Popen:
    """Start a fresh interpreter, in its own session, that runs ``cells``
    under their hash seed with its disk stores rooted in ``batch``."""
    batch.mkdir()
    (batch / "cells.json").write_text(json.dumps([list(cell) for cell in cells]))
    env = {**os.environ, "PYTHONHASHSEED": cells[0].hashseed, STORE_DIR_ENV: str(batch)}
    with open(batch / "stderr.txt", "w") as stderr:
        return subprocess.Popen([sys.executable, str(Path(__file__).with_name("golden_cells.py")), str(batch)],
                                env=env, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)


def _kill(process: subprocess.Popen) -> None:
    """Kill a batch still running, pool workers included."""
    if process.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()


@pytest.fixture(scope="module", autouse=True)
def seed_batches(request, tmp_path_factory):
    """Start the selected hash-seed cells as the module starts: one
    interpreter per seed, one seed at a time, so the batches take one
    core beside the in-process cells.  A batch that has not exited
    ``BATCH_TIMEOUT`` seconds after it started is killed.  Yield a
    function that waits for the batches and returns a cell's result and
    any store directory its batch left behind.  Teardown kills a batch
    still running and starts no other."""
    batches, workdir, results = {}, tmp_path_factory.mktemp("hashseeds"), {}
    for item in request.session.items:
        if getattr(item, "originalname", None) == "test_hash_seed_cell_matches_golden":
            cell = item.callspec.params["cell"]
            batches.setdefault(cell.hashseed, []).append(cell)
    processes, lock, stopping = {}, threading.Lock(), threading.Event()

    def run_in_turn():
        for seed, cells in batches.items():
            with lock:
                if stopping.is_set():
                    return
                process = processes[seed] = _launch_batch(cells, workdir / seed)
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=BATCH_TIMEOUT)
            _kill(process)

    runner = threading.Thread(target=run_in_turn, daemon=True)
    runner.start()

    def result(cell: Cell) -> tuple[dict, list[str]]:
        batch = workdir / cell.hashseed
        if cell not in results:
            runner.join()
            # Exiting by itself is part of the contract: an interpreter
            # that hangs at exit after a killed pool is a defect.
            returncode = processes[cell.hashseed].returncode
            assert returncode == 0, f"batch exited {returncode}: {(batch / 'stderr.txt').read_text()}"
            results.update(zip(batches[cell.hashseed], json.loads((batch / "results.json").read_text())))
        return results[cell], sorted(path.name for path in batch.glob("repro_store_*"))

    yield result
    stopping.set()
    with lock:
        for process in processes.values():
            _kill(process)
    runner.join()


@pytest.mark.slow
@pytest.mark.parametrize("cell", SUBPROCESS, ids=[cell.id for cell in SUBPROCESS])
def test_hash_seed_cell_matches_golden(cell, seed_batches):
    result, leftover = seed_batches(cell)
    assert (result["hashseed"], result["mismatch"]) == (cell.hashseed, None)
    _assert_faults_fired(cell, result["tally"])
    assert cell.store != "disk" or leftover == []
