"""Render golden records in one cell of the determinism matrix.

The machinery behind ``tests/test_golden.py``.  A :class:`Cell` names a
golden entry, a store, a worker count, a hash seed and a fault mode; :func:`run_cell` renders the entry's record under the cell
in this process.  Run as a script, this file renders every cell that
``<batch-dir>/cells.json`` lists and writes ``results.json`` beside it,
in a fresh interpreter whose hash seed the caller pinned:

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/golden_cells.py <batch-dir>
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, NamedTuple
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import regen_goldens as golden  # noqa: E402 (tools/ is not a package)

from repro.engine import runner, supervise  # noqa: E402 (regen_goldens puts src/ on the path)
from repro.engine.faults import FaultPlan, FaultSpec  # noqa: E402
from harness import use_faults  # noqa: E402


class Cell(NamedTuple):
    """One point of the determinism matrix."""

    entry: str
    store: str  # memory | disk
    workers: int
    hashseed: str  # "in-process" or a PYTHONHASHSEED value
    faults: str  # off | crash | hang

    @property
    def id(self) -> str:
        return f"{self.entry}-{self.store}-w{self.workers}-h{self.hashseed}-{self.faults}"


def fault_setup(mode: str):
    """The (plan, policy) of a fault mode: ``crash`` kills about half
    the chunks of each attempt and retries on a respawned pool; ``hang``
    stalls about half far past a short deadline, so the wave times out,
    its workers die and the rest runs inline.

    Each pooled map has its own pool, so the first task of every map
    draws the same key on its first attempt; the plan takes the first
    seed that fires there, and so faults every pooled map at least once.
    """
    spec, policy = {
        "crash": (FaultSpec("crash", 0.5), supervise.SupervisePolicy(retries=2)),
        "hang": (FaultSpec("hang", 0.5, seconds=30.0), supervise.SupervisePolicy(timeout=0.1, retries=0)),
    }[mode]
    plans = (FaultPlan((spec,), seed=seed) for seed in itertools.count())
    return next(plan for plan in plans if plan.decide("worker-chunk", "0:0:0:0")), policy


def run_cell(entry: dict[str, Any], cell: Cell) -> tuple[bytes, dict[str, int]]:
    """``entry``'s artifact under ``cell`` in this process (whose hash
    seed it runs under), and a tally of pooled maps and of every
    ``SuperviseStats`` bump.  An ``off`` cell leaves an ambient
    ``REPRO_FAULTS`` plan in force."""
    tally: Counter = Counter()
    bump, run = supervise.SuperviseStats.bump, runner.WorkerPool.run

    def counting_bump(self, name, count=1):
        tally[name] += count
        bump(self, name, count)

    def counting_run(self, fn, context, tasks):
        tally["maps"] += 1
        return run(self, fn, context, tasks)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(supervise.SuperviseStats, "bump", counting_bump))
        stack.enter_context(mock.patch.object(runner.WorkerPool, "run", counting_run))
        stack.enter_context(mock.patch.dict(os.environ, REPRO_STORE=cell.store))
        if cell.faults != "off":
            plan, policy = fault_setup(cell.faults)
            stack.enter_context(use_faults(plan))
            stack.enter_context(supervise.use_supervision(policy))
        artifact = golden.render(entry, cell.workers)
    return artifact, dict(tally)


def run_batch(batch: Path) -> None:
    """Run the cells of ``<batch>/cells.json`` here; write ``results.json``."""
    results = []
    for fields in json.loads((batch / "cells.json").read_text()):
        entry = golden.load_golden(fields[0])
        artifact, tally = run_cell(entry, Cell(*fields))
        results.append({"hashseed": os.environ.get("PYTHONHASHSEED"),
                        "mismatch": golden.compare(entry, artifact), "tally": tally})
    (batch / "results.json").write_text(json.dumps(results))


if __name__ == "__main__":
    run_batch(Path(sys.argv[1]))
