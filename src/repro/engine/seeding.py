"""Deterministic per-task seeding for the engine.

Parallel execution must not change results, which means every unit of
parallel work (a fold, a repetition, a RONI calibration) needs a seed
that is a pure function of *what the task is*, never of *which worker
runs it* or *when*.  Two mechanisms cover every case in this repo:

* **labelled spawning** — hash a parent seed with a stable string
  label (:func:`repro.rng.spawn_seed` via :class:`repro.rng.SeedSpawner`,
  used directly).  Applies when the sequential code already gave each
  task its own labelled stream (RONI repetitions, focused-attack
  repetitions): labels are worker-independent by construction.
* **planned draw sequences** (:func:`drawn_seeds`) — when the
  sequential code interleaved ``rng.getrandbits(64)`` calls with the
  work (the fold loops of the attack sweeps), the engine replays the
  *same* draws in the *same* order up front and hands each task its
  pre-drawn seed.  Sequential and parallel runs then consume the parent
  stream identically, so results are bit-for-bit equal.

Either way a scenario's JSON record is the same at ``--workers N`` and
``--workers 1``.
"""

from __future__ import annotations

import random

from repro.errors import EngineError
from repro.rng import DEFAULT_SEED

__all__ = ["drawn_seeds", "resolve_root_seed"]


def drawn_seeds(rng: random.Random, count: int) -> list[int]:
    """Pre-draw ``count`` 64-bit task seeds from ``rng``.

    Replays the draw pattern of the sequential fold loops — one
    ``getrandbits(64)`` per fold, in fold order — so an engine that
    plans tasks up front leaves ``rng`` in exactly the state the
    sequential implementation would.
    """
    if count < 0:
        raise EngineError(f"cannot draw {count} seeds")
    return [rng.getrandbits(64) for _ in range(count)]


def resolve_root_seed(value: str | int | None, default: int = 0) -> int:
    """Parse a root seed from CLI/environment input.

    ``None`` or an empty string selects ``default``; the string
    ``"default"`` selects :data:`repro.rng.DEFAULT_SEED`; anything else
    must parse as an integer.
    """
    if value is None:
        return default
    if isinstance(value, int):
        return value
    text = value.strip()
    if not text:
        return default
    if text.lower() == "default":
        return DEFAULT_SEED
    try:
        return int(text, 0)
    except ValueError as exc:
        raise EngineError(f"root seed must be an integer, got {value!r}") from exc
