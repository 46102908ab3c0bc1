"""Deterministic, seed-driven fault injection for the execution engine.

Production mail systems treat worker death as routine; this library's
engine must too — but a failure path that is never executed is a
failure path that does not work.  This module makes the engine's
failure paths *routinely executable*: a :class:`FaultPlan` describes,
as pure data, which faults fire where, and the engine's worker
entrypoints call :func:`inject` at named **sites** so a test (or a CI
leg) can kill a worker mid-chunk or stall a chunk past its deadline —
on demand, reproducibly.

Activation
----------

Two equivalent routes:

* the ``REPRO_FAULTS`` environment variable, e.g.
  ``REPRO_FAULTS="crash:p=0.2,hang:p=0.05:s=0.5,seed=7"`` — parsed
  once per distinct value, inherited by forked workers, which is what
  lets a *worker-side* site fire in a process the parent never talks
  to directly;
* programmatically, by patching the module-global ``_installed_plan``
  for the duration of a block (how the tests install a plan; a pool
  forked inside the block inherits it).

Determinism
-----------

Every fire/skip decision is a pure function of ``(plan seed, mode,
site, key)``: the first 8 bytes of a SHA-256 digest, scaled to [0, 1)
and compared against the fault's probability.  No RNG state, no wall
clock — the same plan over the same keys fires the same faults, run
after run.  Supervision keys include the retry attempt number, so a
chunk that crashed on attempt 0 draws a *fresh* decision on attempt 1
(otherwise a crash fault would chase its own retries forever), while
``p=1.0`` still forces the fault on every attempt — the
retries-exhausted degradation path.

The harness never fires in inline execution: injection sites live in
the pool worker entrypoints, so a sequential (``workers=1``) run is
always the clean reference the differential fault suite compares
against.

Faults
------

``crash``
    ``os._exit(13)`` — the worker dies without unwinding, exactly like
    a SIGKILL'd or segfaulted child.  The pool breaks
    (``BrokenProcessPool``); supervision respawns it.
``hang``
    ``time.sleep(s)`` (default 0.25s) — the chunk stalls past its
    deadline but *would* eventually complete, the classic wedged
    worker.  With no deadline configured the run merely slows down,
    which is why hang injection alone can never corrupt results.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "inject",
    "parse_faults",
]

FAULTS_ENV = "REPRO_FAULTS"
"""Environment spec, e.g. ``crash:p=0.1,hang:p=0.05:s=0.5,seed=3``."""

MODES: tuple[str, ...] = ("crash", "hang")
"""The fault modes a :class:`FaultSpec` can carry."""

CRASH_EXIT_CODE = 13
"""The ``os._exit`` status an injected crash dies with — distinctive
enough that a test can tell an injected death from a real one."""

# The injection sites every mode applies to: both fire inside worker
# processes as a chunk (or a whole stream task) executes.
_SITES: tuple[str, ...] = ("worker-chunk", "stream-task")


@dataclass(frozen=True)
class FaultSpec:
    """One fault clause: a mode, a probability, and its parameters."""

    mode: str
    p: float
    seconds: float = 0.25
    """Stall duration for ``hang``; ignored by the other modes."""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; known: {', '.join(MODES)}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.p}"
            )
        if self.seconds < 0:
            raise ConfigurationError(
                f"hang duration must be >= 0, got {self.seconds}"
            )


def _draw(seed: int, mode: str, site: str, key: str) -> float:
    """The deterministic [0, 1) decision value for one (site, key)."""
    digest = hashlib.sha256(f"{seed}|{mode}|{site}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault clauses; decisions are pure hash draws."""

    specs: tuple[FaultSpec, ...]
    seed: int = 0

    def decide(self, site: str, key: str) -> FaultSpec | None:
        """The first clause that fires at ``(site, key)``, if any."""
        if site not in _SITES:
            return None
        for spec in self.specs:
            if _draw(self.seed, spec.mode, site, key) < spec.p:
                return spec
        return None

    def __bool__(self) -> bool:
        return any(spec.p > 0 for spec in self.specs)


def parse_faults(text: str | None) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS`` value; ``None``/empty means no plan.

    Grammar: comma-separated clauses.  Each fault clause is
    ``mode[:param=value]*`` (params: ``p`` for all modes, ``s`` —
    stall seconds — for ``hang``); a bare ``seed=N`` clause seeds the
    whole plan's decision hashes.
    """
    if text is None:
        return None
    text = text.strip()
    if not text:
        return None
    specs: list[FaultSpec] = []
    seed = 0
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ConfigurationError(
                    f"{FAULTS_ENV}: bad seed clause {clause!r}"
                ) from None
            continue
        mode, _, rest = clause.partition(":")
        params: dict[str, float] = {}
        if rest:
            for pair in rest.split(":"):
                name, separator, raw = pair.partition("=")
                if not separator:
                    raise ConfigurationError(
                        f"{FAULTS_ENV}: expected param=value in {clause!r}, "
                        f"got {pair!r}"
                    )
                try:
                    params[name.strip()] = float(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{FAULTS_ENV}: bad value for {name!r} in {clause!r}"
                    ) from None
        unknown = set(params) - {"p", "s"}
        if unknown:
            raise ConfigurationError(
                f"{FAULTS_ENV}: unknown param(s) {sorted(unknown)} in {clause!r}"
            )
        specs.append(
            FaultSpec(
                mode=mode.strip(),
                p=params.get("p", 1.0),
                seconds=params.get("s", 0.25),
            )
        )
    if not specs:
        return None
    return FaultPlan(specs=tuple(specs), seed=seed)


# ----------------------------------------------------------------------
# The active plan
# ----------------------------------------------------------------------

# Programmatic override.  Module-global rather than
# thread-local on purpose: worker processes fork the whole module
# state, so a plan installed before a pool starts is live inside its
# workers too.  _UNSET means "no override, consult the environment";
# an installed None means "explicitly no faults" — how a differential
# test runs its clean reference while REPRO_FAULTS is exported.
_UNSET: Any = object()
_installed_plan: "FaultPlan | None | Any" = _UNSET
# parse_faults cache keyed by the raw env string — the env is read on
# every decision (workers inherit it through fork OR through an
# explicitly-set environment), but parsed once per distinct value.
_env_cache: tuple[str | None, FaultPlan | None] = (None, None)


def active_plan() -> FaultPlan | None:
    """The plan in force: programmatic override, else ``REPRO_FAULTS``."""
    global _env_cache
    if _installed_plan is not _UNSET:
        return _installed_plan
    text = os.environ.get(FAULTS_ENV)
    if text != _env_cache[0]:
        _env_cache = (text, parse_faults(text))
    return _env_cache[1]


# True only in pool worker processes (set by the pool initializer
# after the fork).  crash/hang sites are worker-only: inline execution
# — sequential runs, and the supervisor's degraded fallback — must
# stay the clean reference the differential suite compares against,
# and an injected os._exit in the parent would take the whole run.
_is_worker = False


def mark_worker_process() -> None:
    """Declare this process a pool worker (called by the pool initializer)."""
    global _is_worker
    _is_worker = True


def inject(site: str, key: str) -> None:
    """Fire the active plan's verdict for ``(site, key)``, if any.

    ``crash`` never returns (``os._exit``); ``hang`` sleeps and
    returns; no plan, or a skip draw, is a no-op.  Worker-side only:
    outside a pool worker process this is unconditionally a no-op.
    """
    if not _is_worker:
        return
    plan = active_plan()
    if plan is None:
        return
    spec = plan.decide(site, key)
    if spec is None:
        return
    if spec.mode == "crash":
        # Die like a SIGKILL'd child: no unwinding, no atexit, no
        # finally blocks — the supervisor must cope with the mess.
        os._exit(CRASH_EXIT_CODE)
    elif spec.mode == "hang":
        time.sleep(spec.seconds)
