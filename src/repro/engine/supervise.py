"""Worker supervision policy: deadlines, bounded retry, degradation.

Every pooled map runs supervised (see :class:`repro.engine.runner.WorkerPool`,
which implements the recovery ladder).  This module holds what the pool
is told and what it reports:

* :class:`SupervisePolicy` — the per-wave deadline, the retry budget and
  the endgame (inline degradation, or a structured error);
* :class:`SuperviseStats` — the thread-safe ledger of crashes, timeouts,
  respawns, retried and degraded chunks;
* ambient resolution — which policy a pool built without one uses;
* :func:`resolve_workers` — the pool width a ``--workers`` value means
  (here rather than in the runner, so a command line can validate the
  value without importing the process pool).

Resolution
----------

:func:`use_supervision` installs a policy thread-locally (the CLI's
``--timeout``/``--retries`` path).  Otherwise the environment supplies
one (``REPRO_TIMEOUT``, ``REPRO_RETRIES``, ``REPRO_DEGRADE``), and with
none of those set the defaults apply: no deadline, two retries, then
degrade.  :func:`current_policy` therefore always returns a policy;
supervision has no off state.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import EngineError

__all__ = [
    "DEFAULT_RETRIES",
    "SupervisePolicy",
    "SuperviseStats",
    "current_policy",
    "policy_from_env",
    "resolve_workers",
    "use_supervision",
]

TIMEOUT_ENV = "REPRO_TIMEOUT"
"""Per-wave chunk deadline in seconds (float; empty/unset = none)."""
RETRIES_ENV = "REPRO_RETRIES"
"""Respawn-and-retry rounds per map call before degradation."""
DEGRADE_ENV = "REPRO_DEGRADE"
"""Set to ``0`` to raise after exhausted retries instead of running
the remaining chunks inline."""

DEFAULT_RETRIES = 2
"""Retry rounds when no count is configured."""


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``--workers`` value: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(f"workers must be >= 0 (0 = all CPUs), got {workers}")
    return workers


@dataclass(frozen=True)
class SupervisePolicy:
    """How a supervised map treats its workers.

    ``timeout`` is the deadline, in seconds, for one dispatch wave of
    chunks — queueing included, so size it for the map, not for one
    task.  ``retries`` bounds how many respawn-and-retry rounds a map
    may consume.  ``degrade`` selects the endgame: inline sequential
    execution of whatever never completed (default), or a structured
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.MapTimeoutError`.
    """

    timeout: float | None = None
    retries: int = DEFAULT_RETRIES
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise EngineError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.retries < 0:
            raise EngineError(f"retries must be >= 0, got {self.retries}")


class SuperviseStats:
    """Thread-safe counters of what supervision had to do.

    Observability for tests and post-mortems: a differential fault run
    asserts not only that the records match but that faults actually
    fired (``crashes``/``timeouts`` nonzero) — a fault suite that
    silently stopped injecting proves nothing.
    """

    _FIELDS = (
        "crashes",
        "timeouts",
        "respawns",
        "retried_chunks",
        "degraded_chunks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SuperviseStats({inner})"


# ----------------------------------------------------------------------
# Ambient policy resolution
# ----------------------------------------------------------------------

_policy_local = threading.local()


def policy_from_env() -> SupervisePolicy:
    """The environment-default policy (the defaults where unset)."""
    timeout_raw = os.environ.get(TIMEOUT_ENV, "").strip()
    retries_raw = os.environ.get(RETRIES_ENV, "").strip()
    try:
        timeout = float(timeout_raw) if timeout_raw else None
    except ValueError:
        raise EngineError(f"{TIMEOUT_ENV} must be a number, got {timeout_raw!r}") from None
    try:
        retries = int(retries_raw) if retries_raw else DEFAULT_RETRIES
    except ValueError:
        raise EngineError(f"{RETRIES_ENV} must be an integer, got {retries_raw!r}") from None
    degrade = os.environ.get(DEGRADE_ENV, "").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )
    return SupervisePolicy(timeout=timeout, retries=retries, degrade=degrade)


@contextmanager
def use_supervision(policy: SupervisePolicy) -> Iterator[SupervisePolicy]:
    """Install ``policy`` for this thread's engine maps."""
    previous = getattr(_policy_local, "policy", None)
    _policy_local.policy = policy
    try:
        yield policy
    finally:
        _policy_local.policy = previous


def current_policy() -> SupervisePolicy:
    """The policy in force on this thread (override, else env default)."""
    override = getattr(_policy_local, "policy", None)
    return policy_from_env() if override is None else override
