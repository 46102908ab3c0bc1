"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary
without swallowing genuine programming errors (``TypeError``,
``KeyError``, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CorpusError",
    "MessageParseError",
    "TrainingError",
    "AttackError",
    "DefenseError",
    "EngineError",
    "ExperimentError",
    "MapTimeoutError",
    "PersistenceError",
    "ProtocolError",
    "ScenarioError",
    "ServeError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or combination of parameters was supplied."""


class CorpusError(ReproError):
    """A corpus could not be built, sampled, or loaded."""


class MessageParseError(ReproError):
    """Raw email text could not be parsed into an :class:`~repro.spambayes.message.Email`."""


class TrainingError(ReproError):
    """The classifier was asked to do something inconsistent.

    The canonical example is unlearning a message that was never
    learned, which would corrupt token counts.
    """


class AttackError(ReproError):
    """An attack could not be constructed with the given knowledge."""


class DefenseError(ReproError):
    """A defense could not be applied (e.g. not enough calibration data)."""


class EngineError(ReproError):
    """The parallel execution engine was misconfigured or a worker failed."""


class _SupervisedMapError(EngineError):
    """Base for supervised-map failures that carry chunk provenance.

    ``chunk_starts`` are the task-order offsets of the chunks that
    never completed, ``attempts`` is how many times the supervisor
    retried the map before giving up, and ``provenance`` is a short
    rendering of the first unfinished task (for fold tasks that names
    the spec key, fold index and attack seed) — enough to re-run the
    failing unit standalone.
    """

    def __init__(
        self,
        message: str,
        *,
        chunk_starts: tuple[int, ...] = (),
        attempts: int = 0,
        provenance: str | None = None,
    ) -> None:
        detail = message
        if chunk_starts:
            detail += f" [unfinished chunk offsets: {list(chunk_starts)}]"
        if attempts:
            detail += f" [attempts: {attempts}]"
        if provenance:
            detail += f" [first unfinished task: {provenance}]"
        super().__init__(detail)
        self.chunk_starts = tuple(chunk_starts)
        self.attempts = attempts
        self.provenance = provenance


class WorkerCrashError(_SupervisedMapError):
    """A worker process died (pool broke) and the retry budget ran out."""


class MapTimeoutError(_SupervisedMapError):
    """A map's chunks missed their deadline and the retry budget ran out."""


class ExperimentError(ReproError):
    """An experiment driver received an invalid or inconsistent setup."""


class PersistenceError(ReproError):
    """A classifier database could not be saved or restored."""


class ScenarioError(ReproError):
    """A scenario definition, lookup, or override was invalid."""


class ServeError(ReproError):
    """The filter service could not start, stopped unexpectedly, or a
    client request could not be completed."""


class ProtocolError(ServeError):
    """A wire frame violated the serve protocol.

    Covers framing faults (truncated or oversized frames), payloads
    that are not JSON objects, and requests whose verb or fields do not
    match the grammar.  The daemon answers each with a one-line
    structured error envelope and keeps serving — a malformed client
    must never take the service down.
    """
