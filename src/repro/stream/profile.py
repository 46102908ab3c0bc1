"""Per-tick phase timing for the streaming tick loop.

The tick loop has four recurring phases — ``train`` (arrival slicing,
attack generation and the incremental retrain), ``defense`` (the gate
plus any cutoff refit), ``eval`` (the held-out bulk scoring pass) and
``counterfactual`` (maintaining and evaluating the no-poison clean
twin) — plus a one-off
``prepare`` step (corpus generation and test-set encoding).  With
``StreamSpec.profile_phases`` set, :class:`~repro.stream.runner.
StreamRunner` wraps each phase with :func:`time.perf_counter` and
attaches the resulting :class:`StreamProfile` to its
:class:`~repro.stream.runner.StreamResult` — *outside* the serialized
record, because wall-clock timings are the one thing the engine's
byte-identical-records contract must never depend on.

The profile is what makes stream perf work measurable rather than
asserted: ``repro run-scenario <stream-*> --profile`` renders it, and
``tests/test_stream_clean_twin.py`` asserts that on a long-horizon
stream the phases explain at least 70% of the measured wall time.
Whole-run performance is measured by ``e2ebench/run.py`` (the
``roni-stream`` workload reports the stream phases).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["PHASES", "PhaseTimer", "StreamProfile"]

PHASES: tuple[str, ...] = ("train", "defense", "eval", "counterfactual")
"""The recurring tick-loop phases, in reporting order."""


@dataclass
class StreamProfile:
    """Wall-clock accounting of one played stream, phase by phase.

    ``per_tick[i]`` maps each of :data:`PHASES` to tick ``i+1``'s
    seconds; ``prepare_seconds`` covers the one-off setup before the
    loop and ``total_seconds`` the whole :meth:`~repro.stream.runner.StreamRunner.run` call,
    so ``accounted_fraction()`` exposes how much of the run the phase
    timers explain (loop scaffolding and record assembly are the only
    unattributed remainder).
    """

    per_tick: list[dict[str, float]] = field(default_factory=list)
    prepare_seconds: float = 0.0
    total_seconds: float = 0.0

    def phase_totals(self) -> dict[str, float]:
        """Seconds per phase summed over every tick."""
        totals = {phase: 0.0 for phase in PHASES}
        for tick in self.per_tick:
            for phase, seconds in tick.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def accounted_seconds(self) -> float:
        """Prepare plus every timed phase — the explained wall time."""
        return self.prepare_seconds + sum(self.phase_totals().values())

    def accounted_fraction(self) -> float:
        """Explained share of ``total_seconds`` (1.0 when untimed)."""
        if self.total_seconds <= 0.0:
            return 1.0
        return self.accounted_seconds() / self.total_seconds

    def render(self) -> str:
        """ASCII phase table: one row per tick plus totals."""
        headers = ["tick", *PHASES, "tick total"]
        rows: list[list[str]] = []
        for index, tick in enumerate(self.per_tick, start=1):
            seconds = [tick.get(phase, 0.0) for phase in PHASES]
            rows.append(
                [str(index)]
                + [f"{value * 1e3:.2f}" for value in seconds]
                + [f"{sum(seconds) * 1e3:.2f}"]
            )
        totals = self.phase_totals()
        rows.append(
            ["all"]
            + [f"{totals[phase] * 1e3:.2f}" for phase in PHASES]
            + [f"{sum(totals.values()) * 1e3:.2f}"]
        )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            for i in range(len(headers))
        ]
        lines = [
            "phase timings (ms per tick)",
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        ]
        lines.extend(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        )
        lines.append(
            f"prepare {self.prepare_seconds * 1e3:.2f} ms, "
            f"wall {self.total_seconds * 1e3:.2f} ms, "
            f"accounted {self.accounted_fraction() * 100.0:.1f}%"
        )
        return "\n".join(lines)


class PhaseTimer:
    """Accumulates phase seconds into a :class:`StreamProfile`.

    Disabled timers hand out one shared no-op context manager, so the
    un-profiled tick loop pays a single attribute load per phase —
    the profiling hooks cost effectively nothing when off.
    """

    def __init__(self, enabled: bool) -> None:
        self.profile: StreamProfile | None = StreamProfile() if enabled else None
        self._tick: dict[str, float] | None = None

    @contextmanager
    def _null(self) -> Iterator[None]:
        yield

    def phase(self, name: str):
        if self.profile is None:
            return self._null()
        return self._measure(name)

    @contextmanager
    def _measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if name == "prepare":
                self.profile.prepare_seconds += elapsed
            else:
                tick = self._tick
                if tick is not None:
                    tick[name] = tick.get(name, 0.0) + elapsed

    def start_tick(self) -> None:
        if self.profile is not None:
            self._tick = {}
            self.profile.per_tick.append(self._tick)

    def finish(self, total_seconds: float) -> StreamProfile | None:
        if self.profile is not None:
            self.profile.total_seconds = total_seconds
        return self.profile
