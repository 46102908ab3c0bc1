"""The process-safe scenario registry.

One flat ``name -> ScenarioSpec`` mapping.  Process safety here means
*reproducibility across processes*, which the engine's worker fan-out
requires: the registry is populated deterministically at import time
(:mod:`repro.scenarios.builtin` registers the paper scenarios when the
package is imported), specs are immutable, and registration is guarded
by a lock plus a duplicate check — so every process that imports
:mod:`repro.scenarios` sees the identical catalogue, and a scenario
name means the same experiment everywhere (parent, worker, CLI, CI).

Scenarios name their protocol; :data:`PROTOCOLS` maps each protocol
name to the function that runs it and the renderer that prints its
result.  Registration validates the spec's ``protocol`` against that
table at registration time, not first-run time, so a typo in a new
scenario fails at import.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, NamedTuple

from repro.errors import ScenarioError
from repro.scenarios import (
    dictionary_exp,
    focused_exp,
    goodword_exp,
    roni_exp,
    table1_exp,
    threshold_exp,
    token_shift_exp,
)
from repro.scenarios.spec import ScenarioSpec
from repro.stream.runner import render_stream_result, run_stream_experiment

__all__ = [
    "PROTOCOLS",
    "Protocol",
    "get_protocol",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]


class Protocol(NamedTuple):
    """How one protocol runs a config and prints the result."""

    run: Callable[[Any], Any]
    render: Callable[[Any], str] | None
    """``None``: ``repro run-scenario`` prints the JSON record instead."""


PROTOCOLS: dict[str, Protocol] = {
    "dictionary-sweep": Protocol(
        dictionary_exp.run_dictionary_sweep, dictionary_exp.render_dictionary_result
    ),
    "focused-knowledge": Protocol(
        focused_exp.run_focused_knowledge, focused_exp.render_focused_knowledge_result
    ),
    "focused-size": Protocol(
        focused_exp.run_focused_size, focused_exp.render_focused_size_result
    ),
    "token-shift": Protocol(
        token_shift_exp.run_token_shift, token_shift_exp.render_token_shift_result
    ),
    "goodword-evasion": Protocol(goodword_exp.run_goodword_evasion, None),
    "roni-gate": Protocol(roni_exp.run_roni_gate, roni_exp.render_roni_result),
    "threshold-arms": Protocol(
        threshold_exp.run_threshold_arms, threshold_exp.render_threshold_result
    ),
    "table1": Protocol(table1_exp.run_table1, table1_exp.render_table1_result),
    # A stream is one sequential task; replication runs each replica's
    # stream in its own worker process.
    "stream": Protocol(run_stream_experiment, render_stream_result),
}
"""Protocol name -> run function and renderer, as scenario specs name them."""


def get_protocol(spec: ScenarioSpec) -> Protocol:
    """The protocol ``spec`` names; unknown names list the table."""
    protocol = PROTOCOLS.get(spec.protocol)
    if protocol is None:
        raise ScenarioError(
            f"scenario {spec.name!r} names unknown protocol {spec.protocol!r}; "
            f"known: {', '.join(sorted(PROTOCOLS))}"
        )
    return protocol


_REGISTRY: dict[str, ScenarioSpec] = {}
_LOCK = threading.Lock()


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry; returns it (decorator-friendly).

    Duplicate names are an error — scenarios are global coordinates,
    and silently replacing one would make the same name mean different
    experiments in different processes.
    """
    get_protocol(spec)
    with _LOCK:
        existing = _REGISTRY.get(spec.name)
        if existing is not None:
            if existing == spec:  # idempotent re-registration (re-imports)
                return existing
            raise ScenarioError(f"scenario {spec.name!r} is already registered")
        _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name; unknown names list the catalogue."""
    with _LOCK:
        spec = _REGISTRY.get(name)
    if spec is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    return spec


def scenario_names() -> list[str]:
    """Sorted names of every registered scenario."""
    with _LOCK:
        return sorted(_REGISTRY)


def list_scenarios(
    predicate: Callable[[ScenarioSpec], bool] | None = None,
) -> list[ScenarioSpec]:
    """Registered specs sorted by name, optionally filtered."""
    with _LOCK:
        specs: Iterable[ScenarioSpec] = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if predicate is not None:
        specs = [spec for spec in specs if predicate(spec)]
    return list(specs)
