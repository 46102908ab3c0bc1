"""Declarative experiment scenarios: spec → registry → executor.

The paper's experiments — and every composed attack × defense study
since — are *scenarios*: a frozen :class:`ScenarioSpec` (protocol,
config dataclass, default overrides, attack/defense coordinates) in a
process-safe registry, executed by one generic :func:`run_scenario`.

    from repro.scenarios import run_scenario, list_scenarios

    for spec in list_scenarios():
        print(spec.name, "-", spec.title)
    outcome = run_scenario("figure1-dictionary", overrides={"folds": 2})
    print(outcome.record_dict())

``python -m repro run-scenario <name> [--set key=value ...]`` exposes
the same path from a shell; each paper figure is one registered
scenario (``figure1-dictionary``, ``figure5-threshold``, …).  Adding
a new composition is a ~20-line :func:`register_scenario` call — see
:mod:`repro.scenarios.builtin` for the catalogue and
``docs/experiments.md`` for a how-to.

Each paper experiment is one module here — config, result, picklable
workers, protocol and renderer — and :data:`PROTOCOLS` maps each
protocol name to its run function and renderer.

Any registered scenario also replicates over seeds with zero
per-scenario code: :func:`replicate_scenario` (over the
:mod:`repro.engine.replicate` layer; CLI
``python -m repro replicate <name> --seeds N``) runs it at N derived
root seeds — one whole replica per worker process — and pools the
records into a :class:`~repro.experiments.results.ReplicatedRecord`
with per-point mean/std/95%-CI error bars.
"""

from repro.engine.replicate import replica_seeds
from repro.scenarios.builtin import BUILTIN_SCENARIOS, register_builtin_scenarios
from repro.scenarios.executor import ScenarioOutcome, replicate_scenario, run_scenario
from repro.scenarios.protocols import PreparedInbox, prepare_inbox
from repro.scenarios.registry import (
    PROTOCOLS,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import ScenarioSpec

register_builtin_scenarios()

__all__ = [
    "BUILTIN_SCENARIOS",
    "PROTOCOLS",
    "PreparedInbox",
    "ScenarioOutcome",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "prepare_inbox",
    "register_builtin_scenarios",
    "register_scenario",
    "replica_seeds",
    "replicate_scenario",
    "run_scenario",
    "scenario_names",
]
