"""The generic scenario executor.

``run_scenario`` is the one entry point every experiment runs
through: resolve the scenario (by name or spec), materialize its
config (defaults → overrides → seed/workers), dispatch to the
registered protocol, and wrap the outcome with its serializable
record.  Library callers and ``repro run-scenario`` take this path,
and :func:`replicate_scenario` hands it to the replication engine,
which runs it once per replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.engine.replicate import replicate_spec
from repro.errors import ScenarioError
from repro.experiments.results import ReplicatedRecord
from repro.scenarios.registry import get_protocol, get_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ScenarioOutcome", "replicate_scenario", "run_scenario"]


@dataclass
class ScenarioOutcome:
    """What one scenario run produced.

    ``result`` is the protocol's native result object (e.g.
    :class:`~repro.scenarios.dictionary_exp.DictionaryExperimentResult`);
    ``record`` is its serializable
    :class:`~repro.experiments.results.ExperimentRecord`, when the
    result type provides one.
    """

    spec: ScenarioSpec
    config: Any
    result: Any
    record: Any | None

    def record_dict(self) -> dict | None:
        """The record as a plain dict (JSON-ready), if available."""
        return None if self.record is None else self.record.as_dict()


def run_scenario(
    scenario: str | ScenarioSpec,
    *,
    config: Any | None = None,
    overrides: Mapping[str, Any] | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> ScenarioOutcome:
    """Execute a registered scenario and return its outcome.

    ``scenario`` is a registry name or a :class:`ScenarioSpec`.  Either
    pass a ready-made ``config`` (it must be an instance of the spec's
    ``config_type``), or let the executor build one from the
    spec's defaults plus ``overrides``/``seed``/``workers``.  Mixing
    both is an error — a pre-built config already fixes every knob.
    ``overrides`` may name any config field; when it names ``seed`` or
    ``workers``, the mapping entry wins over the same-named keyword
    (the mapping is the more specific user intent).
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    protocol = get_protocol(spec)
    if config is not None:
        if overrides or seed is not None or workers is not None:
            raise ScenarioError(
                "pass either a ready-made config or overrides/seed/workers, not both"
            )
        if not isinstance(config, spec.config_type):
            raise ScenarioError(
                f"scenario {spec.name!r} needs a {spec.config_type.__name__}, "
                f"got {type(config).__name__}"
            )
    else:
        merged = dict(overrides or {})
        if seed is not None and "seed" not in merged:
            merged["seed"] = seed
        if workers is not None and "workers" not in merged:
            merged["workers"] = workers
        config = spec.build_config(**merged)
    result = protocol.run(config)
    to_record = getattr(result, "to_record", None)
    record = to_record() if callable(to_record) else None
    return ScenarioOutcome(spec=spec, config=config, result=result, record=record)


def replicate_scenario(scenario: str | ScenarioSpec, **options: Any) -> ReplicatedRecord:
    """Run a scenario (by name or spec) at N seeds and pool the records.

    Each replica is one :func:`run_scenario` call; ``options`` are
    :func:`repro.engine.replicate.replicate_spec`'s (``seeds``,
    ``base_seed``, ``overrides``, ``workers``, ``base_config``,
    ``extra_config``, ``checkpoint_dir``).
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    return replicate_spec(spec, run_scenario, **options)
