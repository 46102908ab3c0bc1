"""The declarative scenario specification.

A :class:`ScenarioSpec` is everything needed to reproduce one
experiment *by name*: which protocol runs it, which config dataclass
parameterizes it (corpus sizes, attack grid, fold plan, seed — the
experiment configs are themselves frozen declarative objects), the
default overrides that distinguish this scenario from its siblings,
and the attack/defense/metric coordinates used for listing and
validation.

Specs are frozen and carry no live objects — no corpora, classifiers
or RNGs — so a registry of them is cheap to import in every worker
process and a spec can be rendered, diffed or logged without running
anything.  Execution lives in :mod:`repro.scenarios.executor`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import ReproError, ScenarioError

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, declarative experiment definition.

    ``protocol`` names an entry in
    :data:`repro.scenarios.registry.PROTOCOLS`; ``config_type`` is the
    experiment config dataclass the protocol consumes; ``defaults`` are
    field overrides applied on top of ``config_type``'s own defaults
    (this is what makes a cross-product scenario a ~20-line
    registration instead of a new driver).  ``attack_grid``,
    ``defense_stack`` and ``metrics`` are the scenario's declared
    coordinates — surfaced by ``repro list-scenarios`` and usable for
    filtering; they describe, they do not drive.
    """

    name: str
    title: str
    protocol: str
    config_type: type
    defaults: Mapping[str, Any] = field(default_factory=dict)
    attack_grid: tuple[str, ...] = ()
    defense_stack: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    paper_artifact: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ScenarioError(f"scenario name must be a non-empty token, got {self.name!r}")
        if not dataclasses.is_dataclass(self.config_type):
            raise ScenarioError(
                f"scenario {self.name!r}: config_type must be a dataclass, "
                f"got {self.config_type!r}"
            )
        self._check_fields(self.defaults, "default")
        # Freeze the defaults mapping so a registered spec cannot be
        # mutated behind the registry's back.
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))

    def __reduce__(self) -> tuple:
        # A mappingproxy does not pickle, and replications ship their
        # spec to worker processes: rebuild through __init__ instead.
        values = [getattr(self, f.name) for f in dataclasses.fields(self)]
        return (type(self), tuple(
            dict(value) if isinstance(value, MappingProxyType) else value
            for value in values
        ))

    # ------------------------------------------------------------------
    # Config construction
    # ------------------------------------------------------------------

    @property
    def config_fields(self) -> tuple[str, ...]:
        """The override keys this scenario's config accepts."""
        return tuple(f.name for f in dataclasses.fields(self.config_type) if f.init)

    def _check_fields(self, mapping: Mapping[str, Any], kind: str) -> None:
        unknown = sorted(set(mapping) - set(self.config_fields))
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r}: unknown {kind} field(s) "
                f"{', '.join(unknown)}; config {self.config_type.__name__} "
                f"accepts: {', '.join(self.config_fields)}"
            )

    def validate_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Raise :class:`ScenarioError` for keys the config rejects.

        For callers that materialize configs themselves (the CLI's
        ``--scale paper`` path) but still want the registry's friendly
        unknown-field diagnostics instead of a raw ``TypeError``.
        """
        self._check_fields(overrides, "override")

    def build_config(self, **overrides: Any) -> Any:
        """Materialize the scenario's config.

        Precedence, lowest to highest: ``config_type`` field defaults,
        the spec's ``defaults``, then ``overrides`` — every config
        field (including ``seed`` and ``workers``) is overridable.
        Unknown override names raise :class:`ScenarioError` (listing
        the accepted fields); value validation is the config
        dataclass's own ``__post_init__`` — its :class:`ReproError`
        diagnostics pass through untouched, while a value of the wrong
        *type* (a ``--set folds=banana`` string hitting an integer
        comparison) is converted from the raw ``TypeError`` /
        ``ValueError`` into a :class:`ScenarioError` naming the
        scenario, so user input mistakes never surface as tracebacks.
        """
        merged: dict[str, Any] = dict(self.defaults)
        merged.update(overrides)
        self._check_fields(merged, "override")
        try:
            return self.config_type(**merged)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"scenario {self.name!r}: invalid config value(s): {exc}"
            ) from exc

    def describe(self) -> str:
        """One-line human summary for listings."""
        parts = [f"[{self.protocol}]", self.title]
        if self.attack_grid:
            parts.append(f"attacks: {', '.join(self.attack_grid)}")
        if self.defense_stack:
            parts.append(f"defenses: {', '.join(self.defense_stack)}")
        return "  ".join(parts)
