"""Serializable experiment results.

Every protocol returns a result object whose record (a) carries the
paper's rows/series and (b) round-trips through JSON so benchmark runs
can be archived and compared across machines.  The JSON layer is deliberately dumb —
plain dicts, no pickle — so archived results stay readable forever.

Two record shapes live here:

* :class:`ExperimentRecord` — one run's outcome: named
  :class:`Series` of :class:`CurvePoint`\\s plus free-form extras;
* :class:`ReplicatedRecord` — a *pooled* outcome over N seeds
  (:func:`repro.scenarios.replicate_scenario`): the per-seed
  records verbatim, plus :class:`SeriesStats` — per-x mean, sample
  std and a 95% confidence interval over seeds for every rate — which
  is what the paper's error bars are.

**Forward compatibility is part of the format.**  Loaders ignore
unknown keys instead of crashing: an archive written by a newer
revision (which may add fields, exactly as ``ReplicatedRecord`` did)
stays readable by older code, and vice versa.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ExperimentError
from repro.experiments.metrics import ConfusionCounts

__all__ = [
    "CurvePoint",
    "Series",
    "ExperimentRecord",
    "RateStats",
    "PointStats",
    "SeriesStats",
    "ReplicatedRecord",
    "RATE_FIELDS",
    "save_record",
]

RATE_FIELDS: tuple[str, ...] = (
    "ham_as_spam_rate",
    "ham_misclassified_rate",
    "spam_as_spam_rate",
    "spam_as_unsure_rate",
)
"""The per-point rates every curve carries (the :class:`CurvePoint`
fields other than ``x``), in canonical order."""


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One (x, rates) point on a figure curve."""

    x: float
    ham_as_spam_rate: float
    ham_misclassified_rate: float
    spam_as_spam_rate: float = 0.0
    spam_as_unsure_rate: float = 0.0

    @classmethod
    def from_confusion(cls, x: float, confusion: ConfusionCounts) -> "CurvePoint":
        return cls(
            x=x,
            ham_as_spam_rate=confusion.ham_as_spam_rate,
            ham_misclassified_rate=confusion.ham_misclassified_rate,
            spam_as_spam_rate=confusion.spam_as_spam_rate,
            spam_as_unsure_rate=confusion.spam_as_unsure_rate,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "x": self.x,
            "ham_as_spam_rate": self.ham_as_spam_rate,
            "ham_misclassified_rate": self.ham_misclassified_rate,
            "spam_as_spam_rate": self.spam_as_spam_rate,
            "spam_as_unsure_rate": self.spam_as_unsure_rate,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "CurvePoint":
        """Load a point, ignoring keys this revision does not know.

        Unknown keys are *dropped*, not errors: archives written by a
        newer revision (extra rates, annotation fields) must stay
        loadable — the alternative is every field addition silently
        invalidating every existing archive.
        """
        known = _CURVE_POINT_FIELDS
        return cls(**{key: float(value) for key, value in data.items() if key in known})


_CURVE_POINT_FIELDS = frozenset(f.name for f in fields(CurvePoint))


@dataclass
class Series:
    """A named curve (one line of a figure)."""

    name: str
    points: list[CurvePoint] = field(default_factory=list)

    def xs(self) -> list[float]:
        return [point.x for point in self.points]

    def values(self, attribute: str) -> list[float]:
        return [getattr(point, attribute) for point in self.points]

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "points": [point.as_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Series":
        """Load a series; keys beyond ``name``/``points`` are ignored."""
        return cls(
            name=str(data["name"]),
            points=[CurvePoint.from_dict(point) for point in data["points"]],
        )


@dataclass
class ExperimentRecord:
    """A complete, archivable experiment outcome."""

    experiment: str
    config: dict[str, Any]
    series: list[Series] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    def series_named(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise ExperimentError(f"no series named {name!r} in {self.experiment}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "series": [series.as_dict() for series in self.series],
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentRecord":
        return cls(
            experiment=str(data["experiment"]),
            config=dict(data["config"]),
            series=[Series.from_dict(series) for series in data["series"]],
            extras=dict(data.get("extras", {})),
        )


# ----------------------------------------------------------------------
# Pooled statistics over replicated runs
# ----------------------------------------------------------------------

# Two-sided 95% Student-t critical values (0.975 quantile) by degrees
# of freedom.  Replications pool a handful of seeds, where the normal
# approximation understates the interval badly (df=7 → 2.36, not
# 1.96); past the table a Cornish–Fisher expansion in 1/df carries the
# quantile smoothly toward the normal value (accurate to <0.1% at
# df>30, where the expansion terms are already small).
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z_CRITICAL_95 = 1.959964


def _t_critical_95(df: int) -> float:
    """The two-sided 95% critical value for ``df`` degrees of freedom.

    Exact table through df=30; beyond it, the Cornish–Fisher series
    for the Student-t quantile in powers of 1/df (e.g. df=31 → 2.040
    vs the published 2.040) — a pure function, so serialized records
    stay deterministic.
    """
    if df < 1:
        return 0.0
    exact = _T_CRITICAL_95.get(df)
    if exact is not None:
        return exact
    z = _Z_CRITICAL_95
    z3 = z ** 3
    z5 = z ** 5
    z7 = z ** 7
    return (
        z
        + (z3 + z) / (4 * df)
        + (5 * z5 + 16 * z3 + 3 * z) / (96 * df ** 2)
        + (3 * z7 + 19 * z5 + 17 * z3 - 15 * z) / (384 * df ** 3)
    )


@dataclass(frozen=True, slots=True)
class RateStats:
    """Mean / spread of one rate across replicas.

    ``std`` is the sample standard deviation (ddof=1; 0.0 for a single
    replica) and ``ci95`` the half-width of the two-sided 95%
    Student-t confidence interval of the mean — the error bar.
    """

    mean: float
    std: float
    ci95: float

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "RateStats":
        n = len(values)
        if n == 0:
            raise ExperimentError("RateStats needs at least one sample")
        mean = sum(values) / n
        if n < 2:
            return cls(mean=mean, std=0.0, ci95=0.0)
        variance = sum((value - mean) ** 2 for value in values) / (n - 1)
        std = math.sqrt(variance)
        ci95 = _t_critical_95(n - 1) * std / math.sqrt(n)
        return cls(mean=mean, std=std, ci95=ci95)

    def as_dict(self) -> dict[str, float]:
        return {"mean": self.mean, "std": self.std, "ci95": self.ci95}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "RateStats":
        return cls(
            mean=float(data["mean"]),
            std=float(data["std"]),
            ci95=float(data["ci95"]),
        )


@dataclass(frozen=True, slots=True)
class PointStats:
    """Pooled statistics at one x: a :class:`RateStats` per rate."""

    x: float
    n: int
    rates: dict[str, RateStats]

    def rate(self, name: str) -> RateStats:
        try:
            return self.rates[name]
        except KeyError:
            raise ExperimentError(f"no rate named {name!r} at x={self.x}") from None

    def as_dict(self) -> dict[str, Any]:
        return {
            "x": self.x,
            "n": self.n,
            "rates": {name: stats.as_dict() for name, stats in self.rates.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PointStats":
        return cls(
            x=float(data["x"]),
            n=int(data["n"]),
            rates={
                str(name): RateStats.from_dict(stats)
                for name, stats in data["rates"].items()
            },
        )


@dataclass
class SeriesStats:
    """One curve pooled over replicas: per-x mean/std/CI for each rate."""

    name: str
    points: list[PointStats] = field(default_factory=list)

    @classmethod
    def pool(cls, replicas: Sequence[Series]) -> "SeriesStats":
        """Pool same-named series from N replica records.

        Every replica must carry the same curve: same name, same xs in
        the same order — anything else means the runs are not
        replications of one experiment, and pooling them would produce
        a statistically meaningless record.
        """
        if not replicas:
            raise ExperimentError("cannot pool zero replica series")
        name = replicas[0].name
        xs = replicas[0].xs()
        for series in replicas[1:]:
            if series.name != name:
                raise ExperimentError(
                    f"cannot pool series {series.name!r} with {name!r}"
                )
            if series.xs() != xs:
                raise ExperimentError(
                    f"replicas of series {name!r} disagree on x values: "
                    f"{series.xs()} vs {xs}"
                )
        points = []
        for index, x in enumerate(xs):
            rates = {
                rate: RateStats.from_samples(
                    [getattr(series.points[index], rate) for series in replicas]
                )
                for rate in RATE_FIELDS
            }
            points.append(PointStats(x=x, n=len(replicas), rates=rates))
        return cls(name=name, points=points)

    def xs(self) -> list[float]:
        return [point.x for point in self.points]

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "points": [point.as_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SeriesStats":
        return cls(
            name=str(data["name"]),
            points=[PointStats.from_dict(point) for point in data["points"]],
        )


@dataclass
class ReplicatedRecord:
    """A pooled, archivable outcome of one scenario run at many seeds.

    ``config`` describes the replication itself (scenario name, the
    replica seeds in order, overrides) and is deliberately free of
    anything execution-dependent — no worker counts, no timings — so
    the serialized record is byte-identical however the replication
    was scheduled.  ``replicas`` holds every per-seed
    :class:`ExperimentRecord` verbatim (seed i's record is exactly
    what a single run at that seed produces); ``stats`` is the pooled
    per-series view the error bars render from.
    """

    experiment: str
    config: dict[str, Any]
    stats: list[SeriesStats] = field(default_factory=list)
    replicas: list[ExperimentRecord] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @classmethod
    def pool(
        cls,
        replicas: Sequence[ExperimentRecord],
        *,
        experiment: str | None = None,
        config: dict[str, Any] | None = None,
        extras: dict[str, Any] | None = None,
    ) -> "ReplicatedRecord":
        """Pool N per-seed records into one replicated record.

        Statistics are computed per series name over the replicas'
        curves; records whose protocol emits no series (the RONI gate's
        distribution record) pool into an empty ``stats`` list but keep
        every replica for downstream analysis.
        """
        if not replicas:
            raise ExperimentError("cannot pool zero replica records")
        names = [series.name for series in replicas[0].series]
        stats = [
            SeriesStats.pool([record.series_named(name) for record in replicas])
            for name in names
        ]
        return cls(
            experiment=experiment or replicas[0].experiment,
            config=dict(config or {}),
            stats=stats,
            replicas=list(replicas),
            extras=dict(extras or {}),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "stats": [stats.as_dict() for stats in self.stats],
            "replicas": [record.as_dict() for record in self.replicas],
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReplicatedRecord":
        return cls(
            experiment=str(data["experiment"]),
            config=dict(data["config"]),
            stats=[SeriesStats.from_dict(stats) for stats in data.get("stats", [])],
            replicas=[
                ExperimentRecord.from_dict(record)
                for record in data.get("replicas", [])
            ],
            extras=dict(data.get("extras", {})),
        )


def save_record(record: "ExperimentRecord | ReplicatedRecord", path: str | Path) -> None:
    """Write a record as pretty-printed JSON.

    The serialization is deterministic — dict construction order is
    dataclass field order, floats render via ``repr`` — so two runs
    that produce equal records produce byte-identical files.
    """
    Path(path).write_text(json.dumps(record.as_dict(), indent=2), encoding="utf-8")
