"""Tests for result serialization and the Table 1 constants."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.metrics import ConfusionCounts
from repro.experiments.params import (
    DICTIONARY_PARAMS,
    FOCUSED_PARAMS,
    RONI_PARAMS,
    TABLE1,
    THRESHOLD_PARAMS,
)
from repro.experiments.results import (
    CurvePoint,
    ExperimentRecord,
    ReplicatedRecord,
    Series,
    SeriesStats,
    save_record,
)


def load_json(path: Path) -> dict:
    """A record file as written by :func:`save_record`."""
    return json.loads(path.read_text(encoding="utf-8"))


def stats_named(record: ReplicatedRecord, name: str) -> SeriesStats:
    (stats,) = [stats for stats in record.stats if stats.name == name]
    return stats


class TestTable1:
    """Pin the paper's Table 1 values."""

    def test_dictionary_column(self):
        assert DICTIONARY_PARAMS.training_set_sizes == (2_000, 10_000)
        assert DICTIONARY_PARAMS.test_set_sizes == (200, 1_000)
        assert DICTIONARY_PARAMS.spam_prevalences == (0.50, 0.75)
        assert DICTIONARY_PARAMS.attack_fractions == (0.001, 0.005, 0.01, 0.02, 0.05, 0.10)
        assert DICTIONARY_PARAMS.validation == "10"

    def test_focused_column(self):
        assert FOCUSED_PARAMS.training_set_sizes == (5_000,)
        assert FOCUSED_PARAMS.target_emails == 20
        assert FOCUSED_PARAMS.attack_fractions[0] == 0.02
        assert FOCUSED_PARAMS.attack_fractions[-1] == 0.50
        assert len(FOCUSED_PARAMS.attack_fractions) == 25

    def test_roni_column(self):
        assert RONI_PARAMS.training_set_sizes == (20,)
        assert RONI_PARAMS.test_set_sizes == (50,)
        assert RONI_PARAMS.attack_fractions == (0.05,)

    def test_threshold_column(self):
        assert THRESHOLD_PARAMS.attack_fractions == (0.001, 0.01, 0.05, 0.10)
        assert THRESHOLD_PARAMS.validation == "5"

    def test_table_has_four_columns(self):
        assert len(TABLE1) == 4

    def test_as_cells_renders_every_field(self):
        cells = DICTIONARY_PARAMS.as_cells()
        assert cells["Training set size"] == "2,000, 10,000"
        assert cells["Target emails"] == "N/A"


class TestCurvePoint:
    def test_from_confusion(self):
        confusion = ConfusionCounts(ham_as_ham=8, ham_as_unsure=1, ham_as_spam=1)
        point = CurvePoint.from_confusion(0.05, confusion)
        assert point.x == 0.05
        assert point.ham_as_spam_rate == pytest.approx(0.1)
        assert point.ham_misclassified_rate == pytest.approx(0.2)

    def test_dict_roundtrip(self):
        point = CurvePoint(0.1, 0.2, 0.3, 0.4, 0.5)
        assert CurvePoint.from_dict(point.as_dict()) == point


class TestExperimentRecord:
    def _record(self) -> ExperimentRecord:
        return ExperimentRecord(
            experiment="unit-test",
            config={"size": 10},
            series=[
                Series("a", [CurvePoint(0.0, 0.1, 0.2), CurvePoint(1.0, 0.3, 0.4)]),
                Series("b", [CurvePoint(0.0, 0.0, 0.0)]),
            ],
            extras={"note": "hello"},
        )

    def test_series_named(self):
        record = self._record()
        assert record.series_named("a").points[1].x == 1.0
        with pytest.raises(ExperimentError):
            record.series_named("missing")

    def test_series_values(self):
        series = self._record().series_named("a")
        assert series.xs() == [0.0, 1.0]
        assert series.values("ham_as_spam_rate") == [0.1, 0.3]

    def test_json_roundtrip(self, tmp_path):
        record = self._record()
        path = tmp_path / "record.json"
        save_record(record, path)
        loaded = ExperimentRecord.from_dict(load_json(path))
        assert loaded.experiment == record.experiment
        assert loaded.config == record.config
        assert loaded.extras == record.extras
        assert loaded.series_named("a").points == record.series_named("a").points


class TestForwardCompatibility:
    """Archives written by a *newer* revision must stay loadable.

    ``ReplicatedRecord`` is exactly the field addition that motivated
    this: a loader that crashes on unknown keys turns every format
    extension into a flag day for existing archives.
    """

    def test_curve_point_ignores_unknown_keys(self):
        data = CurvePoint(0.1, 0.2, 0.3).as_dict()
        data["future_rate"] = 0.9
        data["annotation"] = 7
        assert CurvePoint.from_dict(data) == CurvePoint(0.1, 0.2, 0.3)

    def test_series_ignores_unknown_keys(self):
        data = Series("a", [CurvePoint(0.0, 0.1, 0.2)]).as_dict()
        data["points"][0]["error_bar"] = 0.01
        data["style"] = "dashed"
        loaded = Series.from_dict(data)
        assert loaded.name == "a"
        assert loaded.points == [CurvePoint(0.0, 0.1, 0.2)]

    def test_record_file_with_extra_fields_loads(self, tmp_path):
        record = ExperimentRecord(
            experiment="unit-test",
            config={"size": 10},
            series=[Series("a", [CurvePoint(0.0, 0.1, 0.2)])],
        )
        data = record.as_dict()
        data["schema_version"] = 99
        data["series"][0]["legend"] = "solid"
        data["series"][0]["points"][0]["ci95"] = 0.05
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = ExperimentRecord.from_dict(load_json(path))
        assert loaded.series_named("a").points == record.series_named("a").points


class TestPooledStatistics:
    def _replicas(self):
        def record(rates):
            return ExperimentRecord(
                experiment="unit-test",
                config={},
                series=[
                    Series(
                        "a",
                        [CurvePoint(x=float(i), ham_as_spam_rate=rate,
                                    ham_misclassified_rate=rate * 2)
                         for i, rate in enumerate(rates)],
                    )
                ],
            )

        return [record([0.1, 0.2]), record([0.2, 0.4]), record([0.3, 0.6])]

    def test_series_stats_mean_std_ci(self):
        pooled = ReplicatedRecord.pool(self._replicas(), config={"n_seeds": 3})
        stats = stats_named(pooled, "a")
        assert stats.xs() == [0.0, 1.0]
        point = stats.points[0]
        assert point.n == 3
        rate = point.rate("ham_as_spam_rate")
        assert rate.mean == pytest.approx(0.2)
        assert rate.std == pytest.approx(0.1)  # sample std of 0.1/0.2/0.3
        # Student-t, df=2: 4.303 * 0.1 / sqrt(3)
        assert rate.ci95 == pytest.approx(4.303 * 0.1 / 3**0.5)
        # A derived rate pools independently.
        assert point.rate("ham_misclassified_rate").mean == pytest.approx(0.4)

    def test_single_replica_has_zero_spread(self):
        pooled = ReplicatedRecord.pool(self._replicas()[:1])
        rate = stats_named(pooled, "a").points[0].rate("ham_as_spam_rate")
        assert rate.mean == pytest.approx(0.1)
        assert rate.std == 0.0
        assert rate.ci95 == 0.0

    def test_mismatched_replicas_rejected(self):
        replicas = self._replicas()
        replicas[1].series[0].name = "b"
        with pytest.raises(ExperimentError):
            ReplicatedRecord.pool(replicas)
        short = self._replicas()
        short[1].series[0].points = short[1].series[0].points[:1]
        with pytest.raises(ExperimentError):
            SeriesStats.pool([record.series[0] for record in short])

    def test_replicated_record_json_roundtrip(self, tmp_path):
        pooled = ReplicatedRecord.pool(
            self._replicas(), config={"scenario": "unit", "n_seeds": 3}
        )
        path = tmp_path / "pooled.json"
        save_record(pooled, path)
        loaded = ReplicatedRecord.from_dict(load_json(path))
        assert loaded.as_dict() == pooled.as_dict()
        # Serialization is deterministic: saving the loaded record
        # reproduces the file byte for byte.
        path2 = tmp_path / "pooled2.json"
        save_record(loaded, path2)
        assert path2.read_bytes() == path.read_bytes()
