"""Table 1: the parameters of the paper's experiments.

Table 1 is data, not a measurement: the rows are the structured
constants of :mod:`repro.experiments.params`, and the paper-scale
configs of the experiment modules are built from the same values
(``tests/test_paper_claims.py`` holds each ``paper_scale()`` to its
row).  Registering it as a scenario makes ``repro run-scenario
table1-parameters`` print it like every other paper artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.params import TABLE1, Table1Row
from repro.experiments.reporting import render_table1
from repro.experiments.results import ExperimentRecord

__all__ = ["Table1Config", "Table1Result", "render_table1_result", "run_table1"]


@dataclass(frozen=True)
class Table1Config:
    """Table 1 draws nothing and runs no pool; ``seed`` and ``workers``
    exist because every scenario config carries them."""

    seed: int = 0
    workers: int = 1

    @classmethod
    def paper_scale(cls, seed: int = 0, workers: int = 1) -> "Table1Config":
        """The same table: Table 1 *is* the paper's scale."""
        return cls(seed=seed, workers=workers)


@dataclass
class Table1Result:
    """The table's columns, one per experiment, in the paper's order."""

    config: Table1Config
    rows: tuple[Table1Row, ...]

    def to_record(self) -> ExperimentRecord:
        return ExperimentRecord(
            experiment="table1-parameters",
            config={},
            extras={"columns": [row.as_cells() for row in self.rows]},
        )


def run_table1(config: Table1Config) -> Table1Result:
    """Table 1 as the repo's constants state it."""
    return Table1Result(config=config, rows=TABLE1)


def render_table1_result(result: Table1Result) -> str:
    return "Table 1 (parameters used in our experiments)\n\n" + render_table1(result.rows)
