"""Plain-text tables shared by every experiment's renderer.

:func:`format_table` is the one table layout; :func:`render_table1`
prints the paper's Table 1 and :func:`render_replicated_record` any
pooled multi-seed record.  Each experiment's own renderer sits in its
:mod:`repro.scenarios` module, next to its result type.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.plots import ascii_line_chart
from repro.experiments.params import TABLE1, Table1Row
from repro.experiments.results import RateStats, ReplicatedRecord

__all__ = ["format_table", "render_replicated_record", "render_table1"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Plain monospace table with padded columns."""
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    parts = [line(headers), line(["-" * width for width in widths])]
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)


def render_table1(rows: Sequence[Table1Row] = TABLE1) -> str:
    """Table 1 exactly as structured in :mod:`repro.experiments.params`."""
    field_order = (
        "Training set size",
        "Test set size",
        "Spam prevalence",
        "Attack fraction",
        "Folds of validation",
        "Target emails",
    )
    headers = ["Parameter"] + [row.experiment for row in rows]
    cells = [row.as_cells() for row in rows]
    table_rows = [[field] + [cell[field] for cell in cells] for field in field_order]
    return format_table(headers, table_rows)


def _error_bar(stats: RateStats) -> str:
    """``mean ±ci95`` as percentages — the error-bar cell."""
    return f"{stats.mean:7.1%} ±{stats.ci95:.1%}"


def render_replicated_record(record: ReplicatedRecord) -> str:
    """A pooled multi-seed record: error-bar table plus mean curves.

    Works for any scenario — the columns are the canonical rates, the
    rows every (series, x) cell, each rendered as ``mean ±ci95`` over
    the replica seeds (Student-t 95% interval) with the sample std
    alongside.  Scenarios whose record carries no series (the RONI
    gate's distribution record) render the replica summary line only.
    """
    n = record.n_replicas
    header = (
        f"{record.experiment}: pooled over {n} seed(s)"
        + (f", scenario {record.config['scenario']}" if "scenario" in record.config else "")
    )
    if not record.stats:
        return header + "\n(no curve series to pool; see per-replica records)"
    headers = [
        "series",
        "x",
        "ham-as-spam",
        "ham-as-spam|unsure",
        "spam-as-spam",
        "spam-as-unsure",
        "std(ham|unsure)",
    ]
    rows = []
    chart_series: dict[str, list[tuple[float, float]]] = {}
    for stats in record.stats:
        for point in stats.points:
            rows.append(
                [
                    stats.name,
                    f"{point.x:g}",
                    _error_bar(point.rate("ham_as_spam_rate")),
                    _error_bar(point.rate("ham_misclassified_rate")),
                    _error_bar(point.rate("spam_as_spam_rate")),
                    _error_bar(point.rate("spam_as_unsure_rate")),
                    f"{point.rate('ham_misclassified_rate').std:.3f}",
                ]
            )
        chart_series[stats.name] = [
            (point.x, point.rate("ham_misclassified_rate").mean)
            for point in stats.points
        ]
    chart = ascii_line_chart(
        chart_series,
        title=f"{record.experiment}: mean over {n} seeds (±95% CI in table)",
        x_label="x",
        y_label="mean rate",
    )
    return header + "\n\n" + format_table(headers, rows) + "\n\n" + chart
