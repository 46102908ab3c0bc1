"""ASCII chart rendering.

No plotting stack is available offline, and the figures only need to
be *recognizable* next to the paper: monotone curves, orderings and
saturation points.  These renderers draw into a character grid and
return a string; ``repro run-scenario`` prints them, so its stdout is
a self-contained reproduction artifact.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_line_chart", "ascii_bar_chart", "ascii_scatter"]

_MARKS = "o*x+#@%&"


def _scale(value: float, low: float, high: float, cells: int) -> int:
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(cells - 1, max(0, round(position * (cells - 1))))


def ascii_line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    y_range: tuple[float, float] | None = (0.0, 1.0),
) -> str:
    """Render named (x, y) series as an ASCII chart.

    Each series gets a marker character; points are plotted on a
    ``width``x``height`` grid with linear interpolation between
    consecutive points so curves read as lines, not dots.
    """
    all_points = [point for points in series.values() for point in points]
    if not all_points:
        return "(no data)"
    xs = [x for x, _ in all_points]
    x_low, x_high = min(xs), max(xs)
    if y_range is None:
        ys = [y for _, y in all_points]
        y_low, y_high = min(ys), max(ys)
        if y_low == y_high:
            y_low, y_high = y_low - 0.5, y_high + 0.5
    else:
        y_low, y_high = y_range
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        ordered = sorted(points)
        previous = None
        for x, y in ordered:
            column = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            if previous is not None:
                prev_column, prev_row = previous
                steps = max(abs(column - prev_column), abs(row - prev_row))
                for step in range(1, steps):
                    interp_col = prev_column + round((column - prev_column) * step / steps)
                    interp_row = prev_row + round((row - prev_row) * step / steps)
                    if grid[interp_row][interp_col] == " ":
                        grid[interp_row][interp_col] = "."
            grid[row][column] = mark
            previous = (column, row)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_high:7.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append("        │" + "".join(row))
    lines.append(f"{y_low:7.2f} ┤" + "".join(grid[-1]))
    lines.append("        └" + "─" * width)
    lines.append(f"         {x_low:<10.3g}{x_label:^{max(1, width - 20)}}{x_high:>10.3g}")
    legend = "  legend: " + "  ".join(
        f"{_MARKS[i % len(_MARKS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def ascii_bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    width: int = 40,
    title: str = "",
) -> str:
    """Render grouped fractions as horizontal stacked-ish bars.

    ``groups`` maps a group label (e.g. "p=0.3") to segment fractions
    (e.g. {"ham": 0.4, "unsure": 0.25, "spam": 0.35}).  Fractions
    should sum to ~1 per group.
    """
    if not groups:
        return "(no data)"
    segment_chars = {"ham": "h", "unsure": "?", "spam": "S"}
    lines = []
    if title:
        lines.append(title)
    for label, segments in groups.items():
        bar = ""
        for segment, fraction in segments.items():
            char = segment_chars.get(segment, segment[:1] or "#")
            bar += char * round(fraction * width)
        bar = bar[:width].ljust(width, " ")
        detail = " ".join(f"{name}={value:.0%}" for name, value in segments.items())
        lines.append(f"{label:>10} |{bar}| {detail}")
    lines.append("  legend: " + ", ".join(f"{c}={n}" for n, c in segment_chars.items()))
    return "\n".join(lines)


def ascii_scatter(
    points: Sequence[tuple[float, float, bool]],
    width: int = 48,
    height: int = 24,
    title: str = "",
    x_label: str = "before",
    y_label: str = "after",
) -> str:
    """Render Figure-4-style before/after scatter.

    ``points`` are (x, y, included) triples; included tokens render as
    ``x`` (the paper's red crosses), excluded as ``o`` (blue circles).
    Both axes span [0, 1]; the identity diagonal is drawn so shifts
    above/below it are visible.
    """
    grid = [[" "] * width for _ in range(height)]
    for i in range(min(width, height * 2)):
        row = height - 1 - _scale(i / (width - 1), 0.0, 1.0, height)
        column = _scale(i / (width - 1), 0.0, 1.0, width)
        if grid[row][column] == " ":
            grid[row][column] = "\\" if False else "`"
    for x, y, included in points:
        column = _scale(x, 0.0, 1.0, width)
        row = height - 1 - _scale(y, 0.0, 1.0, height)
        grid[row][column] = "x" if included else "o"
    lines = []
    if title:
        lines.append(title)
    lines.append("   1.00 ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append("        │" + "".join(row))
    lines.append("   0.00 ┤" + "".join(grid[-1]))
    lines.append("        └" + "─" * width)
    lines.append(f"         0.00{x_label:^{max(1, width - 10)}}1.00")
    lines.append(f"  y={y_label}; x=token in attack, o=token not in attack, `=identity")
    return "\n".join(lines)
