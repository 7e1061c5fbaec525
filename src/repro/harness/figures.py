"""ASCII figure rendering for benchmark output.

The paper's figures are CDFs and rate curves; these helpers render
comparable plots as plain text so benchmark output is self-contained in a
terminal or a CI log.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.harness.metrics import cdf_points


def ascii_cdf(series: Dict[str, Sequence[float]], width: int = 60,
              height: int = 12, x_label: str = "ms") -> str:
    """Render one or more CDFs as an ASCII plot.

    ``series`` maps a label to its samples; each series gets a marker
    character. The x-axis spans [0, max sample across series].
    """
    markers = "ox+*#@%&"
    populated = {label: values for label, values in series.items() if values}
    if not populated:
        return "(no samples)"
    x_max = max(max(values) for values in populated.values())
    if x_max <= 0:
        return "(degenerate samples)"
    grid = [[" "] * width for _ in range(height)]
    for index, (label, values) in enumerate(populated.items()):
        marker = markers[index % len(markers)]
        for x, y in cdf_points(values, points=width):
            column = min(width - 1, int(x / x_max * (width - 1)))
            row = min(height - 1, int((1.0 - y) * (height - 1)))
            grid[row][column] = marker
    lines = ["1.0 |" + "".join(row) for row in grid[:1]]
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 +" + "-" * width)
    lines.append(f"     0{' ' * (width - len(f'{x_max:.0f}') - 1)}"
                 f"{x_max:.0f} {x_label}")
    legend = "  ".join(f"{markers[i % len(markers)]}={label}"
                       for i, label in enumerate(populated))
    lines.append("     " + legend)
    return "\n".join(lines)


def ascii_series(points: Sequence[Tuple[float, float]], width: int = 60,
                 height: int = 12, x_label: str = "x",
                 y_label: str = "y") -> str:
    """Render one (x, y) series as an ASCII scatter/line plot."""
    if not points:
        return "(no points)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_max = max(xs) or 1.0
    y_max = max(ys) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        column = min(width - 1, int(x / x_max * (width - 1)))
        row = min(height - 1, int((1.0 - y / y_max) * (height - 1)))
        grid[row][column] = "o"
    lines = [f"{y_max:>8.0f} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("         |" + "".join(row))
    lines.append("       0 +" + "-" * width)
    lines.append(f"          0{' ' * (width - len(f'{x_max:.0f}') - 1)}"
                 f"{x_max:.0f} {x_label}")
    lines.append(f"          ({y_label} vs {x_label})")
    return "\n".join(lines)
