"""Terminal-friendly charts for experiment outputs.

The paper's figures are bar charts over the ten benchmarks; these helpers
render the same data as ASCII so the CLI can show shapes without any
plotting dependency.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigError

_BAR = "#"


def bar_chart(values: Mapping[str, float], width: int = 50,
              baseline: float = None, title: str = "") -> str:
    """Render a labelled horizontal bar chart.

    ``baseline`` draws a reference mark (e.g. 1.0 for normalized results)
    as a ``|`` on each row.
    """
    if not values:
        raise ConfigError("bar_chart needs at least one value")
    if width < 10:
        raise ConfigError("chart width must be >= 10 columns")
    vmax = max(max(values.values()), baseline or 0.0)
    if vmax <= 0:
        vmax = 1.0
    label_w = max(len(k) for k in values)
    lines = [title] if title else []
    for key, value in values.items():
        bar_len = max(0, round(value / vmax * width))
        row = list(_BAR * bar_len + " " * (width - bar_len))
        if baseline is not None:
            mark = min(width - 1, round(baseline / vmax * width))
            row[mark] = "|"
        lines.append(f"{key:>{label_w}} {''.join(row)} {value:.3f}")
    return "\n".join(lines)

