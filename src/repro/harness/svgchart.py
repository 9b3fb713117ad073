"""Minimal SVG bar charts for the regenerated figures (stdlib only).

``figure_to_svg`` renders a :class:`~repro.harness.figures.FigureResult`
as a horizontal bar chart (grouped bars for multi-series figures like
Figure 8's latency triplets); ``write_all_figures`` drops one ``.svg``
per figure into a directory. Colours are a fixed brand-neutral set.
"""

from __future__ import annotations

import html
import os

from repro.harness.figures import FigureResult

_BAR_COLORS = ("#4878a8", "#e49444", "#6a9f58")
_BAR_HEIGHT = 16
_BAR_GAP = 6
_GROUP_GAP = 10
_LABEL_WIDTH = 110
_VALUE_WIDTH = 64
_CHART_WIDTH = 420
_TOP = 48


def _series_of(rows: dict) -> int:
    first = next(iter(rows.values()))
    return len(first) if isinstance(first, tuple) else 1


def figure_to_svg(figure: FigureResult, series_labels=None) -> str:
    """Render *figure* as an SVG document string."""
    rows = figure.rows
    series = _series_of(rows)
    values = {name: (value if isinstance(value, tuple) else (value,))
              for name, value in rows.items()}
    peak = max((abs(v) for vs in values.values() for v in vs),
               default=1.0) or 1.0
    group_height = series * (_BAR_HEIGHT + _BAR_GAP) + _GROUP_GAP
    height = _TOP + len(rows) * group_height + 30
    width = _LABEL_WIDTH + _CHART_WIDTH + _VALUE_WIDTH

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<text x="8" y="20" font-size="14" font-weight="bold">'
        f'{html.escape(figure.figure)}: {html.escape(figure.title)}'
        f'</text>',
        f'<text x="8" y="{_TOP - 12}" fill="#555" font-size="11">'
        f'mean {figure.mean:.1f} — paper: '
        f'{html.escape(figure.claim)}</text>',
    ]
    if series > 1 and series_labels:
        legend_x = _LABEL_WIDTH
        for idx, label in enumerate(series_labels[:series]):
            parts.append(
                f'<rect x="{legend_x}" y="{_TOP - 22}" width="10" '
                f'height="10" fill="{_BAR_COLORS[idx % 3]}"/>'
                f'<text x="{legend_x + 14}" y="{_TOP - 13}" '
                f'font-size="11">{html.escape(str(label))}</text>')
            legend_x += 14 + 8 * len(str(label)) + 12

    y = _TOP
    for name, vs in values.items():
        parts.append(
            f'<text x="{_LABEL_WIDTH - 6}" '
            f'y="{y + _BAR_HEIGHT - 3}" text-anchor="end">'
            f'{html.escape(name)}</text>')
        for idx, value in enumerate(vs):
            bar = abs(value) / peak * _CHART_WIDTH
            color = _BAR_COLORS[idx % 3] if value >= 0 else "#b04a4a"
            parts.append(
                f'<rect x="{_LABEL_WIDTH}" y="{y}" '
                f'width="{bar:.1f}" height="{_BAR_HEIGHT}" '
                f'fill="{color}"/>'
                f'<text x="{_LABEL_WIDTH + bar + 6:.1f}" '
                f'y="{y + _BAR_HEIGHT - 3}" fill="#333">'
                f'{value:.1f}</text>')
            y += _BAR_HEIGHT + _BAR_GAP
        y += _GROUP_GAP
    parts.append("</svg>")
    return "\n".join(parts)


def write_all_figures(service, benchmarks, directory: str) -> list:
    """Regenerate figures 3-8 over *benchmarks* through the execution
    *service* and write one SVG each; returns paths."""
    from repro.harness import figures as fig_mod
    os.makedirs(directory, exist_ok=True)
    paths = []
    for fig in fig_mod.all_figures(service, benchmarks):
        labels = fig.extra.get("columns")
        number = fig.figure.split()[-1]
        path = os.path.join(directory, f"figure{number}.svg")
        with open(path, "w") as handle:
            handle.write(figure_to_svg(fig, series_labels=labels))
        paths.append(path)
    return paths


__all__ = ["figure_to_svg", "write_all_figures"]
