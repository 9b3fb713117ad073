"""SVG chart rendering tests."""

import xml.etree.ElementTree as ET

import pytest

from repro.harness.figures import FigureResult
from repro.harness.svgchart import figure_to_svg, write_all_figures


def make_figure(rows):
    return FigureResult("Figure 9", "test chart", rows, 5.0,
                        "a claim & such")


def test_single_series_svg_is_valid_xml():
    svg = figure_to_svg(make_figure({"alpha": 10.0, "beta": 2.5}))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 2


def test_labels_and_values_present():
    svg = figure_to_svg(make_figure({"alpha": 10.0}))
    assert "alpha" in svg and "10.0" in svg
    assert "a claim &amp; such" in svg     # escaped


def test_negative_bars_colored_differently():
    svg = figure_to_svg(make_figure({"down": -4.0, "up": 4.0}))
    assert "#b04a4a" in svg


def test_multi_series_with_legend():
    figure = make_figure({"a": (1.0, 2.0, 3.0), "b": (2.0, 2.0, 2.0)})
    svg = figure_to_svg(figure, series_labels=("one", "two", "three"))
    root = ET.fromstring(svg)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 6 + 3       # bars + legend swatches
    assert "one" in svg and "three" in svg


def test_bar_widths_scale_with_peak():
    svg = figure_to_svg(make_figure({"big": 10.0, "small": 5.0}))
    root = ET.fromstring(svg)
    widths = sorted(float(el.get("width"))
                    for el in root.iter() if el.tag.endswith("rect"))
    assert widths[1] == pytest.approx(2 * widths[0], rel=0.01)


def test_write_all_figures(tmp_path):
    from repro.exec.service import ExecutionService
    paths = write_all_figures(ExecutionService(scale=0.05), ["compress"],
                              str(tmp_path))
    assert len(paths) == 6
    for path in paths:
        ET.parse(path)      # every file is well-formed XML
