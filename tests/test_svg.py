"""Tests for the hand-rolled SVG line chart."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from monolab.svg import Series, render_line_chart


def test_chart_is_well_formed_xml_with_expected_elements():
    series = [
        Series("alpha", (1.0, 2.0, 3.0), (0.1, 0.4, 0.2), (0.05, 0.0, 0.02)),
        Series("beta", (1.0, 2.0, 3.0), (0.3, 0.2, 0.5), (0.0, 0.0, 0.0)),
    ]
    svg = render_line_chart(series, "firms", "performance", "demo")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("polyline") == 2
    texts = [el.text for el in root.iter() if el.text]
    assert "alpha" in texts and "beta" in texts
    assert "firms" in texts and "performance" in texts and "demo" in texts


def test_error_bars_only_for_positive_errors():
    no_errs = render_line_chart(
        [Series("a", (0.0, 1.0), (0.0, 1.0), (0.0, 0.0))], "x", "y", "t"
    )
    with_errs = render_line_chart(
        [Series("a", (0.0, 1.0), (0.0, 1.0), (0.1, 0.1))], "x", "y", "t"
    )
    assert with_errs.count("<line") > no_errs.count("<line")


def test_chart_is_deterministic():
    series = [Series("s", (1.0, 2.0), (3.0, 4.0), (0.5, 0.0))]
    assert render_line_chart(series, "x", "y", "t") == render_line_chart(series, "x", "y", "t")


def test_labels_are_escaped():
    svg = render_line_chart([Series("a<b&c>d", (0.0,), (1.0,), (0.0,))], "p<q", "r&s", "u>v")
    assert "a&lt;b&amp;c&gt;d" in svg
    assert "p&lt;q" in svg and "r&amp;s" in svg and "u&gt;v" in svg
    ET.fromstring(svg)


def test_degenerate_ranges_still_render():
    svg = render_line_chart([Series("flat", (2.0, 2.0), (5.0, 5.0), (0.0, 0.0))], "x", "y", "t")
    ET.fromstring(svg)
    assert "<polyline" in svg


def test_validation_errors():
    with pytest.raises(ValueError, match="no series"):
        render_line_chart([], "x", "y", "t")
    with pytest.raises(ValueError, match="empty"):
        render_line_chart([Series("e", (), (), ())], "x", "y", "t")
    with pytest.raises(ValueError, match="mismatched"):
        render_line_chart([Series("m", (1.0, 2.0), (1.0,), (0.0, 0.0))], "x", "y", "t")
    with pytest.raises(ValueError, match="mismatched"):
        render_line_chart([Series("m", (1.0,), (1.0,), (0.1, 0.2))], "x", "y", "t")
    with pytest.raises(ValueError, match="mismatched"):
        render_line_chart([Series("m", (1.0, 2.0), (1.0, 2.0), ())], "x", "y", "t")
