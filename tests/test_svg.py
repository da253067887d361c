"""Tests for the hand-rolled SVG line chart."""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from monolab.svg import render_line_chart


def test_chart_is_well_formed_xml_with_expected_elements():
    series = {
        "alpha": [(1.0, 0.1, 0.05), (2.0, 0.4, 0.0), (3.0, 0.2, 0.02)],
        "beta": [(1.0, 0.3, 0.0), (2.0, 0.2, 0.0), (3.0, 0.5, 0.0)],
    }
    svg = render_line_chart(series, "firms", "performance", "demo")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("polyline") == 2
    texts = [el.text for el in root.iter() if el.text]
    assert "alpha" in texts and "beta" in texts
    assert "firms" in texts and "performance" in texts and "demo" in texts


def test_error_bars_only_for_positive_errors():
    no_errs = render_line_chart({"a": [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]}, "x", "y", "t")
    with_errs = render_line_chart({"a": [(0.0, 0.0, 0.1), (1.0, 1.0, 0.1)]}, "x", "y", "t")
    assert with_errs.count("<line") > no_errs.count("<line")


def test_chart_is_deterministic():
    series = {"s": [(1.0, 3.0, 0.5), (2.0, 4.0, 0.0)]}
    assert render_line_chart(series, "x", "y", "t") == render_line_chart(series, "x", "y", "t")


def test_chart_bytes_are_pinned():
    # zero and positive error bars and labels that need escaping
    svg = render_line_chart({
        "a<b&c>d": [(1.0, 0.1, 0.05), (2.0, 0.4, 0.0), (4.0, 0.2, 0.02)],
        "mono": [(1.0, 0.3, 0.0), (2.0, 0.2, 0.0), (4.0, 0.5, 0.0)],
    }, "firms & <groups>", "y<1", "t>0 & more")
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "36107f0ca79c0082835f3ec760e2d74689098aaeffa3a7bbe582da1cfc4bb6d6")


def test_labels_are_escaped():
    svg = render_line_chart({"a<b&c>d": [(0.0, 1.0, 0.0)]}, "p<q", "r&s", "u>v")
    assert "a&lt;b&amp;c&gt;d" in svg
    assert "p&lt;q" in svg and "r&amp;s" in svg and "u&gt;v" in svg
    ET.fromstring(svg)


def test_degenerate_ranges_still_render():
    svg = render_line_chart({"flat": [(2.0, 5.0, 0.0), (2.0, 5.0, 0.0)]}, "x", "y", "t")
    ET.fromstring(svg)
    assert "<polyline" in svg


def test_validation_errors():
    with pytest.raises(ValueError, match="no series"):
        render_line_chart({}, "x", "y", "t")
    with pytest.raises(ValueError, match="series 'e' is empty"):
        render_line_chart({"ok": [(1.0, 1.0, 0.0)], "e": []}, "x", "y", "t")
    # a non-finite value anywhere is named by its series, not drawn as nan
    # or reported as an overflowing range
    nan, inf = float("nan"), float("inf")
    for points in (
        [(1.0, nan, 0.0), (2.0, 1.0, 0.0)],  # a NaN y first
        [(1.0, 1.0, 0.0), (2.0, nan, 0.0)],  # a NaN y later
        [(1.0, 1.0, nan), (2.0, 1.0, 0.0)],  # a NaN error bar
        [(1.0, 1.0, 0.0), (inf, 1.0, 0.0)],  # an infinite x
        [(1.0, -inf, 0.0), (2.0, 1.0, 0.0)],  # an infinite y
    ):
        with pytest.raises(ValueError, match="series 'bad' has a non-finite value"):
            render_line_chart({"bad": points, "ok": [(1.0, 1.0, 0.0)]}, "x", "y", "t")


@pytest.mark.parametrize("wide", [
    [(-1e300, 0.5, 0.0), (1e300, 0.5, 0.0)],
    [(1e300, 0.5, 0.0)],  # the float32 point is the range's low edge
])
def test_float32_points_share_a_chart_with_wide_floats(wide):
    # numpy float32 values are drawn as the Python floats they equal, not in
    # float32, whose range ends near 3.4e38
    svg = render_line_chart({"b": wide, "a": [(np.float32(1), np.float32(0.5), np.float32(0))]},
                            "x", "y", "t")
    assert "nan" not in svg
    assert svg == render_line_chart({"b": wide, "a": [(1.0, 0.5, 0.0)]}, "x", "y", "t")
