"""Tests for the plain-text rendering helpers."""

import pytest

from repro.viz.ascii_chart import bar_chart, line_chart, scatter_chart
from repro.viz.tables import format_table


class TestCharts:
    def test_line_chart_contains_series_glyphs(self):
        chart = line_chart(
            {"a": [(0.0, 0.0), (1.0, 1.0)], "b": [(0.0, 1.0), (1.0, 0.0)]},
            title="two lines",
        )
        assert "two lines" in chart
        assert "*=a" in chart
        assert "o=b" in chart

    def test_scatter_plots_every_point_region(self):
        chart = scatter_chart({"pts": [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]})
        assert chart.count("*") >= 3

    def test_chart_dimensions_respected(self):
        chart = line_chart({"a": [(0, 0), (1, 1)]}, width=30, height=8)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert len(rows) == 8

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})

    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart({"x": 1.0, "y": 2.0}, width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_flat_series_does_not_crash(self):
        chart = line_chart({"flat": [(0.0, 5.0), (1.0, 5.0)]})
        assert "flat" in chart


class TestTables:
    def test_alignment_and_headers(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 22.125]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.500" in text and "22.125" in text

    def test_booleans_rendered_as_words(self):
        text = format_table(["k", "v"], [["x", True], ["y", False]])
        assert "yes" in text and "no" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_custom_float_format(self):
        text = format_table(["a", "b"], [["r", 3.14159]], float_format="{:.1f}")
        assert "3.1" in text and "3.14" not in text
