"""Tests for the ASCII plotting primitives."""

import pytest

from repro.analysis.ascii_plots import heatmap, line_plot


class TestLinePlot:
    def test_renders_all_points(self):
        text = line_plot([1, 2, 3, 4], [1.0, 4.0, 2.0, 3.0], width=20, height=8)
        assert text.count("*") >= 3  # points may share a cell

    def test_marker_column(self):
        text = line_plot([1, 2, 3], [1.0, 2.0, 3.0], width=20, height=8, mark_x=2)
        assert "|" in text

    def test_axis_labels(self):
        text = line_plot([0, 10], [5.0, 15.0], width=20, height=8)
        assert "15" in text and "5" in text

    def test_flat_series(self):
        text = line_plot([1, 2, 3], [2.0, 2.0, 2.0], width=20, height=8)
        assert "*" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot([1], [1.0])
        with pytest.raises(ValueError):
            line_plot([1, 2], [1.0])
        with pytest.raises(ValueError):
            line_plot([1, 2], [1.0, 2.0], width=2, height=2)


class TestHeatmap:
    def test_renders_grid(self):
        values = {(x, y): float(x * y) for x in (1, 2, 3) for y in (1, 2)}
        text = heatmap(values, title="t")
        assert text.startswith("t")
        assert "scale:" in text

    def test_mark_and_mask(self):
        values = {(1, 1): 1.0, (2, 1): 2.0, (3, 1): 100.0}
        text = heatmap(values, mark=(1, 1), mask={(3, 1): True})
        assert "O" in text
        assert "x" in text

    def test_masked_cells_do_not_stretch_scale(self):
        values = {(1, 1): 1.0, (2, 1): 2.0, (3, 1): 1e9}
        text = heatmap(values, mask={(3, 1): True})
        assert "1e+09" not in text.split("scale:")[1]

    def test_missing_cells_render_dot(self):
        values = {(1, 1): 1.0, (2, 2): 2.0}
        assert "." in heatmap(values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heatmap({})
