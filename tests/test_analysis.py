"""Tests for the reporting helpers."""

import pytest

from repro.analysis.compare import Comparison, render_comparisons
from repro.analysis.tables import render_table


class TestComparison:
    def test_ratio_and_error(self):
        row = Comparison("e", "m", paper=100.0, measured=90.0)
        assert row.ratio == pytest.approx(0.9)
        assert row.relative_error == pytest.approx(0.1)

    def test_zero_paper_value(self):
        assert Comparison("e", "m", 0.0, 0.0).relative_error == 0.0
        assert Comparison("e", "m", 0.0, 1.0).relative_error == float("inf")


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table(
            ("name", "value"), [("row_one", 1.5), ("r2", 12345.0)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "12,345" in text

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(("a",), [("x", "y")])

    def test_none_and_bool_formatting(self):
        text = render_table(("a", "b"), [(None, True)])
        assert "-" in text and "yes" in text

    def test_small_floats(self):
        text = render_table(("v",), [(0.00123,)])
        assert "0.00123" in text

    def test_render_comparisons_columns(self):
        text = render_comparisons([Comparison("e", "m", 2.0, 1.0)])
        assert "0.50x" in text
        assert "50.0%" in text
