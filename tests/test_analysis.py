"""Tests for the chart/report helpers."""

import pytest

from repro.analysis import bar_chart
from repro.errors import ConfigError


class TestBarChart:
    def test_basic_render(self):
        out = bar_chart({"gcc": 1.0, "mesa": 2.0}, width=20)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 20     # max value fills the width
        assert lines[0].count("#") == 10

    def test_baseline_marker(self):
        out = bar_chart({"a": 2.0}, width=20, baseline=1.0)
        assert "|" in out

    def test_title(self):
        out = bar_chart({"a": 1.0}, title="Fig X")
        assert out.splitlines()[0] == "Fig X"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            bar_chart({})

    def test_narrow_rejected(self):
        with pytest.raises(ConfigError):
            bar_chart({"a": 1.0}, width=2)

    def test_zero_values_ok(self):
        out = bar_chart({"a": 0.0, "b": 0.0})
        assert "0.000" in out

