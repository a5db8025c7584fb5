"""Unit tests for reporting (repro.report)."""

from __future__ import annotations

import pytest

from repro.analysis.stats import EmpiricalCdf
from repro.analysis.trace import TraceRecorder
from repro.report.ascii import render_cdf_pair, render_series, render_trace
from repro.report.tables import format_table


def make_trace():
    t = TraceRecorder("cwnd")
    for time, value in enumerate([2, 4, 8, 16, 8, 9, 10]):
        t.add(float(time), value)
    return t


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------


def test_render_trace_contains_axes_and_legend():
    out = render_trace(make_trace(), x_label="time [ms]", y_label="cwnd [KB]")
    assert "cwnd [KB]" in out
    assert "time [ms]" in out
    assert "cwnd" in out  # legend entry


def test_render_trace_with_reference_line():
    out = render_trace(make_trace(), hline=10.0, hline_label="optimal")
    assert "optimal" in out
    assert "-" in out


def test_render_series_empty():
    assert render_series([]) == "(no data)"
    assert render_series([("x", [])]) == "(no data)"


def test_render_series_dimensions():
    out = render_series(
        [("a", [(0, 0), (1, 1)])], width=40, height=10
    )
    lines = out.splitlines()
    plot_lines = [line for line in lines if line.startswith("|")]
    assert len(plot_lines) == 10
    assert all(len(line) <= 41 for line in plot_lines)


def test_render_series_multiple_markers():
    out = render_series(
        [("one", [(0, 1), (1, 2)]), ("two", [(0, 2), (1, 3)])]
    )
    assert "*=one" in out
    assert "o=two" in out


def test_render_cdf_pair():
    a = EmpiricalCdf([1.0, 2.0, 3.0])
    b = EmpiricalCdf([1.5, 2.5, 3.5])
    out = render_cdf_pair("with", a, "without", b)
    assert "with" in out and "without" in out
    assert "cumulative distribution" in out


# ----------------------------------------------------------------------
# Tables and CSV
# ----------------------------------------------------------------------


def test_format_table_aligns_columns():
    out = format_table(
        ["name", "value"],
        [["gamma", 4.0], ["initial-window", 2]],
        title="Parameters",
    )
    lines = out.splitlines()
    assert lines[0] == "Parameters"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    assert "gamma" in lines[3]


def test_format_table_none_rendered_as_dash():
    out = format_table(["a"], [[None]])
    assert "-" in out.splitlines()[-1]


def test_format_table_row_length_checked():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_table_float_formatting():
    out = format_table(["x"], [[0.123456789]])
    assert "0.1235" in out
