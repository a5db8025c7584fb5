"""Reporting: ASCII figures, aligned tables, CSV export, partial sweeps."""

from .ascii import (
    render_cdf_pair,
    render_improvement_vs_utilization,
    render_series,
    render_trace,
)
from .partial import partial_payload, partial_writer, render_partial_table
from .summary import generate_report
from .tables import format_table, rows_to_csv_text, write_csv

__all__ = [
    "format_table",
    "generate_report",
    "partial_payload",
    "partial_writer",
    "render_cdf_pair",
    "render_improvement_vs_utilization",
    "render_partial_table",
    "render_series",
    "render_trace",
    "rows_to_csv_text",
    "write_csv",
]
