"""Reporting: ASCII figures, aligned tables, partial sweeps."""

from .ascii import (
    render_cdf_pair,
    render_improvement_vs_utilization,
    render_series,
    render_trace,
)
from .partial import partial_payload, partial_writer, render_partial_table
from .summary import generate_report
from .tables import format_table

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
]
