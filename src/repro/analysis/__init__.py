"""Experiment statistics and rendering helpers."""

from .artifacts import render_artifact, render_section_result
from .export import rows_to_csv, rows_to_json, write_rows
from .stats import approximation_ratio, growth_exponent, pearson
from .tables import render_series, render_table

__all__ = [
    "approximation_ratio",
    "growth_exponent",
    "pearson",
    "render_artifact",
    "render_section_result",
    "render_series",
    "render_table",
    "rows_to_csv",
    "rows_to_json",
    "write_rows",
]
