"""Measurement, metrics and reporting for recorded executions."""

from .metrics import (
    global_skew_series,
    gradient_profile,
    max_global_skew,
    max_local_skew,
)
from .recorder import EdgeEpisode, RunRecord, SkewRecorder
from .report import TextTable, csv_text, format_value

__all__ = [
    "EdgeEpisode",
    "RunRecord",
    "SkewRecorder",
    "TextTable",
    "csv_text",
    "format_value",
    "global_skew_series",
    "gradient_profile",
    "max_global_skew",
    "max_local_skew",
]
