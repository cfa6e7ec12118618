"""Measurement, metrics and reporting for recorded executions."""

from .metrics import (
    EnvelopeCheck,
    envelope_violations,
    global_skew_series,
    gradient_profile,
    max_estimate_lag,
    max_global_skew,
    max_local_skew,
    stabilization_age,
    stable_local_skew_measured,
)
from .recorder import EdgeEpisode, RunRecord, SkewRecorder
from .report import TextTable, csv_text, format_value

__all__ = [
    "EdgeEpisode",
    "EnvelopeCheck",
    "RunRecord",
    "SkewRecorder",
    "TextTable",
    "csv_text",
    "envelope_violations",
    "format_value",
    "global_skew_series",
    "gradient_profile",
    "max_estimate_lag",
    "max_global_skew",
    "max_local_skew",
    "stabilization_age",
    "stable_local_skew_measured",
]
