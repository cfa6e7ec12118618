"""Measurement, metrics and reporting for recorded executions."""

from .metrics import (
    EnvelopeCheck,
    drift_rate,
    envelope_violations,
    episode_peak_skew,
    global_skew_series,
    gradient_profile,
    local_skew_series,
    max_estimate_lag,
    max_global_skew,
    max_local_skew,
    stabilization_age,
    stable_local_skew_measured,
)
from .recorder import EdgeEpisode, RunRecord, SkewRecorder
from .report import TextTable, csv_text, format_value, write_csv

__all__ = [
    "EdgeEpisode",
    "EnvelopeCheck",
    "RunRecord",
    "SkewRecorder",
    "TextTable",
    "csv_text",
    "drift_rate",
    "envelope_violations",
    "episode_peak_skew",
    "format_value",
    "global_skew_series",
    "gradient_profile",
    "local_skew_series",
    "max_estimate_lag",
    "max_global_skew",
    "max_local_skew",
    "stabilization_age",
    "stable_local_skew_measured",
    "write_csv",
]
