"""Experiment harness: declarative configs and a one-call runner."""

from . import configs, registry
from .registry import (
    AdversaryRef,
    ChurnRef,
    OracleRef,
    RuntimeRef,
    SerializationError,
)
from .runner import (
    ALGORITHMS,
    Experiment,
    ExperimentConfig,
    RunResult,
    run_experiment,
)

__all__ = [
    "ALGORITHMS",
    "AdversaryRef",
    "ChurnRef",
    "OracleRef",
    "RuntimeRef",
    "Experiment",
    "ExperimentConfig",
    "RunResult",
    "SerializationError",
    "configs",
    "registry",
    "run_experiment",
]
