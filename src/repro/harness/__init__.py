"""Experiment harness: declarative configs and a one-call runner."""

from . import configs, registry
from .registry import (
    ADVERSARY_BUILDERS,
    CHURN_BUILDERS,
    ORACLE_BUILDERS,
    RUNTIME_BUILDERS,
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
    build_experiment,
    run_experiment,
)

__all__ = [
    "ADVERSARY_BUILDERS",
    "ALGORITHMS",
    "CHURN_BUILDERS",
    "ORACLE_BUILDERS",
    "RUNTIME_BUILDERS",
    "AdversaryRef",
    "ChurnRef",
    "OracleRef",
    "RuntimeRef",
    "Experiment",
    "ExperimentConfig",
    "RunResult",
    "SerializationError",
    "build_experiment",
    "configs",
    "registry",
    "run_experiment",
]
