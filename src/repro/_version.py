"""Package version (single source of truth, read by pyproject)."""

__version__ = "1.6.0"
