"""Hypothesis-randomized serial vs process-pool sweep parity.

The fixed smoke config (``tests/test_sweep_smoke.py``) checks one sweep;
this generates :class:`~repro.sweep.spec.SweepSpec` draws from the shared
strategy library and requires the two backends to produce *bit-identical*
metrics on every one.  Pool startup makes each example expensive, so the
test carries the ``slow`` marker: excluded from the default local run,
exercised in CI's full suite.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep import SweepEngine
from repro.testing.strategies import sweep_specs


@pytest.mark.slow
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=sweep_specs())
def test_generated_sweeps_are_bit_identical_across_backends(spec):
    serial = SweepEngine(processes=None).run(spec)
    pooled = SweepEngine(processes=2).run(spec)
    assert len(serial) == len(pooled) == len(spec.expand())
    for s_row, p_row in zip(serial.rows, pooled.rows):
        assert s_row.key == p_row.key
        assert s_row.metrics == p_row.metrics
