"""What the program's config factories and constructors refuse.

Configs, spec keys and churn scripts arrive from outside
the program (the CLI, sweep specs, JSON): every check on them raises a
named error.  One row per check, so a check that stops firing, or fires
with a different message, fails here.  The interface stubs that a new
delay, discovery, churn, adversary or live channel class fills in raise
``NotImplementedError`` when it does not.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import SystemParams
from repro.adversary.base import Adversary, CombinedAdversary, PeriodicAdversary
from repro.adversary.delay import AdaptiveMaskingDelayPolicy, DelayAdversary
from repro.adversary.drift import DriftAdversary
from repro.core.bfunction import BFunction
from repro.core.skew_bounds import dynamic_local_skew_batch
from repro.harness import configs
from repro.harness.registry import SerializationError, jsonify
from repro.live.channels import LiveChannel
from repro.live.driver import build_live_runtime
from repro.network import topology
from repro.network.channels import DelayPolicy
from repro.network.churn import ChurnProcess, MobileGeometricChurn, RotatingBackboneChurn
from repro.network.discovery import DiscoveryPolicy, UniformDiscovery
from repro.oracle.oracle import OracleError, StreamingOracle
from repro.sweep.aggregate import _dig
from repro.sweep.spec import Axis, zip_
from repro.tracing.spans import SpanTable

PARAMS = SystemParams.for_network(8)
RNG = np.random.default_rng(0)


def _live_cfg(**overrides):
    return configs.live_ring(8, duration=0.2, **overrides)


CHECKS = {
    # network topologies
    "star_n": (lambda: topology.star_edges(1), ValueError, "a star needs n >= 2"),
    "geometric_n": (lambda: topology.random_geometric(1, 0.5, RNG), ValueError, "n must be >= 2"),
    "geometric_radius": (
        lambda: topology.random_geometric(4, 0.0, RNG), ValueError, "radius must be positive"
    ),
    # workloads and specs
    "spec_size": (
        lambda: configs.build({**configs.static_ring.spec}), TypeError, r"spec is missing its size \['n'\]"
    ),
    "positional_size": (
        lambda: configs.static_ring(6, 7), TypeError, r"static_ring\(\) takes at most 1 positional"
    ),
    "size_twice": (
        lambda: configs.static_ring(6, n=7), TypeError, r"static_ring\(\) got multiple values for \['n'\]"
    ),
    "rotating_overlap": (
        lambda: configs.rotating_backbone(8, window=1.0, overlap=2.0),
        ValueError, "window must exceed the overlap",
    ),
    "json_keys": (lambda: jsonify({1: 2}), SerializationError, "dict keys must be strings; got 1"),
    "live_algorithm": (
        lambda: build_live_runtime(_live_cfg(algorithm="nope")), ValueError, "unknown algorithm 'nope'"
    ),
    # sweeps
    "empty_axis": (lambda: Axis(()), ValueError, "an axis must contain at least one point"),
    "empty_zip": (lambda: zip_(), ValueError, r"zip_\(\) needs at least one keyword range"),
    "config_field": (lambda: _dig({"params": {}}, "params.n"), KeyError, "config has no field 'params.n'"),
    # delays, discovery, churn
    "mobile_radius": (
        lambda: MobileGeometricChurn(np.zeros((4, 2)), 0.0, 0.1, 1.0, RNG),
        ValueError, "radius/update_interval must be positive",
    ),
    "backbone_window": (
        lambda: RotatingBackboneChurn(8, 0.0, 1.0, RNG, horizon=10.0),
        ValueError, "window and overlap must be positive",
    ),
    # adversaries
    "adversary_period": (lambda: PeriodicAdversary(0.0), ValueError, "period must be positive; got 0.0"),
    "combined_parts": (lambda: CombinedAdversary([]), ValueError, "needs at least one part"),
    "masking_bound": (
        lambda: AdaptiveMaskingDelayPolicy({}, -1.0), ValueError, "max_delay must be >= 0; got -1.0"
    ),
    "delay_nodes": (
        lambda: DelayAdversary().install(None, None, {}), ValueError, "needs at least one node"
    ),
    "drift_rho": (lambda: DriftAdversary(-0.1, 1.0), ValueError, "rho must be >= 0; got -0.1"),
    "drift_late": (
        lambda: DriftAdversary(0.01, 1.0).on_install(), RuntimeError, "must be installed at t = 0"
    ),
    # bounds, oracle, tracing
    "b_ages": (
        lambda: BFunction(1.0, 2.0, 0.5).evaluate(np.array([-1.0])), ValueError, "edge ages must be >= 0"
    ),
    "envelope_ages": (
        lambda: dynamic_local_skew_batch(PARAMS, np.array([-1.0])), ValueError, "edge ages must be >= 0"
    ),
    "oracle_recorded": (
        lambda: StreamingOracle(PARAMS, max_recorded=-1), OracleError, "max_recorded must be >= 0"
    ),
    "span_capacity": (lambda: SpanTable(0), ValueError, "capacity must be positive; got 0"),
    # interface stubs
    "delay_stub": (lambda: DelayPolicy().delay(0, 1, 0.0), NotImplementedError, None),
    "discovery_stub": (lambda: DiscoveryPolicy().latency(0, 1, True, 0.0), NotImplementedError, None),
    "churn_stub": (lambda: ChurnProcess().install(None, None), NotImplementedError, None),
    "adversary_stub": (lambda: Adversary().install(None, None, {}), NotImplementedError, None),
    "periodic_stub": (lambda: PeriodicAdversary(1.0).observe_and_act(1.0), NotImplementedError, None),
    "channel_open_stub": (
        lambda: asyncio.run(LiveChannel().open(print, [0])), NotImplementedError, None
    ),
    "channel_send_stub": (lambda: LiveChannel().send(0, 1, ()), NotImplementedError, None),
    "channel_close_stub": (lambda: asyncio.run(LiveChannel().aclose()), NotImplementedError, None),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_refused(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message):
        call()


def test_numpy_scalars_serialise_as_python_numbers():
    assert jsonify({"a": np.float64(0.5), "b": [np.int64(3)]}) == {"a": 0.5, "b": [3]}


def test_a_degenerate_uniform_discovery_is_constant():
    assert UniformDiscovery(0.25, 0.25, RNG).latency(0, 1, True, 0.0) == 0.25


def test_a_few_tries_of_a_sparse_geometric_graph_still_connect():
    edges, _pos = topology.random_geometric(24, 0.12, np.random.default_rng(1), max_tries=1)
    nodes = set(range(24))
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    assert reached == nodes
