"""Dynamic-network substrate: graphs, channels, discovery, transport, churn.

Implements the network model of Section 3.2 of the paper: an event-sourced
dynamic graph over a fixed node set (:class:`DynamicGraph`, the run's one
record of the topology: observers read its history, and its event list
replays as a :class:`ScriptedChurn`), bounded-delay FIFO channels
(:mod:`repro.network.channels`), topology discovery with latency bound
:math:`\\mathcal{D}` (:mod:`repro.network.discovery`), the delivery
contract tying them together (:class:`Transport`), plus topology builders
and churn processes used by the experiments.
"""

from .channels import ConstantDelay, DelayPolicy, UniformDelay
from .churn import (
    ChurnProcess,
    EdgeFlapper,
    MobileGeometricChurn,
    RandomRewirer,
    RotatingBackboneChurn,
    ScriptedChurn,
)
from .discovery import ConstantDiscovery, DiscoveryPolicy, UniformDiscovery
from .graph import DynamicGraph, GraphError, edge_key
from .topology import (
    grid_edges,
    path_edges,
    random_geometric,
    ring_edges,
    star_edges,
    two_chain_edges,
)
from .transport import NodeInterface, Transport, TransportStats

__all__ = [
    "ChurnProcess",
    "ConstantDelay",
    "ConstantDiscovery",
    "DelayPolicy",
    "DiscoveryPolicy",
    "DynamicGraph",
    "EdgeFlapper",
    "GraphError",
    "MobileGeometricChurn",
    "NodeInterface",
    "RandomRewirer",
    "RotatingBackboneChurn",
    "ScriptedChurn",
    "Transport",
    "TransportStats",
    "UniformDelay",
    "UniformDiscovery",
    "edge_key",
    "grid_edges",
    "path_edges",
    "random_geometric",
    "ring_edges",
    "star_edges",
    "two_chain_edges",
]
