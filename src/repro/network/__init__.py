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

from .channels import (
    ConstantDelay,
    DelayPolicy,
    DirectionalDelay,
    PerEdgeDelay,
    UniformDelay,
)
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
    binary_tree_edges,
    complete_edges,
    diameter_of,
    grid_edges,
    path_edges,
    random_geometric,
    random_regular_edges,
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
    "DirectionalDelay",
    "DiscoveryPolicy",
    "DynamicGraph",
    "EdgeFlapper",
    "GraphError",
    "MobileGeometricChurn",
    "NodeInterface",
    "PerEdgeDelay",
    "RandomRewirer",
    "RotatingBackboneChurn",
    "ScriptedChurn",
    "Transport",
    "TransportStats",
    "UniformDelay",
    "UniformDiscovery",
    "binary_tree_edges",
    "complete_edges",
    "diameter_of",
    "edge_key",
    "grid_edges",
    "path_edges",
    "random_geometric",
    "random_regular_edges",
    "ring_edges",
    "star_edges",
    "two_chain_edges",
]
