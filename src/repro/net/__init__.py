"""Network substrate: nodes, testbed topology, ETX metrics, MAC timing."""

from repro.net.etx import (
    best_route,
    cached_route,
    etx_graph,
    etx_to_destination,
    forwarder_order,
    link_etx,
    path_etx,
)
from repro.net.mac import CsmaState, MacTiming
from repro.net.node import MeshNode
from repro.net.topology import Testbed

__all__ = [
    "MeshNode",
    "Testbed",
    "MacTiming",
    "CsmaState",
    "link_etx",
    "etx_graph",
    "path_etx",
    "best_route",
    "cached_route",
    "etx_to_destination",
    "forwarder_order",
]
