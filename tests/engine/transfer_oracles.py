"""Scalar per-attempt oracles of the route-following schemes.

Production single-path and link-local transfers share one per-attempt loop
(:func:`repro.routing.link_local._transfer`), which draws an upper-bound
uniform block, consumes it, and rewinds the generator to the consumed
count.  The loops here run the same transfers the obvious way — one
``rng.random()`` per transmission attempt — so a test that compares the
results *and* the generator's following draws proves the block draw
consumes exactly the scalar stream.

:func:`single_path_scalar` keeps single path's own retry loop rather than
reusing the link-local one, so it also checks that single path is
link-local recovery with a zero budget.
"""

from __future__ import annotations

import numpy as np

from repro.channel.dynamics import LinkDynamics, materialise_trajectory
from repro.net.etx import best_route, etx_graph
from repro.net.mac import CsmaState, MacTiming
from repro.net.topology import Testbed
from repro.phy.rates import rate_for_mbps
from repro.routing.link_local import LinkLocalConfig, LinkLocalResult
from repro.routing.single_path import SinglePathResult


def _route(testbed: Testbed, src: int, dst: int, probe_rate_mbps: float, probe_bytes: int):
    graph = etx_graph(testbed, probe_rate_mbps=probe_rate_mbps, probe_bytes=probe_bytes)
    return best_route(graph, src, dst)


def single_path_scalar(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    n_packets: int = 100,
    payload_bytes: int = 1460,
    retry_limit: int = 8,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
    probe_rate_mbps: float = 6.0,
    dynamics: LinkDynamics | None = None,
) -> SinglePathResult:
    """Single-path transfer with one scalar draw per attempt (the 802.11 loop)."""
    timing = timing if timing is not None else MacTiming(params=testbed.params)
    rate = rate_for_mbps(rate_mbps)
    route = _route(testbed, src, dst, probe_rate_mbps, payload_bytes)
    if route is None or len(route) < 2:
        return SinglePathResult(0.0, 0, n_packets, 0, tuple(route or ()))
    trajectory = None
    if dynamics is not None:
        trajectory = materialise_trajectory(dynamics, testbed.node_ids, rate_mbps, rng)
    mac = CsmaState()
    per_attempt_us = timing.single_transaction_us(payload_bytes, rate)
    delivered = 0
    for _ in range(n_packets):
        packet_alive = True
        for hop_src, hop_dst in zip(route[:-1], route[1:]):
            success = False
            for _attempt in range(retry_limit):
                if trajectory is None:
                    got_through = testbed.attempt_delivery(
                        hop_src, hop_dst, rate, payload_bytes, rng
                    )
                else:
                    prob = testbed.delivery_probability(hop_src, hop_dst, rate, payload_bytes)
                    got_through = bool(
                        rng.random()
                        < prob * trajectory.pair_multiplier(mac.transmissions, hop_src, hop_dst)
                    )
                mac.account(per_attempt_us, got_through)
                if got_through:
                    success = True
                    break
            if not success:
                packet_alive = False
                break
        if packet_alive:
            delivered += 1
    return SinglePathResult(
        throughput_mbps=mac.throughput_mbps(delivered * payload_bytes * 8),
        delivered_packets=delivered,
        total_packets=n_packets,
        transmissions=mac.transmissions,
        route=tuple(route),
        elapsed_us=mac.elapsed_us,
    )


def link_local_scalar(
    testbed: Testbed,
    src: int,
    dst: int,
    rate_mbps: float,
    n_packets: int = 100,
    config: LinkLocalConfig | None = None,
    rng: np.random.Generator | None = None,
    timing: MacTiming | None = None,
) -> LinkLocalResult:
    """Link-local transfer with one scalar draw per attempt."""
    config = config if config is not None else LinkLocalConfig()
    timing = timing if timing is not None else MacTiming(params=testbed.params)
    rate = rate_for_mbps(rate_mbps)
    route = _route(testbed, src, dst, config.probe_rate_mbps, config.payload_bytes)
    if route is None or len(route) < 2:
        return LinkLocalResult(0.0, 0, n_packets, 0, 0, 0, tuple(route or ()))
    trajectory = None
    if config.dynamics is not None:
        trajectory = materialise_trajectory(config.dynamics, testbed.node_ids, rate_mbps, rng)
    mac = CsmaState()
    per_attempt_us = timing.single_transaction_us(config.payload_bytes, rate)
    timeout_us = config.timeout_fraction * per_attempt_us
    delivered = local_retransmissions = e2e_retries = 0
    for _ in range(n_packets):
        for e2e_pass in range(1 + config.e2e_retry_limit):
            route_ok = True
            for hop_src, hop_dst in zip(route[:-1], route[1:]):
                prob = testbed.delivery_probability(hop_src, hop_dst, rate, config.payload_bytes)
                hop_ok = False
                for local_try in range(1 + config.local_retry_limit):
                    if local_try > 0:
                        mac.elapsed_us += timeout_us * config.backoff_factor ** (local_try - 1)
                        local_retransmissions += 1
                    effective = prob
                    if trajectory is not None:
                        effective = prob * trajectory.pair_multiplier(
                            mac.transmissions, hop_src, hop_dst
                        )
                    got_through = bool(rng.random() < effective)
                    mac.account(per_attempt_us, got_through)
                    if got_through:
                        hop_ok = True
                        break
                if not hop_ok:
                    route_ok = False
                    break
            if route_ok:
                delivered += 1
                break
            if e2e_pass < config.e2e_retry_limit:
                e2e_retries += 1
    return LinkLocalResult(
        throughput_mbps=mac.throughput_mbps(delivered * config.payload_bytes * 8),
        delivered_packets=delivered,
        total_packets=n_packets,
        transmissions=mac.transmissions,
        local_retransmissions=local_retransmissions,
        e2e_retries=e2e_retries,
        route=tuple(route),
        elapsed_us=mac.elapsed_us,
    )
