"""Workloads and metric definitions of the repository benchmark.

Shared by ``run.py`` (the orchestrator) and ``worker.py`` (one cold
workload process).  Every workload regenerates a slice of the figure set
at the ``full`` preset; together they cover every registered experiment
exactly once, so the sum of their ``run_s`` is the whole figure set.

``python3 perfbench/run.py --manifest`` renders ``BENCHMARK.json`` from
the tables below, so the manifest and the metrics the benchmark reports
cannot drift apart.
"""

from __future__ import annotations

#: Workload name -> (experiments in registry order, why it was chosen).
WORKLOADS: dict[str, tuple[tuple[str, ...], str]] = {
    "link_faults": (
        ("fig20_link_dynamics",),
        "fig20 alone: ~75% of its time is the Gilbert-Elliott trajectory scan, "
        "over routing ensembles; the largest memory footprint",
    ),
    "phy_sync": (
        (
            "fig12", "fig13", "fig14", "fig15", "fig16",
            "overhead", "ablation_combining", "ablation_slope",
        ),
        "PHY encode/detect/Viterbi, core joint-frame and header engines, channel "
        "propagation; touches no routing, net, traffic or link dynamics",
    ),
    "mesh_flows": (
        ("fig17", "fig18", "fig19_traffic_load"),
        "routing ensembles, ETX/networkx and many small chained lanes: long "
        "fault-free mesh transfers (fig18) next to many short flows (fig19)",
    ),
}

#: Every registered experiment, for the per-experiment ``run_s`` metrics.
EXPERIMENTS: tuple[str, ...] = tuple(name for names, _ in WORKLOADS.values() for name in names)

#: Offset added to every experiment's pinned preset seed: workload seed 0
#: reproduces the pinned ``full`` presets exactly.
DEFAULT_SEED = 0

#: Seed kept out of day-to-day development: a performance claim made on
#: other seeds is re-checked on this one.
HELD_OUT_SEED = 1009

#: Seeds whose summary digests ``references.json`` records.
RECORDED_SEEDS: tuple[int, ...] = (*range(11), HELD_OUT_SEED)

#: End-to-end metrics: name -> (unit, better, bound as a share of the
#: parent's median).  On a shared two-core machine the median of a run
#: moves by up to ~20% between runs (other tenants slow the whole machine
#: for tens of seconds at a time), so the time bounds sit just above that;
#: ``setup_s`` carries the largest one.  Peak memory repeats within 1%.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "run_s": ("s", "lower", 0.24),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_ALL = "link_faults, phy_sync, mesh_flows"

#: Per-layer metrics of the traced run: name -> (unit, better, end-to-end
#: metric it should move, workload(s) where it should move).
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "channel.trajectory.calls": ("count", "lower", "run_s", "link_faults (0 on the others)"),
    "channel.trajectory.self_s": ("s", "lower", "run_s, peak_rss_mb", "link_faults"),
    "channel.trajectory.slots": ("count", "lower", "run_s, peak_rss_mb", "link_faults"),
    "channel.propagate.self_s": ("s", "lower", "run_s", "phy_sync"),
    "channel.awgn.self_s": ("s", "lower", "run_s", "phy_sync"),
    "phy.encode.self_s": ("s", "lower", "run_s", "phy_sync"),
    "phy.detect.self_s": ("s", "lower", "run_s", "phy_sync"),
    "phy.decode.self_s": ("s", "lower", "run_s", "phy_sync"),
    "phy.decode.bits": ("count", "lower", "run_s", "phy_sync"),
    "core.header_exchange.calls": ("count", "lower", "run_s", "phy_sync"),
    "core.header_exchange.self_s": ("s", "lower", "run_s", "phy_sync"),
    "core.joint_frames.self_s": ("s", "lower", "run_s", "phy_sync"),
    "core.frames": ("count", "lower", "run_s", "phy_sync"),
    "core.sender.self_s": ("s", "lower", "run_s", "phy_sync"),
    "engine.lanes": ("count", "lower", "run_s", "mesh_flows, link_faults"),
    "engine.waves": ("count", "lower", "run_s", "mesh_flows, link_faults"),
    "engine.self_s": ("s", "lower", "run_s", "mesh_flows, link_faults"),
    "routing.exor.self_s": ("s", "lower", "run_s", "mesh_flows, link_faults"),
    "routing.single_path.self_s": ("s", "lower", "run_s", "mesh_flows, link_faults"),
    "routing.link_local.self_s": ("s", "lower", "run_s", "link_faults"),
    "routing.downlink.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "routing.transfers": ("count", "lower", "run_s", "mesh_flows, link_faults"),
    "net.topology.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "net.etx.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "net.networkx.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "traffic.flows": ("count", "lower", "run_s", "mesh_flows, link_faults"),
    "traffic.service.self_s": ("s", "lower", "run_s", "mesh_flows, link_faults"),
    "analysis.error_models.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "analysis.fct.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "lasthop.self_s": ("s", "lower", "run_s", "mesh_flows"),
    "hardware.frontend.self_s": ("s", "lower", "run_s", "phy_sync"),
    **{
        f"experiments.{name}.run_s": ("s", "lower", "run_s", workload)
        for workload, (names, _) in WORKLOADS.items()
        for name in names
    },
    "experiments.self_s": ("s", "lower", "run_s", _ALL),
    "import.repro_s": ("s", "lower", "setup_s", _ALL),
    "import.numpy_s": ("s", "lower", "setup_s", _ALL),
    "import.scipy_s": ("s", "lower", "setup_s", _ALL),
    "import.networkx_s": ("s", "lower", "setup_s", _ALL),
    "import.other_s": ("s", "lower", "setup_s", _ALL),
    "import.total_s": ("s", "lower", "setup_s", _ALL),
    "cache.phy.hit_ratio": ("ratio", "higher", "run_s", "phy_sync"),
    "cache.phy.lookups": ("count", "lower", "run_s", "phy_sync"),
    "cache.net_mac.hit_ratio": ("ratio", "higher", "run_s", "mesh_flows"),
    "cache.net_mac.lookups": ("count", "lower", "run_s", "mesh_flows"),
    "net.testbed.reuse_ratio": ("ratio", "higher", "run_s", "mesh_flows"),
    "net.testbed.link_profile_calls": ("count", "lower", "run_s", "mesh_flows"),
    "net.testbed.distinct_links": ("count", "lower", "run_s", "mesh_flows"),
    "trace.overhead_s": ("s", "lower", "none (keeps the trace honest)", _ALL),
    "trace.coverage": ("ratio", "higher", "none (keeps the trace honest)", _ALL),
}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document describing this benchmark."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }
