"""Outside-in layer tracing for the benchmark's traced run.

Nothing in ``src/repro`` knows about this module.  :class:`Tracer`
replaces a fixed set of coarse layer entry points with timing wrappers —
in the defining module or class *and* in every loaded ``repro.*``
namespace that binds the same function by name — and puts the originals
back on :meth:`Tracer.restore`.  Wrappers only read the clock and count
argument or result sizes, so a traced run draws the same random numbers
and produces the same results as an untraced one.

A span's *self time* is its duration minus the time of the spans nested
inside it, so the self times of all layers partition the traced time
without double counting.  Lane lifecycle methods (``prime``, ``setup``,
``advance``, ...) are *transparent* spans: they stop the scheduler's
clock and charge the layer that started the lockstep run, so
``engine.self_s`` is the scheduler's own bookkeeping.

Functions called tens of thousands of times per run (``db_to_linear``,
``receiver_multipliers``, ...) are deliberately not wrapped; their time
stays in the calling layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable

#: Public methods and functions of the whole module.
PUBLIC = "*"

#: (layer, module, entry points): ``Class.method``, a function name, or
#: :data:`PUBLIC`.  A layer may list entry points in several modules.
ENTRY_POINTS: tuple[tuple[str, str, Any], ...] = (
    ("channel.trajectory", "repro.channel.dynamics", (
        "materialise_trajectory", "trajectory_from_uniforms", "trajectory_from_states",
        "GilbertElliott.evolve_states", "LinkDynamics.draw_state_uniforms",
    )),
    ("channel.propagate", "repro.channel.composite", (
        "propagate_rows", "combine_ensemble_at_receiver",
    )),
    ("channel.awgn", "repro.channel.awgn", ("awgn",)),
    ("phy.encode", "repro.phy.transmitter", ("encode_payloads_to_symbols",)),
    ("phy.detect", "repro.phy.detection", ("detect_packet_autocorrelation_batch",)),
    ("phy.decode", "repro.phy.coding.convolutional", ("ConvolutionalCode.decode_batch",)),
    ("core.header_exchange", "repro.core.ensemble", ("run_header_exchanges_batch",)),
    ("core.header_exchange", "repro.core.receiver", ("JointReceiver.measure_header_batch",)),
    ("core.joint_frames", "repro.core.ensemble", ("run_joint_frames_batch",)),
    ("core.joint_frames", "repro.core.receiver", ("JointReceiver.receive_many",)),
    ("core.sender", "repro.core.sender", (
        "LeadSender.header_waveform", "LeadSender.build_waveform", "CoSender.build_waveform",
    )),
    ("engine", "repro.engine.scheduler", ("LockstepScheduler.run",)),
    ("routing.exor", "repro.routing.ensemble", ("simulate_exor_ensemble",)),
    ("routing.single_path", "repro.routing.ensemble", ("simulate_single_path_ensemble",)),
    ("routing.link_local", "repro.routing.ensemble", ("simulate_link_local_ensemble",)),
    ("routing.downlink", "repro.routing.ensemble", ("simulate_downlink_ensemble",)),
    ("net.topology", "repro.net.topology", (
        "Testbed.joint_delivery_prob_row", "Testbed.from_positions",
    )),
    ("net.etx", "repro.net.etx", ("etx_graph", "best_route", "forwarder_order")),
    ("traffic.service", "repro.traffic.service", ("simulate_flow_services",)),
    ("analysis.error_models", "repro.analysis.error_models", (
        "delivery_probabilities_rates", "combined_subcarrier_snr_batch",
    )),
    ("analysis.fct", "repro.analysis.fct", ("extract_fct",)),
    ("lasthop", "repro.lasthop.controller", PUBLIC),
    ("hardware.frontend", "repro.hardware.frontend", PUBLIC),
    ("experiments", "repro.experiments.registry", ("ExperimentSpec.run",)),
)

#: Layers whose self time is reported as ``<layer>.self_s``; ``net.networkx``
#: is the ``networkx`` calls made from ``repro.net.etx``.
LAYERS: tuple[str, ...] = (
    *dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS), "net.networkx",
)

#: Layers whose entries (calls from outside the layer) are reported as ``<layer>.calls``.
CALL_COUNTED = ("channel.trajectory", "core.header_exchange")

#: Lane lifecycle methods traced as transparent spans.
LANE_METHODS = ("prime_lanes", "prime", "setup", "advance", "advance_lanes", "result")

#: ``lru_cache`` groups: counter prefix -> modules whose caches it sums.
CACHE_GROUPS = {
    "cache.phy": ("repro.phy.params", "repro.phy.preamble", "repro.phy.coding.convolutional"),
    "cache.net_mac": ("repro.net.mac",),
}


#: (module, entry point) -> counter fed with ``(counts, args, result)``.
_COUNTERS: dict[tuple[str, str], Callable[[Counter, tuple, Any], None]] = {
    ("repro.channel.dynamics", "GilbertElliott.evolve_states"):
        lambda counts, args, result: counts.update(
            {"channel.trajectory.slots": result.size // result.shape[-1]}  # lane-slots evolved
        ),
    ("repro.phy.coding.convolutional", "ConvolutionalCode.decode_batch"):
        lambda counts, args, result: counts.update({"phy.decode.bits": int(result.size)}),
    ("repro.core.ensemble", "run_joint_frames_batch"):
        lambda counts, args, result: counts.update({"core.frames": sum(map(len, args[1]))}),
    ("repro.engine.scheduler", "LockstepScheduler.run"):
        lambda counts, args, result: counts.update({"engine.lanes": len(args[1])}),
    ("repro.traffic.service", "simulate_flow_services"):
        lambda counts, args, result: counts.update({"traffic.flows": sum(map(len, result.values()))}),
    **{
        ("repro.routing.ensemble", f"simulate_{kind}_ensemble"):
            lambda counts, args, result: counts.update({"routing.transfers": len(args[0])})
        for kind in ("exor", "single_path", "link_local", "downlink")
    },
}


def cache_totals() -> dict[str, tuple[int, int]]:
    """``(hits, misses)`` summed over the ``lru_cache`` memos of each group."""
    totals = {}
    for prefix, module_names in CACHE_GROUPS.items():
        hits = misses = 0
        for module_name in module_names:
            module = sys.modules[module_name]
            owners = [module] + [
                obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module_name
            ]
            for owner in owners:
                for obj in vars(owner).values():
                    if hasattr(obj, "cache_info"):
                        info = obj.cache_info()
                        hits += info.hits
                        misses += info.misses
        totals[prefix] = (hits, misses)
    return totals


class _Frame:
    """One open span: its layer, start time and time of nested spans."""

    __slots__ = ("layer", "start", "child_s")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class _SchedulerRun:
    """Wave bookkeeping of one ``LockstepScheduler.run`` call.

    ``touched`` holds the lanes advanced in the current wave or set up
    since it began.  Every lane of the next wave was one or the other, so
    the first advance of a touched lane starts a new wave — exact for
    chained lanes that are set up mid-wave and first advance in the next.
    """

    __slots__ = ("touched", "advancing")

    def __init__(self) -> None:
        self.touched: set[int] = set()
        self.advancing = 0


class Tracer:
    """Span recorder over the layer entry points; see the module docstring."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._runs: list[_SchedulerRun] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._testbeds: dict[int, tuple[weakref.ref, set]] = {}

    # -- spans ---------------------------------------------------------
    def _enter(self, layer: str | None) -> None:
        stack = self._stack
        if layer is None:  # transparent: charge the layer that started the run
            layer = next(
                (frame.layer for frame in reversed(stack) if frame.layer != "engine"),
                "experiments",
            )
        elif not stack or stack[-1].layer != layer:
            self.counts[f"{layer}.calls"] += 1
        stack.append(_Frame(layer, time.perf_counter()))

    def _exit(self) -> None:
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        self.self_s[frame.layer] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    def _span(self, layer: str | None, fn: Callable, counter=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    # -- engine waves --------------------------------------------------
    def _scheduler_run(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self._runs.append(_SchedulerRun())
            try:
                return fn(*args, **kwargs)
            finally:
                self._runs.pop()

        return run

    def _lane_method(self, name: str, fn: Callable) -> Callable:
        traced = self._span(None, fn)
        if name == "setup":
            def lane_setup(lane, *args, **kwargs):
                if self._runs:
                    self._runs[-1].touched.add(id(lane))
                return traced(lane, *args, **kwargs)

            return functools.wraps(fn)(lane_setup)
        if name not in ("advance", "advance_lanes"):
            return traced

        def lane_advance(*args, **kwargs):
            run = self._runs[-1] if self._runs else None
            if run is None:
                return traced(*args, **kwargs)
            if not run.advancing:
                ids = {id(lane) for lane in args[1]} if name == "advance_lanes" else {id(args[0])}
                if not run.touched.isdisjoint(ids):
                    self.counts["engine.waves"] += 1
                    run.touched.clear()
                run.touched |= ids
            run.advancing += 1
            try:
                return traced(*args, **kwargs)
            finally:
                run.advancing -= 1

        return functools.wraps(fn)(lane_advance)

    # -- testbed link reuse --------------------------------------------
    def _link_profile(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def link_profile(testbed, *args, **kwargs):
            entry = self._testbeds.get(id(testbed))
            if entry is None or entry[0]() is not testbed:
                entry = (weakref.ref(testbed), set())
                self._testbeds[id(testbed)] = entry
            key = (args, tuple(sorted(kwargs.items())))
            if key not in entry[1]:
                entry[1].add(key)
                self.counts["net.testbed.distinct_links"] += 1
            self.counts["net.testbed.link_profile_calls"] += 1
            return fn(testbed, *args, **kwargs)

        return link_profile

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(original)``; functions everywhere they are bound."""
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._restore.append((owner, name, raw))
        setattr(owner, name, replacement)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module is owner or module_name.partition(".")[0] != "repro":
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._restore.append((module, alias, raw))
                    setattr(module, alias, replacement)

    def install(self) -> None:
        """Wrap every entry point; call once, after the workload's modules are imported."""
        for layer, module_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for owner, name in _resolve(module, names):
                qualname = f"{owner.__name__}.{name}" if isinstance(owner, type) else name
                counter = _COUNTERS.get((module_name, qualname))
                if qualname == "LockstepScheduler.run":
                    self._patch(owner, name, lambda fn: self._span(
                        layer, self._scheduler_run(fn), counter
                    ))
                else:
                    self._patch(owner, name, lambda fn: self._span(layer, fn, counter))
        from repro.engine.lane import Lane

        for cls in _subclasses(Lane):
            for name in LANE_METHODS:
                if name in vars(cls):
                    self._patch(cls, name, lambda fn: self._lane_method(name, fn))
        from repro.net.topology import Testbed

        self._patch(Testbed, "link_profile", self._link_profile)
        etx = importlib.import_module("repro.net.etx")
        self._restore.append((etx, "nx", etx.nx))
        etx.nx = _ModuleProxy(etx.nx, lambda fn: self._span("net.networkx", fn))

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def report(self, run_s: float) -> dict[str, float]:
        """Per-layer self times, counts and coverage of one traced run."""
        metrics: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for layer in CALL_COUNTED:
            metrics[f"{layer}.calls"] = self.counts[f"{layer}.calls"]
        for name in (
            "channel.trajectory.slots", "phy.decode.bits", "core.frames", "engine.lanes",
            "engine.waves", "routing.transfers", "traffic.flows",
            "net.testbed.link_profile_calls", "net.testbed.distinct_links",
        ):
            metrics[name] = self.counts[name]
        calls = metrics["net.testbed.link_profile_calls"]
        metrics["net.testbed.reuse_ratio"] = (
            (calls - metrics["net.testbed.distinct_links"]) / calls if calls else 0.0
        )
        below = sum(seconds for layer, seconds in self.self_s.items() if layer != "experiments")
        metrics["trace.coverage"] = below / run_s
        return metrics


class _ModuleProxy:
    """Stands in for a module, wrapping its plain callables on attribute access."""

    def __init__(self, module: Any, wrap: Callable[[Callable], Callable]) -> None:
        self._module = module
        self._wrap = wrap
        self._wrapped: dict[str, Callable] = {}

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._module, name)
        if not callable(value) or isinstance(value, type):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._wrap(value)
        return self._wrapped[name]


_METHOD_TYPES = (types.FunctionType, classmethod, staticmethod)


def _resolve(module: Any, names: Any) -> list[tuple[Any, str]]:
    """(owner, attribute) pairs for an entry-point list of ``module``."""
    if names != PUBLIC:
        pairs = []
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            pairs.append((getattr(module, owner_name) if owner_name else module, attr))
        return pairs
    pairs = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            pairs.extend(
                (obj, attr) for attr, member in vars(obj).items()
                if not attr.startswith("_") and isinstance(member, _METHOD_TYPES)
            )
        elif isinstance(obj, types.FunctionType):
            pairs.append((module, name))
    return pairs


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass currently defined, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
