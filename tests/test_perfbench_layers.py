"""Tooling guard: the benchmark's layer tracer resolves against the tree.

``perfbench/layers.py`` wraps layer entry points from outside the package,
by module and attribute name (``ENTRY_POINTS``), and feeds counters keyed
the same way (``_COUNTERS``).  A rename or deletion in ``src/repro`` would
otherwise surface only when a traced benchmark run (``--trace 1``) fails.
These tests only read ``perfbench/``.
"""

import importlib

import pytest

from perfbench import layers


def _declared_entry_points():
    """``(module name, qualname, owner, attribute)`` for every resolved entry point."""
    found = []
    for _, module_name, names in layers.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for owner, attr in layers._resolve(module, names):
            qualname = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            found.append((module_name, qualname, owner, attr))
    return found


@pytest.mark.parametrize(
    "layer, module_name, names",
    layers.ENTRY_POINTS,
    ids=[f"{layer}:{module}" for layer, module, _ in layers.ENTRY_POINTS],
)
def test_every_entry_point_resolves(layer, module_name, names):
    module = importlib.import_module(module_name)
    pairs = layers._resolve(module, names)
    assert pairs, f"{layer}: {module_name} exposes no entry point"
    for owner, attr in pairs:
        assert callable(getattr(owner, attr, None)), f"{layer}: {module_name} lacks {attr}"


def test_every_counter_names_a_declared_entry_point():
    declared = {(module_name, qualname) for module_name, qualname, _, _ in _declared_entry_points()}
    missing = sorted(set(layers._COUNTERS) - declared)
    assert not missing, f"counters keyed to no entry point: {missing}"


def _bound(owner, attr):
    """The raw attribute (a class's own dict entry, so methods compare by identity)."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_restores():
    entry_points = [(owner, attr) for _, _, owner, attr in _declared_entry_points()]
    originals = [_bound(owner, attr) for owner, attr in entry_points]
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    for (owner, attr), original in zip(entry_points, originals):
        assert _bound(owner, attr) is original, f"{owner}.{attr} was not restored"
