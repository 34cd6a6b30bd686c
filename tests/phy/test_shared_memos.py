"""Shared memoised state is read-only.

Every ``functools.lru_cache`` memo in :mod:`repro.phy`,
:mod:`repro.net.mac` and :mod:`repro.channel.dynamics` hands the *same*
object to every caller in the process, so an in-place write by one
caller would silently change every later result.  This test finds each memo, calls it with its default
arguments (plus a fixed value for each required one), and asserts that
every ndarray reachable from the returned value — the value itself and
its attributes — rejects writes.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro.phy
from repro.net.mac import MacTiming
from repro.phy.params import DEFAULT_PARAMS
from repro.phy.rates import rate_for_mbps

#: Value used for each required (default-less) memo argument, by name.
REQUIRED_ARGS = {
    "params": DEFAULT_PARAMS,
    "payload_bytes": 1460,
    "rate": rate_for_mbps(12.0),
    "n_cosenders": 1,
    "n_nodes": 4,
}

#: Instance bound to ``self`` for memoised methods, by owning class name.
INSTANCES = {
    "Rate": rate_for_mbps(12.0),
    "MacTiming": MacTiming(),
}


def _memo_modules():
    modules = [importlib.import_module(name) for name in ("repro.net.mac", "repro.channel.dynamics")]
    for info in pkgutil.walk_packages(repro.phy.__path__, "repro.phy."):
        modules.append(importlib.import_module(info.name))
    return modules


def _memos():
    """``(qualified name, memo, bound instance or None)`` for every memo."""
    found = {}
    for module in _memo_modules():
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = (value, None)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, "cache_info"):
                        found[f"{module.__name__}.{name}.{attr}"] = (member, INSTANCES[name])
    return sorted((name, memo, owner) for name, (memo, owner) in found.items())


def _call(memo, owner):
    """Call ``memo`` with its defaults and :data:`REQUIRED_ARGS` for the rest."""
    args = [] if owner is None else [owner]
    kwargs = {}
    parameters = list(inspect.signature(memo.__wrapped__).parameters.values())
    for parameter in parameters[len(args):]:
        if parameter.default is inspect.Parameter.empty:
            kwargs[parameter.name] = REQUIRED_ARGS[parameter.name]
    return memo(*args, **kwargs)


def _reachable_arrays(value):
    """The value itself and its attributes, keeping the ndarrays."""
    candidates = [value, *getattr(value, "__dict__", {}).values()]
    return [item for item in candidates if isinstance(item, np.ndarray)]


def test_shared_memos_are_read_only():
    memos = _memos()
    names = {name for name, _, _ in memos}
    # Guard the discovery itself: a silent miss would pass vacuously.
    assert {
        "repro.phy.coding.convolutional.get_code",
        "repro.phy.params._occupied_bins",
        "repro.phy.preamble.long_training_field",
        "repro.phy.rates.Rate.data_bits_per_ofdm_symbol",
        "repro.net.mac.MacTiming.joint_transaction_us",
        "repro.channel.dynamics._link_columns",
    } <= names
    writable = []
    for name, memo, owner in memos:
        value = _call(memo, owner)
        assert _call(memo, owner) is value, f"{name} does not return its memoised object"
        for array in _reachable_arrays(value):
            if array.flags.writeable:
                writable.append(name)
            elif array.size:
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]
    assert not writable, f"memos exposing writable arrays: {sorted(set(writable))}"
