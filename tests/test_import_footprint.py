"""Import-footprint guard: scipy loads only when the §4.6 LP is solved.

``optimize_wait_times`` is the package's only scipy call and no experiment
makes it, so importing scipy eagerly would charge every cold process
(CLI, benchmark worker, test run) for ``scipy.optimize``.  The probe runs
in a fresh interpreter because this test process may already hold scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_PROBE = """
import json, pkgutil, importlib, sys

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import repro, repro.experiments
after_experiments = scipy_loaded()
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        importlib.import_module(info.name)
after_every_module = scipy_loaded()

import numpy as np
from repro.core.sync.multi_receiver import optimize_wait_times
solution = optimize_wait_times(np.array([[2.0, 8.0]]), np.array([6.0, 4.0]))
print(json.dumps({
    "after_experiments": after_experiments,
    "after_every_module": after_every_module,
    "after_solve": "scipy.optimize" in sys.modules,
    "success": bool(solution.success),
}))
"""


def test_scipy_is_imported_on_the_first_lp_solve_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe["after_experiments"] == []
    assert probe["after_every_module"] == []
    assert probe["after_solve"]
    assert probe["success"]
