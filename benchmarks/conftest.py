"""Make the library importable when the package is not installed."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# The repository root, so ratio benchmarks can import the conformance
# kit's sequential oracles (``tests.engine.experiment_oracles``).
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.dirname(__file__))
