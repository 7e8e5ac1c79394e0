"""Set-up probe: the work a fresh process does before its first state.

It imports phasenorm from the checkout's ``src`` and warms the cached
baseline (which runs the planar quadrature and its closed-form check), then
prints the system-wide monotonic clock.  run.py subtracts the moment it
started this process.  Usage: ``python3 perfbench/setup_probe.py TOL``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import phasenorm  # noqa: E402

phasenorm.baseline_with_error(phasenorm.CG, phasenorm.FunctionalSpec(), float(sys.argv[1]))
print(time.monotonic())
