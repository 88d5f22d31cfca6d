"""Simulation engines: single-VM epoch loop, multi-VM sharing and the
runner API.

The package re-exports the run path only.  The parallel/cached
experiment layer (:mod:`repro.sim.parallel`: ``ExperimentSpec``,
``run_specs``, ``ResultCache``, ...) and trace record/replay
(:mod:`repro.sim.trace`) are imported from their submodules, so a
single run never loads the sweep layer.
"""

from repro.sim.stats import RunResult, RunStats, gain_percent, slowdown_factor
from repro.sim.engine import SimulationEngine, build_custom_vm, build_single_vm
from repro.sim.runner import run_experiment
from repro.sim.multi_vm import MultiVmSimulation, VmSpec

__all__ = [
    "RunStats",
    "RunResult",
    "gain_percent",
    "slowdown_factor",
    "SimulationEngine",
    "build_single_vm",
    "build_custom_vm",
    "run_experiment",
    "MultiVmSimulation",
    "VmSpec",
]
