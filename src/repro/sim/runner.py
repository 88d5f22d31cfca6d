"""High-level experiment API.

:func:`run_experiment` is the one call benchmarks and examples use: pick
an application (by name or instance), a policy (by name or instance), a
FastMem:SlowMem capacity ratio, and platform knobs; get a
:class:`~repro.sim.stats.RunResult` back.
"""

from __future__ import annotations

from repro.config import SimConfig
from repro.core.policy import PlacementPolicy, make_policy
from repro.errors import ConfigurationError
from repro.hw.cache import CacheConfig
from repro.hw.memdevice import MemoryDevice
from repro.hw.throttle import DEFAULT_SLOWMEM, ThrottleConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import RunResult
from repro.units import GIB, MIB
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


def build_config(
    fast_ratio: float = 0.25,
    slow_gib: float = 8.0,
    throttle: tuple[float, float] | ThrottleConfig | None = None,
    llc_mib: int = 16,
    slow_device: MemoryDevice | None = None,
    unlimited_fast: bool = False,
    seed: int = 7,
) -> SimConfig:
    """Build the evaluation platform of Section 5.1 with the given knobs.

    ``fast_ratio`` is the paper's FastMem:SlowMem capacity ratio (1/2,
    1/4, ... — Figures 3 and 9); ``throttle`` the SlowMem (L, B) setting.
    """
    if fast_ratio < 0:
        raise ConfigurationError("fast ratio must be non-negative")
    if isinstance(throttle, tuple):
        throttle = ThrottleConfig(*throttle)
    slow_bytes = int(slow_gib * GIB)
    fast_bytes = (
        2 * slow_bytes if unlimited_fast else int(slow_bytes * fast_ratio)
    )
    return SimConfig(
        fast_capacity_bytes=fast_bytes,
        slow_capacity_bytes=slow_bytes,
        slow_throttle=throttle or DEFAULT_SLOWMEM,
        slow_device=slow_device,
        llc=CacheConfig(capacity_bytes=llc_mib * MIB),
        seed=seed,
    )


def run_experiment(
    app: str | Workload,
    policy: str | PlacementPolicy,
    fast_ratio: float = 0.25,
    epochs: int | None = None,
    slow_gib: float = 8.0,
    throttle: tuple[float, float] | ThrottleConfig | None = None,
    llc_mib: int = 16,
    slow_device: MemoryDevice | None = None,
    seed: int = 7,
    config: SimConfig | None = None,
    telemetry=None,
    faults=None,
) -> RunResult:
    """Run one (application, policy, platform) combination.

    Pass ``config`` to override platform construction entirely.  The
    FastMem-only policy automatically gets unlimited FastMem.  Pass a
    ``repro.obs.Telemetry`` bus as ``telemetry`` to capture a per-epoch
    timeline (attached to ``RunResult.timeline``) and stream to any
    configured sinks; telemetry never changes simulated results.  Pass a
    ``repro.faults.FaultPlan`` as ``faults`` to inject its scheduled
    component faults; an empty plan (or ``None``) takes the exact
    fault-free seed code path.
    """
    workload = make_workload(app) if isinstance(app, str) else app
    placement = make_policy(policy) if isinstance(policy, str) else policy
    if config is None:
        config = build_config(
            fast_ratio=fast_ratio,
            slow_gib=slow_gib,
            throttle=throttle,
            llc_mib=llc_mib,
            slow_device=slow_device,
            unlimited_fast=placement.requires_unlimited_fast,
            seed=seed,
        )
    if faults is not None:
        config.fault_plan = faults
    engine = SimulationEngine(config, workload, placement, telemetry=telemetry)
    try:
        return engine.run(epochs)
    finally:
        engine.close()
