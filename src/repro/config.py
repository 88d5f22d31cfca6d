"""Top-level simulation configuration.

A :class:`SimConfig` describes one emulated platform: the FastMem device,
the SlowMem device (usually throttled DRAM, Section 2.1), capacities, the
LLC, the CPU, and the epoch length.  The defaults reproduce the paper's
evaluation platform: 16-core 2.67 GHz Xeon, 16 MB LLC, DRAM FastMem, and
SlowMem throttled to ~5x latency / ~9x less bandwidth (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.hw.cache import CacheConfig
from repro.hw.memdevice import DRAM, MemoryDevice, MemoryKind
from repro.hw.throttle import DEFAULT_SLOWMEM, ThrottleConfig, throttled_device
from repro.hw.timing import CpuConfig
from repro.units import GIB, NS_PER_MS, pages_of_bytes

@dataclass
class SimConfig:
    """One emulated platform + run parameters."""

    fast_capacity_bytes: int = 2 * GIB
    slow_capacity_bytes: int = 8 * GIB
    #: FastMem device template (capacity is overridden).
    fast_device: MemoryDevice = field(default_factory=lambda: DRAM)
    #: SlowMem is derived by throttling unless ``slow_device`` is given.
    slow_throttle: ThrottleConfig = field(default_factory=lambda: DEFAULT_SLOWMEM)
    slow_device: MemoryDevice | None = None
    llc: CacheConfig = field(default_factory=CacheConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    epoch_ms: float = 100.0
    cpus: int = 16
    seed: int = 7
    #: Attach the frame sanitizer (repro.devtools.sanitizer) to the
    #: guest: shadow-tracks every frame alloc/free/move and reports
    #: double-frees, leaks, use-after-free, and migration ownership
    #: races in RunResult.sanitizer_reports.  Slows the run; debug only.
    sanitize: bool = False
    #: Optional hotness-tracker override (scan costs, thresholds) —
    #: used by the Figure 8 overhead sweeps.
    hotness_config: object | None = None
    #: Deterministic fault schedule (repro.faults).  ``None`` or an
    #: empty plan means no injector is built at all — the simulator
    #: takes the exact seed code path (the no-perturbation contract).
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.slow_capacity_bytes <= 0:
            raise ConfigurationError("SlowMem capacity must be positive")
        if self.fast_capacity_bytes < 0:
            raise ConfigurationError("FastMem capacity must be non-negative")
        if self.epoch_ms <= 0:
            raise ConfigurationError("epoch length must be positive")

    @property
    def epoch_ns(self) -> float:
        return self.epoch_ms * NS_PER_MS

    def resolved_fast_device(self) -> MemoryDevice:
        device = self.fast_device.with_capacity(self.fast_capacity_bytes)
        if device.kind is MemoryKind.DRAM:
            device = device.with_name("fastmem")
        return device

    def resolved_slow_device(self) -> MemoryDevice:
        if self.slow_device is not None:
            return self.slow_device.with_capacity(self.slow_capacity_bytes)
        return throttled_device(
            self.slow_throttle,
            base=self.fast_device,
            name="slowmem",
            capacity_bytes=self.slow_capacity_bytes,
        )

    @property
    def fast_pages(self) -> int:
        return pages_of_bytes(self.fast_capacity_bytes)

    @property
    def slow_pages(self) -> int:
        return pages_of_bytes(self.slow_capacity_bytes)
