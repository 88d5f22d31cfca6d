"""Hardware substrate: memory devices, throttling, LLC, TLB, timing.

These modules stand in for the physical platform of the paper (a dual-socket
Xeon with one thermally-throttled socket emulating SlowMem, plus Intel's NVM
emulator).  Everything is an analytic model that exposes exactly the signals
the OS/VMM policies consume: per-epoch LLC misses, per-device stall time,
page-table scan and TLB flush costs.
"""

from repro.hw.memdevice import (
    DRAM,
    MemoryDevice,
    MemoryKind,
    NVM_PCM,
    STACKED_3D,
    TABLE1_DEVICES,
)
from repro.hw.throttle import TABLE3_PRESETS, ThrottleConfig, throttled_device
from repro.hw.cache import CacheConfig, LastLevelCache, RegionAccess, RegionMisses
from repro.hw.tlb import Tlb, TlbConfig
from repro.hw.timing import CpuConfig, MemoryTimingModel
from repro.hw.counters import PerfCounters
from repro.hw.endurance import WearTracker, estimated_lifetime_years
from repro.hw.topology import remote_dram

__all__ = [
    "MemoryDevice",
    "MemoryKind",
    "DRAM",
    "STACKED_3D",
    "NVM_PCM",
    "TABLE1_DEVICES",
    "ThrottleConfig",
    "TABLE3_PRESETS",
    "throttled_device",
    "CacheConfig",
    "LastLevelCache",
    "RegionAccess",
    "RegionMisses",
    "Tlb",
    "TlbConfig",
    "CpuConfig",
    "MemoryTimingModel",
    "PerfCounters",
    "WearTracker",
    "estimated_lifetime_years",
    "remote_dram",
]
