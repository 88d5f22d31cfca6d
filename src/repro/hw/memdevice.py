"""Memory device models and the Table 1 technology presets.

A :class:`MemoryDevice` is an immutable description of one memory
technology: load/store latency, sustained bandwidth, capacity, and density
relative to DRAM.  The paper's Table 1 quotes the industry projections the
study is built on; :data:`TABLE1_DEVICES` reproduces that table.

The simulator mostly works with two *roles* rather than technologies —
FastMem and SlowMem — which are derived from these presets (or from DRAM
throttling, see :mod:`repro.hw.throttle`), exactly as the paper does.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GIB


class MemoryKind(enum.Enum):
    """Memory technology family."""

    DRAM = "dram"
    STACKED_3D = "stacked-3d"
    NVM_PCM = "nvm-pcm"
    #: Generic roles used by the paper's evaluation ("we consider two
    #: generic types of memory", Section 2.1).
    GENERIC_FAST = "generic-fast"
    GENERIC_SLOW = "generic-slow"

    # Identity hashing (exact for singleton members, as for
    # ``PageType``): every ``MemoryDevice`` hash hashes its kind, and
    # ``Enum.__hash__`` runs in Python.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class MemoryDevice:
    """One memory technology instance.

    Attributes
    ----------
    name:
        Human-readable identifier (unique within a machine).
    kind:
        Technology family.
    load_latency_ns / store_latency_ns:
        Uncontended access latencies for reads and writes.
    bandwidth_gbps:
        Sustained bandwidth in GB/s (decimal; 1 GB/s == 1 byte/ns).
    capacity_bytes:
        Usable capacity.  Presets carry a representative capacity; use
        :meth:`with_capacity` to size a device for a machine.
    density_factor:
        Capacity per die area relative to DRAM (Table 1 "Density").
    endurance_cycles:
        Write endurance, or ``None`` for effectively unlimited (DRAM).
    """

    name: str
    kind: MemoryKind
    load_latency_ns: float
    store_latency_ns: float
    bandwidth_gbps: float
    capacity_bytes: int
    density_factor: float = 1.0
    endurance_cycles: float | None = None

    def __post_init__(self) -> None:
        if self.load_latency_ns <= 0 or self.store_latency_ns <= 0:
            raise ConfigurationError(
                f"device {self.name!r}: latencies must be positive"
            )
        if self.bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"device {self.name!r}: bandwidth must be positive"
            )
        if self.capacity_bytes < 0:
            raise ConfigurationError(
                f"device {self.name!r}: capacity must be non-negative"
            )

    @property
    def bytes_per_ns(self) -> float:
        """Sustained bandwidth expressed in bytes per nanosecond."""
        return self.bandwidth_gbps  # 1 GB/s == 1 byte/ns exactly

    def with_capacity(self, capacity_bytes: int) -> "MemoryDevice":
        """Copy of this device resized to ``capacity_bytes``."""
        return dataclasses.replace(self, capacity_bytes=capacity_bytes)

    def with_name(self, name: str) -> "MemoryDevice":
        """Copy of this device under a different name."""
        return dataclasses.replace(self, name=name)

    def is_faster_than(self, other: "MemoryDevice") -> bool:
        """Strict ordering by load latency, ties broken by bandwidth."""
        # Exact comparison of configured (not accumulated) latencies.
        # heterolint: disable-next-line=float-time-eq
        if self.load_latency_ns != other.load_latency_ns:
            return self.load_latency_ns < other.load_latency_ns
        return self.bandwidth_gbps > other.bandwidth_gbps


def topology_sort_key(device: MemoryDevice) -> tuple:
    """Deterministic device order: fastest tier first, name as tiebreak.

    The total-order companion of :meth:`MemoryDevice.is_faster_than`;
    used to normalise every per-device mapping the simulator emits
    (``RunStats.stall_ns_by_device``, telemetry samples) so JSONL
    timelines and cached results are byte-stable across runs regardless
    of dict insertion order.
    """
    return (device.load_latency_ns, -device.bandwidth_gbps, device.name)


#: Commodity DDR DRAM — the FastMem baseline of the paper's evaluation
#: (Table 1 middle column; Table 3's L:1,B:1 row quotes 60 ns / 24 GB/s).
DRAM = MemoryDevice(
    name="dram",
    kind=MemoryKind.DRAM,
    load_latency_ns=60.0,
    store_latency_ns=60.0,
    bandwidth_gbps=24.0,
    capacity_bytes=16 * GIB,
    density_factor=1.0,
    endurance_cycles=None,
)

#: On-package stacked 3D-DRAM / HBM (Table 1 left column; midpoints).
STACKED_3D = MemoryDevice(
    name="stacked-3d",
    kind=MemoryKind.STACKED_3D,
    load_latency_ns=40.0,
    store_latency_ns=40.0,
    bandwidth_gbps=160.0,
    capacity_bytes=4 * GIB,
    density_factor=1.0 / 4.0,
    endurance_cycles=None,
)

#: Phase-change NVM (Table 1 right column; midpoints of the quoted ranges).
NVM_PCM = MemoryDevice(
    name="nvm-pcm",
    kind=MemoryKind.NVM_PCM,
    load_latency_ns=150.0,
    store_latency_ns=450.0,
    bandwidth_gbps=2.0,
    capacity_bytes=128 * GIB,
    density_factor=16.0,
    endurance_cycles=1e8,
)

#: Table 1, in the paper's column order (stacked, DRAM, NVM).
TABLE1_DEVICES: tuple[MemoryDevice, ...] = (STACKED_3D, DRAM, NVM_PCM)
