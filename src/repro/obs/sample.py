"""Per-epoch telemetry snapshots.

An :class:`EpochSample` is the unit record of the observability stack:
everything one epoch did, flattened into JSON-safe scalars and small
dicts.  Additive fields (times, misses, traffic, per-device stalls) are
*per-epoch contributions* — summing them across a timeline in epoch
order reproduces the final :class:`~repro.sim.stats.RunStats`
aggregates exactly, because the engine performs the very same sequence
of float additions (asserted by ``tests/test_obs_telemetry.py``).
Counter-style fields (``llc_misses_cumulative``) are monotonic running
totals read from the perf-counter file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.units import plain_sum

#: Bumped whenever the JSONL sample schema changes shape.
SAMPLE_FORMAT_VERSION = 1

#: Field order of :meth:`EpochSample.to_dict`; also the diff tool's
#: reporting order, so divergences list root causes (counters) before
#: symptoms (derived occupancy).
_SCALAR_FIELDS = (
    "epoch",
    "runtime_ns",
    "cpu_ns",
    "io_wait_ns",
    "policy_overhead_ns",
    "kernel_cost_ns",
    "instructions",
    "llc_misses",
    "llc_misses_cumulative",
    "traffic_bytes",
    "total_accesses",
    "tlb_flushes",
    "tlb_shootdowns",
    "pages_migrated",
    "pages_demoted",
    "scan_cost_ns",
    "migration_cost_ns",
    "swap_pages_out",
    "swap_pages_in",
    "fast_used_pages",
    "fast_free_pages",
    "alloc_requested_pages",
    "alloc_fast_granted_pages",
)

_DICT_FIELDS = (
    "stall_ns_by_device",
    "traffic_by_device",
    "alloc_by_type",
    "occupancy",
    "events",
)

#: Sample fields that are NOT per-epoch contributions re-summing to a
#: same-named RunStats/RunResult aggregate, with the reason.  Every
#: other field must have its aggregate counterpart:
#: ``tests/test_obs_telemetry.py::test_timeline_sums_to_final_stats``
#: re-sums every field not listed here.
NON_ADDITIVE_FIELDS = {
    "epoch": "ordinal position in the timeline, not a contribution",
    "llc_misses_cumulative": (
        "monotonic counter-file reading; the final sample's value "
        "equals RunStats.llc_misses, per-epoch deltas land in "
        "llc_misses"
    ),
    "tlb_flushes": (
        "per-epoch TLB activity; whole-run totals are read from "
        "TlbSnapshot deltas, not accumulated on RunStats"
    ),
    "tlb_shootdowns": (
        "per-epoch TLB activity; whole-run totals are read from "
        "TlbSnapshot deltas, not accumulated on RunStats"
    ),
    "fast_used_pages": "end-of-epoch occupancy gauge, not a contribution",
    "fast_free_pages": "end-of-epoch occupancy gauge, not a contribution",
    "alloc_requested_pages": (
        "per-epoch allocation demand; whole-run accounting aggregates "
        "per page type in RunResult.alloc_stats"
    ),
    "alloc_fast_granted_pages": (
        "per-epoch allocation grants; whole-run accounting aggregates "
        "per page type in RunResult.alloc_stats"
    ),
    "traffic_by_device": (
        "per-epoch per-device traffic split; the run total is the "
        "scalar traffic_bytes, per-device write totals live in "
        "RunResult.device_write_bytes"
    ),
    "alloc_by_type": (
        "per-epoch per-type allocation split; the whole-run form is "
        "RunResult.alloc_stats keyed by PageType"
    ),
    "occupancy": (
        "zone/LRU/balloon gauges snapshot at epoch end; gauges do not "
        "sum"
    ),
    "events": (
        "discrete event records (migration passes, policy decisions); "
        "counted per kind in RunResult.fault_counts, never summed"
    ),
}

#: RunStats aggregates with no per-epoch sample counterpart, with the
#: reason; every other RunStats field must be sampled.
#: ``tests/test_obs_telemetry.py`` reads both declarations
#: (``test_sample_declarations_mirror_the_dataclasses``).
UNSAMPLED_AGGREGATES = {
    "epochs": "the timeline length IS the epoch count",
    "dropped_allocation_pages": (
        "terminal allocation-overflow accounting charged at drop time; "
        "per-epoch allocation behaviour is covered by "
        "alloc_requested/alloc_fast_granted"
    ),
}


@dataclass
class EpochSample:
    """One epoch's observability record (all times virtual ns).

    Per-epoch contributions unless suffixed ``_cumulative``; device and
    occupancy dicts are keyed by device name / node id in deterministic
    topology order (fastest tier first).
    """

    epoch: int = 0
    runtime_ns: float = 0.0
    cpu_ns: float = 0.0
    io_wait_ns: float = 0.0
    policy_overhead_ns: float = 0.0
    kernel_cost_ns: float = 0.0
    instructions: float = 0.0
    llc_misses: float = 0.0
    llc_misses_cumulative: float = 0.0
    traffic_bytes: float = 0.0
    total_accesses: float = 0.0
    tlb_flushes: int = 0
    tlb_shootdowns: int = 0
    pages_migrated: int = 0
    pages_demoted: int = 0
    scan_cost_ns: float = 0.0
    migration_cost_ns: float = 0.0
    swap_pages_out: int = 0
    swap_pages_in: int = 0
    fast_used_pages: int = 0
    fast_free_pages: int = 0
    alloc_requested_pages: int = 0
    alloc_fast_granted_pages: int = 0
    #: Per-device stall contribution this epoch (topology order).
    stall_ns_by_device: dict[str, float] = field(default_factory=dict)
    #: Per-device memory traffic this epoch (topology order).
    traffic_by_device: dict[str, float] = field(default_factory=dict)
    #: Page-type -> [requested, fast_granted] for types requested this epoch.
    alloc_by_type: dict[str, list] = field(default_factory=dict)
    #: Zone/LRU/balloon occupancy snapshot (node id -> gauges) + swap.
    occupancy: dict[str, object] = field(default_factory=dict)
    #: Discrete events this epoch (migration passes, policy decisions).
    events: list[dict] = field(default_factory=list)

    @property
    def mpki(self) -> float:
        """This epoch's LLC misses per kilo-instruction."""
        if self.instructions <= 0:
            return 0.0
        return self.llc_misses / (self.instructions / 1000.0)

    @property
    def stall_ns(self) -> float:
        """Total device stall this epoch."""
        return plain_sum(self.stall_ns_by_device.values())

    @property
    def fastmem_alloc_miss_ratio(self) -> float:
        """Fraction of this epoch's requested pages NOT served by FastMem."""
        if self.alloc_requested_pages == 0:
            return 0.0
        return 1.0 - self.alloc_fast_granted_pages / self.alloc_requested_pages

    def to_dict(self) -> dict:
        """JSON-safe mapping in the canonical field order."""
        data: dict = {}
        for name in _SCALAR_FIELDS:
            data[name] = getattr(self, name)
        for name in _DICT_FIELDS:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EpochSample":
        """Inverse of :meth:`to_dict`; lossless for JSON round trips."""
        kwargs = {}
        for name in _SCALAR_FIELDS + _DICT_FIELDS:
            if name in data:
                kwargs[name] = data[name]
        unknown = set(data) - set(kwargs) - {"type"}
        if unknown:
            raise ObservabilityError(
                f"unknown sample fields: {sorted(unknown)}"
            )
        return cls(**kwargs)
