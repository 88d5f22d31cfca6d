"""Run metrics and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.guestos.kernel import AllocStats
from repro.mem.extent import PageType
from repro.units import NS_PER_SEC, plain_sum


@dataclass
class RunStats:
    """Accumulated per-run counters (all times in virtual nanoseconds)."""

    epochs: int = 0
    runtime_ns: float = 0.0
    cpu_ns: float = 0.0
    io_wait_ns: float = 0.0
    stall_ns_by_device: dict[str, float] = field(default_factory=dict)
    policy_overhead_ns: float = 0.0
    kernel_cost_ns: float = 0.0
    instructions: float = 0.0
    llc_misses: float = 0.0
    traffic_bytes: float = 0.0
    total_accesses: float = 0.0
    dropped_allocation_pages: int = 0

    def add_stall(self, device_name: str, stall_ns: float) -> None:
        self.stall_ns_by_device[device_name] = (
            self.stall_ns_by_device.get(device_name, 0.0) + stall_ns
        )

    @property
    def total_stall_ns(self) -> float:
        return plain_sum(self.stall_ns_by_device.values())

    @property
    def mpki(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.llc_misses / (self.instructions / 1000.0)


@dataclass
class RunResult:
    """Everything a benchmark needs from one simulation run."""

    workload_name: str
    policy_name: str
    metric: str
    work_units_per_epoch: float
    stats: RunStats
    #: Cumulative per-page-type allocation accounting (Figure 10's data).
    alloc_stats: dict[PageType, AllocStats] = field(default_factory=dict)
    #: Cumulative pages allocated per type (Figure 4's data).
    page_distribution: dict[PageType, int] = field(default_factory=dict)
    pages_migrated: int = 0
    pages_demoted: int = 0
    scan_cost_ns: float = 0.0
    migration_cost_ns: float = 0.0
    swap_pages_out: int = 0
    swap_pages_in: int = 0
    #: Cumulative write traffic per device name (endurance accounting).
    device_write_bytes: dict[str, float] = field(default_factory=dict)
    #: Projected device lifetime (years) per device name at the run's
    #: write rate, assuming start-gap-grade wear levelling.
    device_lifetime_years: dict[str, float] = field(default_factory=dict)
    #: Frame-ownership violations found by the frame sanitizer when the
    #: run was configured with ``SimConfig(sanitize=True)``; empty on a
    #: clean (or unsanitized) run.
    sanitizer_reports: list = field(default_factory=list)
    #: Fault kind -> times it fired, when the run carried a non-empty
    #: ``repro.faults.FaultPlan``; empty otherwise (so a faultless run
    #: compares field-by-field equal to a run predating injection).
    fault_counts: dict = field(default_factory=dict)
    #: Per-epoch ``repro.obs.EpochSample`` list when the run carried a
    #: telemetry bus with an in-memory sink; ``None`` otherwise.  Not
    #: part of the determinism-equivalence surface: cached results store
    #: it as a sidecar, and the PR 3 harness compares results with the
    #: timeline stripped.
    timeline: list | None = None

    @property
    def runtime_sec(self) -> float:
        return self.stats.runtime_ns / NS_PER_SEC

    @property
    def mpki(self) -> float:
        return self.stats.mpki

    @property
    def metric_value(self) -> float:
        """The workload's headline number: seconds, ops/s, or MB/s."""
        if self.metric == "seconds":
            return self.runtime_sec
        if self.runtime_sec <= 0:
            return 0.0
        total_units = self.work_units_per_epoch * self.stats.epochs
        return total_units / self.runtime_sec

    def fastmem_miss_ratio(
        self, page_types: tuple[PageType, ...] | None = None
    ) -> float:
        """Whole-run FastMem allocation miss ratio, optionally restricted
        to the given page types (Figure 10)."""
        requested = 0
        fast = 0
        for page_type, stats in self.alloc_stats.items():
            if page_types is not None and page_type not in page_types:
                continue
            requested += stats.requested_pages
            fast += stats.fast_granted_pages
        if requested == 0:
            return 0.0
        return 1.0 - fast / requested

    @property
    def total_pages_allocated(self) -> int:
        return sum(self.page_distribution.values())


def gain_percent(result: RunResult, baseline: RunResult) -> float:
    """Percentage gain of ``result`` over ``baseline``.

    Both runtime and throughput metrics reduce to runtime ratios (the
    engines run a fixed amount of work), so gains are computed from
    runtimes: 100% means twice as fast.
    """
    if result.stats.runtime_ns <= 0:
        raise ConfigurationError("result has no runtime")
    return (baseline.stats.runtime_ns / result.stats.runtime_ns - 1.0) * 100.0


def slowdown_factor(result: RunResult, baseline: RunResult) -> float:
    """How many times slower ``result`` is than ``baseline``."""
    if baseline.stats.runtime_ns <= 0:
        raise ConfigurationError("baseline has no runtime")
    return result.stats.runtime_ns / baseline.stats.runtime_ns
