"""Workload protocol and the statistical epoch-model implementation.

A workload emits a stream of :class:`EpochDemand` records.  Logical data
lives in *regions*: resident regions are allocated once and live for the
run (split hot/warm/cold to express within-application locality skew);
*churn flows* allocate a fresh region every epoch and free it after a
fixed lifetime — the alloc/release cycles of heaps, page caches, and
network buffers that on-demand placement exploits (Observation 3).

A churn region is only *accessed* while younger than ``active_epochs``;
after that it lingers until freed — the read-ahead/retention behaviour
that lets stale cache pages pin FastMem under policies without eager
eviction.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import WorkloadError
from repro.mem.extent import PageType
from repro.units import CACHE_LINE


@dataclass(frozen=True)
class RegionSpec:
    """Static properties of one logical region."""

    label: str
    page_type: PageType
    pages: int
    #: Temporal locality in [0,1]: fraction of accesses that hit the LLC
    #: *given* residency (see :class:`repro.hw.cache.LastLevelCache`).
    reuse: float
    #: Relative share of the application's accesses aimed at this region.
    access_share: float
    write_fraction: float = 0.3
    bytes_per_miss: float = float(CACHE_LINE)
    #: Epoch at which a resident region is allocated: applications grow
    #: their footprint over time, which is what multi-VM ballooning
    #: contention feeds on (Figure 13).
    alloc_epoch: int = 0
    #: Touch the region only every k-th epoch (1 = every epoch).  Cold
    #: data revisited intermittently is what swap and demotion prey on.
    access_period: int = 1

    def __post_init__(self) -> None:
        if self.pages <= 0:
            raise WorkloadError(f"region {self.label!r}: pages must be > 0")
        if not 0.0 <= self.reuse <= 1.0:
            raise WorkloadError(f"region {self.label!r}: reuse not in [0,1]")
        if not 0.0 <= self.access_share < math.inf:
            raise WorkloadError(
                f"region {self.label!r}: access share must be non-negative "
                f"and finite, got {self.access_share!r}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(
                f"region {self.label!r}: write fraction not in [0,1]"
            )
        if not 0.0 < self.bytes_per_miss < math.inf:
            raise WorkloadError(
                f"region {self.label!r}: bytes per miss must be positive "
                f"and finite, got {self.bytes_per_miss!r}"
            )
        if not self.access_period >= 1:
            raise WorkloadError(
                f"region {self.label!r}: access period must be >= 1, "
                f"got {self.access_period!r}"
            )
        if not self.alloc_epoch >= 0:
            raise WorkloadError(
                f"region {self.label!r}: alloc epoch must be >= 0, "
                f"got {self.alloc_epoch!r}"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """A flow of short-lived regions: one allocation per epoch."""

    label: str
    page_type: PageType
    pages_per_epoch: int
    lifetime_epochs: int
    reuse: float
    access_share: float
    #: Regions are accessed only while younger than this many epochs.
    active_epochs: int = 1
    write_fraction: float = 0.4
    bytes_per_miss: float = float(CACHE_LINE)

    def __post_init__(self) -> None:
        if self.pages_per_epoch <= 0 or self.lifetime_epochs <= 0:
            raise WorkloadError(f"churn {self.label!r}: bad sizes")
        if not 1 <= self.active_epochs <= self.lifetime_epochs:
            raise WorkloadError(
                f"churn {self.label!r}: active_epochs must be in "
                f"[1, lifetime]"
            )
        if not 0.0 < self.bytes_per_miss < math.inf:
            raise WorkloadError(
                f"churn {self.label!r}: bytes per miss must be positive "
                f"and finite, got {self.bytes_per_miss!r}"
            )

    def region_spec(self) -> RegionSpec:
        """The frozen spec every region of this flow is allocated with."""
        return RegionSpec(
            label=self.label,
            page_type=self.page_type,
            pages=self.pages_per_epoch,
            reuse=self.reuse,
            access_share=self.access_share,
            write_fraction=self.write_fraction,
            bytes_per_miss=self.bytes_per_miss,
        )


@dataclass
class EpochDemand:
    """One epoch's memory demand."""

    epoch: int
    instructions: float
    #: Fixed non-memory wait (disk/network latency) diluting memory
    #: sensitivity for I/O-bound applications.
    io_wait_ns: float = 0.0
    allocs: list[tuple[str, RegionSpec]] = field(default_factory=list)
    frees: list[str] = field(default_factory=list)
    #: region id -> (reads, writes)
    accesses: dict[str, tuple[float, float]] = field(default_factory=dict)


class Workload(abc.ABC):
    """Anything that can drive the simulation engine."""

    name: str = "workload"
    #: Memory-level parallelism: outstanding misses that overlap.
    mlp: float = 4.0
    #: 'seconds' (runtime), 'ops-per-sec', or 'mb-per-sec'.
    metric: str = "seconds"
    #: Logical work per epoch for throughput metrics (ops or MB).
    work_units_per_epoch: float = 0.0

    @abc.abstractmethod
    def epochs(self, count: int) -> Iterator[EpochDemand]:
        """Yield ``count`` epoch demands."""

    def default_epochs(self) -> int:
        """Run length used by the benchmark harness."""
        return 100


class StatisticalWorkload(Workload):
    """Resident regions + churn flows, constant per-epoch intensity."""

    def __init__(
        self,
        name: str,
        mlp: float,
        instructions_per_epoch: float,
        accesses_per_epoch: float,
        resident: list[RegionSpec],
        churn: list[ChurnSpec] | None = None,
        io_wait_ns: float = 0.0,
        metric: str = "seconds",
        work_units_per_epoch: float = 0.0,
        run_epochs: int = 100,
        share_shifts: list[tuple[int, dict[str, float]]] | None = None,
    ) -> None:
        if instructions_per_epoch <= 0:
            raise WorkloadError("instructions per epoch must be positive")
        if accesses_per_epoch < 0:
            raise WorkloadError("accesses per epoch must be non-negative")
        if mlp <= 0:
            raise WorkloadError("MLP must be positive")
        self.name = name
        self.mlp = mlp
        self.metric = metric
        self.work_units_per_epoch = work_units_per_epoch
        self.instructions_per_epoch = instructions_per_epoch
        self.accesses_per_epoch = accesses_per_epoch
        self.resident = list(resident)
        self.churn = list(churn or [])
        self.io_wait_ns = io_wait_ns
        self._run_epochs = run_epochs
        #: Hot-set drift: at each (epoch, {label: share}) boundary the
        #: named resident regions' access shares change — the application
        #: phase changes (PageRank iteration working-set drift, map vs
        #: reduce) that make runtime hotness tracking worth its cost.
        self.share_shifts = sorted(share_shifts or [])
        known = {spec.label for spec in resident}
        for _, shares in self.share_shifts:
            unknown = set(shares) - known
            if unknown:
                raise WorkloadError(f"share shift for unknown regions {unknown}")
        self._ids = itertools.count(1)

    def default_epochs(self) -> int:
        return self._run_epochs

    @property
    def resident_pages(self) -> int:
        return sum(spec.pages for spec in self.resident)

    def epochs(self, count: int) -> Iterator[EpochDemand]:
        # Per-run constants, built once: each resident region's id and
        # each churn flow's frozen region spec.
        resident = [
            (f"{self.name}:{spec.label}", spec) for spec in self.resident
        ]
        churn = [(spec, spec.region_spec()) for spec in self.churn]
        #: live churn regions: (region_id, spec, birth_epoch)
        live: list[tuple[str, ChurnSpec, int]] = []
        for epoch in range(count):
            demand = EpochDemand(
                epoch=epoch,
                instructions=self.instructions_per_epoch,
                io_wait_ns=self.io_wait_ns,
            )
            for region_id, spec in resident:
                if spec.alloc_epoch == epoch:
                    demand.allocs.append((region_id, spec))
            # Expire old churn regions.
            still_live: list[tuple[str, ChurnSpec, int]] = []
            for region_id, spec, birth in live:
                if epoch - birth >= spec.lifetime_epochs:
                    demand.frees.append(region_id)
                else:
                    still_live.append((region_id, spec, birth))
            live = still_live
            # Spawn this epoch's churn regions.
            for spec, region_spec in churn:
                region_id = (
                    f"{self.name}:{spec.label}:{next(self._ids)}"
                )
                demand.allocs.append((region_id, region_spec))
                live.append((region_id, spec, epoch))
            self._fill_accesses(demand, resident, live, epoch)
            yield demand

    def _fill_accesses(
        self,
        demand: EpochDemand,
        resident: list[tuple[str, RegionSpec]],
        live: list[tuple[str, ChurnSpec, int]],
        epoch: int,
    ) -> None:
        """Distribute the epoch's accesses by region share weights."""
        shifted: dict[str, float] = {}
        for boundary, shares in self.share_shifts:
            if epoch >= boundary:
                shifted.update(shares)
        weights: list[tuple[str, float, float]] = []  # id, weight, wf
        for region_id, spec in resident:
            if epoch < spec.alloc_epoch:
                continue
            if (epoch - spec.alloc_epoch) % spec.access_period != 0:
                continue
            share = shifted.get(spec.label, spec.access_share)
            weights.append((region_id, share, spec.write_fraction))
        # A churn flow's share is split across its *active* live regions.
        active_by_flow: dict[str, list[str]] = {}
        flow_specs: dict[str, ChurnSpec] = {}
        for region_id, spec, birth in live:
            flow_specs[spec.label] = spec
            if epoch - birth < spec.active_epochs:
                active_by_flow.setdefault(spec.label, []).append(region_id)
        for label, region_ids in active_by_flow.items():
            spec = flow_specs[label]
            share = spec.access_share / len(region_ids)
            for region_id in region_ids:
                weights.append((region_id, share, spec.write_fraction))
        # From 0, left to right, as units.plain_sum adds (never sum():
        # 3.12's is compensated); a loop, as this runs every epoch.
        total_weight = 0
        for _, weight, _ in weights:
            total_weight += weight
        if total_weight <= 0:
            return
        for region_id, weight, write_fraction in weights:
            accesses = self.accesses_per_epoch * weight / total_weight
            reads = accesses * (1.0 - write_fraction)
            writes = accesses * write_fraction
            demand.accesses[region_id] = (reads, writes)
