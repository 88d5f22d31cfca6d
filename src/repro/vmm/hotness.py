"""Access-bit page hotness tracking (the HeteroVisor mechanism).

"HeteroVisor and most software methods capture page hotness by counting
the number of references to a page table entry ... The hotness-tracking
mechanism periodically scans the page table, records the value of the
access bit ..., and resets the bit" (Section 2.3).  The costs this module
charges are exactly the ones Observation 4 itemises: per-PTE scan work,
periodic TLB flushes to force re-walks, and batching effects.

The tracker operates on extents.  An extent's hardware ``accessed`` bit is
set by :meth:`PageExtent.record_access` whenever the workload touched it
during the epoch; a scan reads and clears those bits and refreshes each
extent's scan-side hotness estimate (an EWMA independent of the guest's
own temperature bookkeeping — the VMM cannot see guest state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.hw.tlb import Tlb
from repro.mem.extent import PageExtent
from repro.units import NS_PER_US, Ns, Pages


@dataclass(frozen=True)
class HotnessConfig:
    """Scan cost and classification parameters.

    ``per_pte_scan_ns`` covers the virtualized PTE read+clear including
    the amortised page-table traversal; HeteroVisor's VMM-level reverse
    map (Section 2.3) shortens that walk, so every scan charges it
    discounted by ``rmap_discount``.  No reverse map is simulated: the
    discount is the whole of its effect.
    """

    scan_batch_pages: int = 32 * 1024  # HeteroVisor's batch (Section 5.2)
    per_pte_scan_ns: float = 1.6 * NS_PER_US
    rmap_discount: float = 0.55
    #: Scan-side EWMA decay for the hotness estimate.
    decay: float = 0.5
    #: An extent is "hot" when the observed per-page access density (the
    #: fraction of its PTE access bits found set per scan, folded through
    #: the temperature EWMA) exceeds this many accesses per page.
    hot_density: float = 4.0
    #: Scans that must observe an extent accessed before it can be
    #: classified hot: access-bit *history*, which keeps one-shot
    #: short-lived pages (I/O churn) from triggering migrations.
    min_observations: int = 4
    #: Extents examined per scan pass, minimum — the per-extent PTE
    #: window shrinks so a scan always samples broad coverage instead of
    #: sinking the whole budget into one giant region.
    min_coverage_extents: int = 32

    def __post_init__(self) -> None:
        if self.scan_batch_pages <= 0:
            raise ConfigurationError("scan batch must be positive")
        if self.per_pte_scan_ns < 0:
            raise ConfigurationError("scan cost must be non-negative")
        if not 0 < self.decay <= 1:
            raise ConfigurationError("decay must be in (0, 1]")


@dataclass
class ScanReport:
    """Result of one hotness scan pass."""

    pages_scanned: Pages = 0
    extents_scanned: int = 0
    hot_extents: list[PageExtent] = field(default_factory=list)
    cost_ns: Ns = 0.0
    tlb_flushes: int = 0


class HotnessTracker:
    """Periodic access-bit scanner with per-extent hotness estimates."""

    def __init__(
        self, config: HotnessConfig | None = None, tlb: Tlb | None = None
    ) -> None:
        self.config = config or HotnessConfig()
        self.tlb = tlb or Tlb()
        #: extent id -> scan-side per-page density estimate.
        self._estimates: dict[int, float] = {}
        #: extent id -> number of scans that observed it accessed.
        self._seen: dict[int, int] = {}
        #: Duck-typed :class:`repro.faults.FaultInjector`; ``None`` (the
        #: default) keeps the exact fault-free code path.
        self.faults: object = None
        #: Last completed scan, kept only under fault injection so a
        #: stale-scan fault can replay it.
        self._last_report: "ScanReport | None" = None

    def scan(
        self,
        extents: Iterable[PageExtent],
        max_pages: "Pages | None" = None,
    ) -> ScanReport:
        """Scan up to ``max_pages`` (default: one batch) of ``extents``.

        Reads and clears the hardware accessed bits, updates hotness
        estimates, charges scan + TLB costs, and classifies hot extents.
        """
        if self.faults is not None:
            if self.faults.fires("scan-lost") is not None:
                # The scan epoch is lost outright (PEBS-style sample
                # loss): no bits read or cleared, no cost, no signal —
                # the consumer simply sees nothing hot this interval.
                return ScanReport()
            if (
                self._last_report is not None
                and self.faults.fires("scan-stale") is not None
            ):
                # The scan delivers last interval's data: same cost,
                # stale hot list.  Dead or already-migrated extents in
                # it are rejected downstream by the guest's validity
                # checks (they pay wasted walk cost, nothing breaks).
                stale = self._last_report
                return ScanReport(
                    pages_scanned=stale.pages_scanned,
                    extents_scanned=stale.extents_scanned,
                    hot_extents=list(stale.hot_extents),
                    cost_ns=stale.cost_ns,
                    tlb_flushes=stale.tlb_flushes,
                )
        budget = max_pages if max_pages is not None else self.config.scan_batch_pages
        report = ScanReport()
        per_pte = (
            self.config.per_pte_scan_ns * self.config.rmap_discount
        )
        window = max(256, budget // self.config.min_coverage_extents)
        for extent in extents:
            if report.pages_scanned >= budget:
                break
            # The page budget is strict: each extent gets a bounded PTE
            # window so one giant region cannot sink the whole budget —
            # the density sample is unbiased either way.
            examined = min(
                extent.pages, window, budget - report.pages_scanned
            )
            accessed, _dirty = extent.clear_hardware_bits()
            # Per-page access density observed through the PTE bits; the
            # temperature EWMA stands in for the per-page bit counts a
            # real scanner accumulates across passes.
            if accessed and extent.pages > 0:
                density = extent.temperature / extent.pages
                self._seen[extent.extent_id] = (
                    self._seen.get(extent.extent_id, 0) + 1
                )
            else:
                density = 0.0
            estimate = (
                self._estimates.get(extent.extent_id, 0.0) * self.config.decay
                + density * (1.0 - self.config.decay)
            )
            self._estimates[extent.extent_id] = estimate
            report.pages_scanned += examined
            report.extents_scanned += 1
            report.cost_ns += examined * per_pte
            if (
                estimate >= self.config.hot_density
                and self._seen.get(extent.extent_id, 0)
                >= self.config.min_observations
            ):
                report.hot_extents.append(extent)
        if report.pages_scanned > 0:
            # One full flush per scan batch so future accesses re-set bits.
            batches = -(-report.pages_scanned // self.config.scan_batch_pages)
            for _ in range(batches):
                report.cost_ns += self.tlb.flush()
                report.tlb_flushes += 1
        report.hot_extents.sort(
            key=lambda e: self._estimates.get(e.extent_id, 0.0), reverse=True
        )
        if self.faults is not None:
            self._last_report = ScanReport(
                pages_scanned=report.pages_scanned,
                extents_scanned=report.extents_scanned,
                hot_extents=list(report.hot_extents),
                cost_ns=report.cost_ns,
                tlb_flushes=report.tlb_flushes,
            )
        return report

    def estimate(self, extent: PageExtent) -> float:
        """Current scan-side hotness estimate for an extent."""
        return self._estimates.get(extent.extent_id, 0.0)

    def observations(self, extent: PageExtent) -> int:
        """How many scans have observed the extent accessed."""
        return self._seen.get(extent.extent_id, 0)

    def forget(self, extents: Sequence[PageExtent]) -> None:
        """Drop estimates for dead extents."""
        for extent in extents:
            self._estimates.pop(extent.extent_id, None)
            self._seen.pop(extent.extent_id, None)
