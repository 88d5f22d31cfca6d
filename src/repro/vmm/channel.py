"""Shared-memory coordination channel between guest OS and VMM.

Figure 5 / Section 4.1: "The guest-OS exports a tracking list and an
exception list to the VMM using a shared memory channel.  The tracking
list contains address ranges of contiguous memory regions that the VMM
should track for hotness ... short-lived I/O page cache and buffer cache
pages ... are added to the exception list."  In the other direction the
VMM publishes its hot-page report and exports LLC-miss counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ChannelError
from repro.hw.counters import PerfCounters
from repro.mem.extent import PAGE_TYPES, PageType


@dataclass
class CoordinationChannel:
    """One guest's mailbox pair with the VMM."""

    domain_id: int
    counters: PerfCounters = field(default_factory=PerfCounters)
    #: Guest -> VMM: region ids worth tracking for hotness.
    tracking_regions: list[str] = field(default_factory=list)
    #: Guest -> VMM: page types never worth tracking or migrating.
    exception_types: set[PageType] = field(
        default_factory=lambda: {PageType.PAGE_TABLE, PageType.DMA}
    )
    #: VMM -> guest: extent ids the tracker found hot, hottest first.
    hot_report: list[int] = field(default_factory=list)
    #: Duck-typed :class:`repro.faults.FaultInjector` (set by the
    #: engine when a fault plan is active); ``None`` keeps the exact
    #: fault-free code path.
    faults: object = None

    # Guest side ---------------------------------------------------------

    def guest_publish_tracking(
        self, regions: list[str], exception_types: set[PageType] | None = None
    ) -> None:
        """Replace the tracking list (and optionally the exception list)."""
        self.tracking_regions = list(regions)
        if exception_types is not None:
            forbidden = exception_types.difference(PAGE_TYPES)
            if forbidden:
                raise ChannelError(f"unknown page types: {forbidden}")
            self.exception_types = set(exception_types)

    def guest_read_hot_report(self) -> list[int]:
        """Consume the VMM's latest hot-extent report."""
        report, self.hot_report = self.hot_report, []
        return report

    def guest_read_llc_delta(self) -> float:
        """Relative LLC-miss change (Equation 1 input)."""
        return self.counters.llc_miss_delta()

    # VMM side -----------------------------------------------------------

    def vmm_read_tracking(self) -> tuple[list[str], set[PageType]]:
        return list(self.tracking_regions), set(self.exception_types)

    def vmm_publish_hot(self, extent_ids: list[int]) -> None:
        report = list(extent_ids)
        if self.faults is not None:
            # A shared-memory mailbox message can be lost (the guest
            # sees an empty report and simply skips this interval's
            # guided migration) or retransmitted (duplicate ids, which
            # the guest's validity checks already tolerate).
            if self.faults.fires("channel-drop") is not None:
                report = []
            elif report and self.faults.fires("channel-duplicate") is not None:
                report = report + report
        self.hot_report = report

    def vmm_record_epoch(self, llc_misses: float) -> None:
        self.counters.record_epoch(llc_misses)
