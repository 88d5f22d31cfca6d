"""Page migration engine with Table 6's batch-dependent costs.

Table 6 measures the two components of a page move in a virtualized
system: the page-table walk (validity checks, PTE updates) and the data
copy, both *per page*, both shrinking as the batch grows because tree
traversals and flushes amortise:

    batch   T_page_move (us)   T_page_walk (us)
    8K          25.5               43.21
    64K         15.7               26.32
    128K        11.12              10.25

:class:`MigrationCostModel` interpolates those anchors in log2(batch)
space.  :class:`MigrationEngine` executes guest-controlled moves (the
guest kernel performs the actual relocation and its validity checks —
Section 4.1) and charges walk + copy + shootdown costs.  Moves rejected
by the guest (dead/unmigratable pages) still pay the walk — that wasted
work is exactly what the VMM-exclusive approach suffers from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: evict_with(target_node_id, pages_needed) -> pages actually freed.
EvictionCallback = Callable[[int, int], int]

from repro.errors import AllocationError, MigrationError, OutOfMemoryError
from repro.guestos.kernel import GuestKernel
from repro.hw.tlb import Tlb
from repro.mem.extent import PageExtent
from repro.units import NS_PER_US, Ns, Pages

#: batch pages -> (per-page move ns, per-page walk ns).  Table 6.
TABLE6_ANCHORS: dict[int, tuple[float, float]] = {
    8 * 1024: (25.5 * NS_PER_US, 43.21 * NS_PER_US),
    64 * 1024: (15.7 * NS_PER_US, 26.32 * NS_PER_US),
    128 * 1024: (11.12 * NS_PER_US, 10.25 * NS_PER_US),
}


class MigrationCostModel:
    """Per-page move/walk costs as a function of batch size."""

    def __init__(
        self, anchors: dict[int, tuple[float, float]] | None = None
    ) -> None:
        source = anchors or TABLE6_ANCHORS
        if len(source) < 2:
            raise MigrationError("cost model needs at least two anchors")
        self._points = sorted(
            (math.log2(batch), costs[0], costs[1])
            for batch, costs in source.items()
        )

    def per_page_costs(self, batch_pages: int) -> tuple[float, float]:
        """(move_ns, walk_ns) per page for a given batch size; clamped
        log-linear interpolation between the Table 6 anchors."""
        if batch_pages <= 0:
            raise MigrationError("batch size must be positive")
        x = math.log2(batch_pages)
        points = self._points
        if x <= points[0][0]:
            return points[0][1], points[0][2]
        if x >= points[-1][0]:
            return points[-1][1], points[-1][2]
        for (x0, m0, w0), (x1, m1, w1) in zip(points, points[1:]):
            if x <= x1:
                t = (x - x0) / (x1 - x0)
                return m0 + t * (m1 - m0), w0 + t * (w1 - w0)
        raise MigrationError("unreachable")  # pragma: no cover

    def migration_cost_ns(self, pages: Pages, batch_pages: Pages) -> Ns:
        """Total walk+copy cost for migrating ``pages`` at ``batch_pages``."""
        move, walk = self.per_page_costs(batch_pages)
        return pages * (move + walk)


@dataclass
class MigrationReport:
    """Outcome of one migration pass."""

    pages_moved: Pages = 0
    pages_failed: Pages = 0
    pages_rejected: Pages = 0
    extents_moved: int = 0
    cost_ns: Ns = 0.0
    evicted_pages: Pages = 0

    def merge(self, other: "MigrationReport") -> None:
        self.pages_moved += other.pages_moved
        self.pages_failed += other.pages_failed
        self.pages_rejected += other.pages_rejected
        self.extents_moved += other.extents_moved
        self.cost_ns += other.cost_ns
        self.evicted_pages += other.evicted_pages


@dataclass
class MigrationEngine:
    """Executes extent moves through a guest kernel, charging costs.

    ``stall_fraction`` is the share of the raw walk+copy cost that stalls
    the application: migration batches run concurrently with the guest on
    spare cores, so only TLB shootdowns, page-lock contention, and the
    final remap serialize with it (the batching columns of Table 6 exist
    precisely because this overlap grows with batch size).
    """

    cost_model: MigrationCostModel = field(default_factory=MigrationCostModel)
    tlb: Tlb = field(default_factory=Tlb)
    default_batch_pages: Pages = 64 * 1024
    stall_fraction: float = 0.3
    total: MigrationReport = field(default_factory=MigrationReport)
    #: Report accumulating the pass bracketed by begin_pass()/commit_pass();
    #: ``None`` when no pass is open.
    in_flight: "MigrationReport | None" = None
    #: Optional ``callback(kind, report)`` invoked at each pass boundary
    #: with kind "begin" | "commit" | "abort".  Duck-typed so telemetry
    #: (repro.obs, a higher layer) can attach without an import here.
    observer: "Callable[[str, MigrationReport], None] | None" = None
    #: Duck-typed :class:`repro.faults.FaultInjector` per guest, keyed by
    #: the kernel whose extents move: one engine serves every guest, and
    #: each guest draws from its own plan.  Empty (the default) keeps
    #: the exact fault-free code path.
    faults: "dict[GuestKernel, object]" = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Pass bracketing
    # ------------------------------------------------------------------
    #
    # A migration *pass* is the unit the epoch engine accounts: open it,
    # run one or more migrate() calls, then commit (fold into ``total``)
    # or abort (discard — the pass never happened, e.g. the epoch was
    # cancelled mid-flight).  ``migrate()`` brackets itself when called
    # outside a pass, so single-shot callers need no ceremony.

    def begin_pass(self) -> MigrationReport:
        """Open a migration pass; subsequent :meth:`migrate` calls
        accumulate into it until :meth:`commit_pass` or
        :meth:`abort_pass`."""
        if self.in_flight is not None:
            raise MigrationError("migration pass already in flight")
        self.in_flight = MigrationReport()
        if self.observer is not None:
            self.observer("begin", self.in_flight)
        return self.in_flight

    def commit_pass(self) -> MigrationReport:
        """Close the open pass and fold it into :attr:`total`."""
        if self.in_flight is None:
            raise MigrationError("no migration pass in flight")
        report = self.in_flight
        self.in_flight = None
        self.total.merge(report)
        if self.observer is not None:
            self.observer("commit", report)
        return report

    def abort_pass(self) -> MigrationReport:
        """Close the open pass *without* folding it into :attr:`total`
        (the work is discarded, as when an epoch is cancelled)."""
        if self.in_flight is None:
            raise MigrationError("no migration pass in flight")
        report = self.in_flight
        self.in_flight = None
        if self.observer is not None:
            self.observer("abort", report)
        return report

    def migrate(
        self,
        extents: Sequence[PageExtent],
        target_node_id: int,
        kernel: GuestKernel,
        batch_pages: int | None = None,
        evict_with: "EvictionCallback | None" = None,
        budget_pages: int | None = None,
    ) -> MigrationReport:
        """Move ``extents`` to ``target_node_id``.

        At most ``budget_pages`` pages move per call (real systems bound
        per-interval migration work); an extent straddling the budget is
        split and only the in-budget piece moves.  When the target is
        full and ``evict_with`` is provided, it is asked to make room
        (returning pages freed); otherwise the move counts as failed.
        Rejected moves (dead extents, unmigratable types, stale targets)
        charge the walk cost only.
        """
        owns_pass = self.in_flight is None
        if owns_pass:
            self.begin_pass()
        faults = self.faults.get(kernel) if self.faults else None
        abort_fault = (
            faults.fires("migration-abort") if faults is not None else None
        )
        batch = batch_pages or self.default_batch_pages
        move_ns, walk_ns = self.cost_model.per_page_costs(batch)
        report = MigrationReport()
        #: Successful moves this call, oldest first, for abort rollback.
        undo: "list[tuple[PageExtent, int]]" = []
        remaining_budget = budget_pages if budget_pages is not None else None
        for extent in extents:
            if remaining_budget is not None and remaining_budget <= 0:
                break
            if extent.swapped:
                continue
            if extent.node_id == target_node_id:
                continue
            if (
                remaining_budget is not None
                and extent.pages > remaining_budget
            ):
                try:
                    kernel.split_extent(extent, remaining_budget)
                except (AllocationError, MigrationError):
                    continue
                # ``extent`` now holds exactly the in-budget prefix.
            if remaining_budget is not None:
                remaining_budget -= extent.pages
            source_node_id = extent.node_id
            try:
                moved = self._move_once(
                    extent, target_node_id, kernel, evict_with, report
                )
            except (AllocationError, MigrationError):
                # Guest validity checks rejected the page: walk wasted.
                report.pages_rejected += extent.pages
                report.cost_ns += (
                    extent.pages * walk_ns * self.stall_fraction
                )
                continue
            if moved:
                undo.append((extent, source_node_id))
                report.pages_moved += extent.pages
                report.extents_moved += 1
                report.cost_ns += (
                    extent.pages * (move_ns + walk_ns) * self.stall_fraction
                )
                report.cost_ns += self.tlb.shootdown()
            else:
                report.pages_failed += extent.pages
                report.cost_ns += (
                    extent.pages * walk_ns * self.stall_fraction
                )
        if abort_fault is not None:
            self._roll_back(undo, kernel, move_ns, report)
        self.in_flight.merge(report)
        if owns_pass:
            if abort_fault is not None:
                self.abort_pass()
            else:
                self.commit_pass()
        return report

    def _roll_back(
        self,
        undo: "list[tuple[PageExtent, int]]",
        kernel: GuestKernel,
        move_ns: float,
        report: MigrationReport,
    ) -> None:
        """Unwind an aborted pass's moves (newest first), converting
        their accounting to wasted work.

        Every page moved is copied *back* to its source node — the
        abort-mid-copy degradation: all the copy cost is paid, nothing
        lands.  A rollback blocked by the source filling up in the
        meantime leaves that extent at the target (still a consistent
        placement) rather than risking a second failure.
        """
        for extent, source_node_id in reversed(undo):
            try:
                kernel.move_extent(extent, source_node_id)
            except (AllocationError, MigrationError, OutOfMemoryError):
                continue
            report.pages_moved -= extent.pages
            report.extents_moved -= 1
            report.pages_failed += extent.pages
            # The copy-back is real data movement and stalls like one.
            report.cost_ns += extent.pages * move_ns * self.stall_fraction
            report.cost_ns += self.tlb.shootdown()

    def _move_once(
        self,
        extent: PageExtent,
        target_node_id: int,
        kernel: GuestKernel,
        evict_with: "EvictionCallback | None",
        report: MigrationReport,
    ) -> bool:
        try:
            kernel.move_extent(extent, target_node_id)
            return True
        except OutOfMemoryError:
            if evict_with is None:
                return False
            freed = evict_with(target_node_id, extent.pages)
            report.evicted_pages += freed
            if freed < extent.pages:
                return False
            kernel.move_extent(extent, target_node_id)
            return True
