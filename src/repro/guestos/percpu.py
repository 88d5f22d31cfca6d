"""Multi-dimensional per-CPU free lists (Section 3.1).

Linux keeps a per-CPU list of free pages so hot-path allocations bypass
the buddy allocator; the stock lists assume a single memory type.
HeteroOS "redesign[s] the per-CPU lists with a multi-dimensional (arrays
of lists) support for different memory types which significantly boosts
the allocation performance."  Here each CPU holds one cache row per node,
refilled in batches from that node's buddy allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, OutOfMemoryError
from repro.guestos.numa import MemoryNode
from repro.mem.extent import PageType
from repro.mem.frames import FrameRange


@dataclass
class PerCpuStats:
    """Hit/miss accounting for the fast path."""

    hits: int = 0
    refills: int = 0
    spills: int = 0


@dataclass
class _CpuRow:
    ranges: list[FrameRange] = field(default_factory=list)
    pages: int = 0


class PerCpuFreeLists:
    """Per-(CPU, node) cached free pages.

    Parameters
    ----------
    cpus:
        Number of CPUs.
    nodes:
        The guest's memory nodes (one cache row per node per CPU).
    batch_pages:
        Refill granularity pulled from the buddy allocator.
    capacity_pages:
        High watermark per row; spills return pages to the buddy.
    """

    def __init__(
        self,
        cpus: int,
        nodes: dict[int, MemoryNode],
        batch_pages: int = 32,
        capacity_pages: int = 128,
    ) -> None:
        if cpus <= 0:
            raise AllocationError("need at least one CPU")
        if batch_pages <= 0 or capacity_pages < batch_pages:
            raise AllocationError("capacity must be >= batch > 0")
        self.cpus = cpus
        self.nodes = nodes
        self.batch_pages = batch_pages
        self.capacity_pages = capacity_pages
        self._rows: dict[tuple[int, int], _CpuRow] = {
            (cpu, node_id): _CpuRow()
            for cpu in range(cpus)
            for node_id in nodes
        }
        self.stats = PerCpuStats()

    def cached_pages(self, node_id: int) -> int:
        """Pages parked in per-CPU rows for ``node_id`` (unavailable to
        other allocation paths until flushed)."""
        return sum(
            row.pages for (_, nid), row in self._rows.items() if nid == node_id
        )

    def iter_cached_ranges(self, node_id: int) -> list[FrameRange]:
        """Frame ranges currently parked in per-CPU rows for ``node_id``
        (used by the frame sanitizer's teardown reconciliation)."""
        ranges: list[FrameRange] = []
        for (_, nid), row in sorted(self._rows.items()):
            if nid == node_id:
                ranges.extend(row.ranges)
        return ranges

    def allocate(
        self, cpu: int, node_id: int, pages: int, page_type: PageType
    ) -> list[FrameRange]:
        """Allocate small orders from the CPU row, refilling on miss."""
        row = self._row(cpu, node_id)
        if row.pages < pages:
            self._refill(row, node_id, pages - row.pages, page_type)
        else:
            self.stats.hits += 1
        return self._take(row, pages)

    def free(self, cpu: int, node_id: int, ranges: list[FrameRange]) -> None:
        """Return pages to the CPU row; spill to buddy above capacity.

        Only whole ranges can be spilled back (they are buddy blocks).
        """
        row = self._row(cpu, node_id)
        for frame_range in ranges:
            row.ranges.append(frame_range)
            row.pages += frame_range.count
        while row.pages > self.capacity_pages and row.ranges:
            spilled = row.ranges.pop()
            row.pages -= spilled.count
            self.nodes[node_id].free_ranges([spilled])
            self.stats.spills += 1

    def flush(self) -> None:
        """Return every cached page to its node (memory-pressure path)."""
        for (_, node_id), row in self._rows.items():
            if row.ranges:
                self.nodes[node_id].free_ranges(row.ranges)
                row.ranges.clear()
                row.pages = 0

    def _row(self, cpu: int, node_id: int) -> _CpuRow:
        key = (cpu % self.cpus, node_id)
        row = self._rows.get(key)
        if row is None:
            raise AllocationError(f"unknown node {node_id}")
        return row

    def _refill(
        self, row: _CpuRow, node_id: int, shortfall: int, page_type: PageType
    ) -> None:
        want = max(shortfall, self.batch_pages)
        node = self.nodes[node_id]
        # Only zones that can serve ``page_type`` count: a SlowMem
        # node's DMA zone never serves HEAP pages.
        grab = min(want, node.free_pages_for(page_type))
        if grab < shortfall:
            raise OutOfMemoryError(
                f"node {node_id}: per-CPU refill of {shortfall} pages failed"
            )
        ranges = node.allocate_pages(grab, page_type)
        row.ranges.extend(ranges)
        row.pages += grab
        self.stats.refills += 1

    def _take(self, row: _CpuRow, pages: int) -> list[FrameRange]:
        taken: list[FrameRange] = []
        remaining = pages
        while remaining > 0:
            if not row.ranges:
                raise OutOfMemoryError("per-CPU row underflow")
            head = row.ranges.pop()
            if head.count <= remaining:
                taken.append(head)
                row.pages -= head.count
                remaining -= head.count
            else:
                use, keep = head.split(remaining)
                taken.append(use)
                row.ranges.append(keep)
                row.pages -= use.count
                remaining = 0
        return taken
