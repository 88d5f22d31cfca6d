"""Heterogeneity-aware NUMA node abstraction (Principle 1).

Each memory *type* becomes one guest NUMA node — the paper enables the
normally-disabled guest NUMA support via the fake-NUMA patch and adds "a
special flag ... to the node structure" distinguishing memory types.
:class:`NodeTier` is that flag (with a MEDIUM tier supporting the
multi-level-memory extension discussed in Section 4.3).

SlowMem nodes carry the classic DMA + NORMAL zone split; FastMem nodes a
single unified zone (Section 3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.guestos.zone import Zone, ZoneKind, make_zone, zone_preference
from repro.hw.memdevice import MemoryDevice
from repro.mem.extent import PageType
from repro.mem.frames import FrameRange
from repro.units import MIB, PAGE_SIZE, pages_of_bytes

#: Size of the DMA zone carved from SlowMem nodes.
DMA_ZONE_BYTES = 16 * MIB


class NodeTier(enum.Enum):
    """The memory-type flag added to the node structure."""

    FAST = "fastmem"
    MEDIUM = "mediummem"
    SLOW = "slowmem"

    # Identity hashing (exact for singleton members, as for
    # ``PageType``): tier-keyed maps sit on the balloon and VMM paths.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        #: Lower rank = faster tier (a constant per member).
        self.rank = ("fastmem", "mediummem", "slowmem").index(value)


@dataclass
class MemoryNode:
    """One guest NUMA node backed by one memory device."""

    node_id: int
    tier: NodeTier
    device: MemoryDevice
    zones: list[Zone] = field(default_factory=list)
    _zones_for_cache: dict[PageType, list[Zone]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def is_fastmem(self) -> bool:
        return self.tier is NodeTier.FAST

    @property
    def total_pages(self) -> int:
        # Loops, not generator totals: the policies read these per epoch.
        total = 0
        for zone in self.zones:
            total += zone.total_pages
        return total

    @property
    def free_pages(self) -> int:
        free = 0
        for zone in self.zones:
            free += zone.free_pages
        return free

    @property
    def used_pages(self) -> int:
        return self.total_pages - self.free_pages

    @property
    def under_pressure(self) -> bool:
        return any(zone.under_pressure for zone in self.zones)

    def zones_for(self, page_type: PageType) -> list[Zone]:
        """Zones eligible to serve ``page_type``, in preference order.

        Memoised per page type: zones are appended only inside
        :func:`build_node`, before the node is handed to any caller.
        """
        zones = self._zones_for_cache.get(page_type)
        if zones is None:
            by_kind = {zone.kind: zone for zone in self.zones}
            zones = [
                by_kind[kind]
                for kind in zone_preference(page_type)
                if kind in by_kind
            ]
            self._zones_for_cache[page_type] = zones
        return zones

    def allocate_pages(self, pages: int, page_type: PageType) -> list[FrameRange]:
        """Allocate from the first eligible zone with room; no splitting
        across zones (matching Linux's zone fallback walk)."""
        eligible = self.zones_for(page_type)
        if not eligible:
            raise OutOfMemoryError(
                f"node {self.node_id}: no zone serves {page_type.value}"
            )
        for zone in eligible:
            if zone.free_pages >= pages:
                return zone.buddy.allocate_pages(pages)
        raise OutOfMemoryError(
            f"node {self.node_id}: {pages} pages of {page_type.value} "
            f"not available ({self.free_pages} free)"
        )

    def allocate_up_to(
        self, pages: int, page_type: PageType
    ) -> tuple[list[FrameRange], int]:
        """Best-effort allocation: take what is available from eligible
        zones, in preference order.  Returns the granted ranges and
        their page count, which may be fewer pages than asked."""
        granted: list[FrameRange] = []
        remaining = pages
        zones = self._zones_for_cache.get(page_type)
        if zones is None:
            zones = self.zones_for(page_type)
        for zone in zones:
            take = min(remaining, zone.buddy._free_frames)
            if take > 0:
                granted.extend(zone.buddy.allocate_pages(take))
                remaining -= take
            if remaining == 0:
                break
        return granted, pages - remaining

    def free_pages_for(self, page_type: PageType) -> int:
        """Free pages in zones eligible to serve ``page_type``."""
        # The memo read inline (a miss, or an unmemoised subclass, goes
        # through zones_for): this runs for every allocation and move.
        zones = self._zones_for_cache.get(page_type)
        if zones is None:
            zones = self.zones_for(page_type)
        free = 0
        for zone in zones:
            free += zone.buddy._free_frames
        return free

    def free_ranges(self, ranges: list[FrameRange]) -> None:
        """Return frame ranges to whichever zone owns them.

        Sequential, as coalescing is order-dependent: a foreign frame, a
        double free or a zero-count range raises with every earlier
        range already freed.  Each run of consecutive ranges one zone
        owns is freed in one batch.
        """
        index = 0
        end = len(ranges)
        while index < end:
            start = ranges[index].start
            buddy = self._zone_owning(start).buddy
            if "free_span" in buddy.__dict__:
                # The frame sanitizer's per-instance wrapper must see
                # every free.
                buddy.free_span(start, ranges[index].count)
                index += 1
            else:
                index = buddy._free_spans(ranges, index)

    def _zone_owning(self, frame: int) -> Zone:
        for zone in self.zones:
            base = zone.buddy.base
            if base <= frame < base + zone.buddy.total_frames:
                return zone
        # Freeing a frame the node does not own is allocator misuse, not
        # memory pressure (callers treat OutOfMemoryError as "full").
        raise AllocationError(f"node {self.node_id}: frame {frame} not mine")


def build_node(
    node_id: int,
    tier: NodeTier,
    device: MemoryDevice,
    base_frame: int = 0,
) -> MemoryNode:
    """Construct a node with the tier-appropriate zone layout."""
    total_pages = pages_of_bytes(device.capacity_bytes)
    if total_pages <= 0:
        raise ConfigurationError(f"node {node_id}: device has no capacity")
    node = MemoryNode(node_id=node_id, tier=tier, device=device)
    if tier is NodeTier.FAST:
        node.zones.append(make_zone(ZoneKind.UNIFIED, base_frame, total_pages))
        return node
    dma_pages = min(DMA_ZONE_BYTES // PAGE_SIZE, max(1, total_pages // 16))
    normal_pages = total_pages - dma_pages
    if normal_pages <= 0:
        node.zones.append(make_zone(ZoneKind.NORMAL, base_frame, total_pages))
        return node
    node.zones.append(make_zone(ZoneKind.DMA, base_frame, dma_pages))
    node.zones.append(
        make_zone(ZoneKind.NORMAL, base_frame + dma_pages, normal_pages)
    )
    return node
