"""Memory zones.

Linux statically partitions each NUMA node into DMA / NORMAL / HIGHMEM
zones.  HeteroOS keeps that layout for SlowMem nodes but gives FastMem
nodes a *single unified zone* "where both the application and OS related
pages can be allocated to conserve pages" (Section 3.1).

Each zone owns a buddy allocator over its sub-span and low/min watermarks
that drive reclaim triggers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.guestos.buddy import BuddyAllocator
from repro.mem.extent import PageType


class ZoneKind(enum.Enum):
    DMA = "dma"
    NORMAL = "normal"
    HIGHMEM = "highmem"
    #: HeteroOS's single FastMem zone serving user and kernel pages alike.
    UNIFIED = "unified"

    # Identity hashing (exact for singleton members, as for
    # ``PageType``): ``MemoryNode.zones_for`` keys zones by kind.
    __hash__ = object.__hash__


#: Which zones may serve each page type, in preference order.
_ZONE_PREFERENCE: dict[PageType, tuple[ZoneKind, ...]] = {
    PageType.HEAP: (ZoneKind.UNIFIED, ZoneKind.HIGHMEM, ZoneKind.NORMAL),
    PageType.PAGE_CACHE: (ZoneKind.UNIFIED, ZoneKind.HIGHMEM, ZoneKind.NORMAL),
    PageType.BUFFER_CACHE: (ZoneKind.UNIFIED, ZoneKind.NORMAL),
    PageType.SLAB: (ZoneKind.UNIFIED, ZoneKind.NORMAL),
    PageType.NETWORK_BUFFER: (ZoneKind.UNIFIED, ZoneKind.NORMAL),
    PageType.PAGE_TABLE: (ZoneKind.UNIFIED, ZoneKind.NORMAL),
    PageType.DMA: (ZoneKind.DMA, ZoneKind.UNIFIED, ZoneKind.NORMAL),
}


def zone_preference(page_type: PageType) -> tuple[ZoneKind, ...]:
    """Zone kinds that may serve ``page_type``, most preferred first."""
    return _ZONE_PREFERENCE[page_type]


@dataclass
class Zone:
    """One zone: a kind, a buddy allocator, and reclaim watermarks."""

    kind: ZoneKind
    buddy: BuddyAllocator
    low_watermark_pages: int
    min_watermark_pages: int

    def __post_init__(self) -> None:
        if self.min_watermark_pages > self.low_watermark_pages:
            raise ConfigurationError("min watermark above low watermark")

    @property
    def total_pages(self) -> int:
        return self.buddy.total_frames

    @property
    def free_pages(self) -> int:
        return self.buddy.free_frames

    @property
    def under_pressure(self) -> bool:
        """Free pages fell below the low watermark (reclaim trigger)."""
        return self.free_pages < self.low_watermark_pages


def make_zone(
    kind: ZoneKind,
    base_frame: int,
    frames: int,
    watermark_fraction: float = 0.04,
) -> Zone:
    """Build a zone with Linux-style proportional watermarks."""
    if frames <= 0:
        raise ConfigurationError("zone must contain at least one frame")
    low = max(1, int(frames * watermark_fraction))
    return Zone(
        kind=kind,
        buddy=BuddyAllocator(base_frame, frames),
        low_watermark_pages=low,
        min_watermark_pages=max(1, low // 2),
    )
