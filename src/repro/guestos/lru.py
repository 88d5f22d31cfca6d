"""Linux-style split LRU (active / inactive lists) per memory node.

"Linux uses an approximate split LRU that maintains an active list of hot
or recently used pages, and an inactive list with cold pages for each
memory zone" (Section 3.3).  This is the *baseline* mechanism: lazy —
scanned only when node pressure crosses a watermark — and driven by whole-
node memory pressure.  HeteroOS-LRU (:mod:`repro.core.hetero_lru`) layers
its memory-type thresholds and eager demotion on top of these lists.

The lists hold extents; ordering within a list is recency (head = most
recent).  ``dict`` insertion order provides the queues.  Each list also
keeps a running page count, so the per-sample occupancy snapshot reads
two integers instead of walking every extent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AllocationError
from repro.mem.extent import ExtentState, PageExtent


@dataclass
class LruStats:
    promotions: int = 0
    demotions: int = 0
    scans: int = 0


@dataclass
class SplitLru:
    """Active/inactive extent lists for one node."""

    node_id: int
    #: Epochs without access before an active extent is demotable.
    inactive_after_epochs: int = 2
    #: Extents whose per-page access temperature stays below this are
    #: treated as cold even when technically "accessed": a huge region
    #: with a handful of touches per epoch should not pin fast memory.
    cold_density_threshold: float = 2.0
    stats: LruStats = field(default_factory=LruStats)

    def __post_init__(self) -> None:
        self._active: dict[int, PageExtent] = {}
        self._inactive: dict[int, PageExtent] = {}
        self._active_page_count = 0
        self._inactive_page_count = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def insert(self, extent: PageExtent) -> None:
        """New extents enter the active list (they were just touched)."""
        if extent.extent_id in self._active or extent.extent_id in self._inactive:
            raise AllocationError(f"extent {extent.extent_id} already on LRU")
        extent.state = ExtentState.ACTIVE
        self._active[extent.extent_id] = extent
        self._active_page_count += extent.pages

    def remove(self, extent: PageExtent) -> None:
        if self._active.pop(extent.extent_id, None) is not None:
            self._active_page_count -= extent.pages
            return
        if self._inactive.pop(extent.extent_id, None) is not None:
            self._inactive_page_count -= extent.pages
            return
        raise AllocationError(f"extent {extent.extent_id} not on LRU")

    def contains(self, extent: PageExtent) -> bool:
        return (
            extent.extent_id in self._active
            or extent.extent_id in self._inactive
        )

    def note_resized(self, extent: PageExtent, delta_pages: int) -> None:
        """``extent.pages`` changed in place by ``delta_pages`` while the
        extent sits on this LRU (extent splits do this): adjust the
        running page count of the list holding it.  Callers must invoke
        it *after* mutating the extent."""
        if extent.extent_id in self._active:
            self._active_page_count += delta_pages
        elif extent.extent_id in self._inactive:
            self._inactive_page_count += delta_pages

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def record_access(self, extent: PageExtent) -> None:
        """Access promotes to the active head (second-chance style)."""
        if extent.extent_id in self._inactive:
            del self._inactive[extent.extent_id]
            extent.state = ExtentState.ACTIVE
            self._active[extent.extent_id] = extent
            self._inactive_page_count -= extent.pages
            self._active_page_count += extent.pages
            self.stats.promotions += 1
        elif extent.extent_id in self._active:
            # Refresh recency: move to dict tail (most recent).
            del self._active[extent.extent_id]
            self._active[extent.extent_id] = extent
        else:
            raise AllocationError(f"extent {extent.extent_id} not on LRU")

    def deactivate(self, extent: PageExtent) -> None:
        """Explicitly move an extent to the inactive list."""
        if extent.extent_id in self._active:
            del self._active[extent.extent_id]
            extent.state = ExtentState.INACTIVE
            self._inactive[extent.extent_id] = extent
            self._active_page_count -= extent.pages
            self._inactive_page_count += extent.pages
            self.stats.demotions += 1
        elif extent.extent_id not in self._inactive:
            raise AllocationError(f"extent {extent.extent_id} not on LRU")

    def scan(self, current_epoch: int) -> int:
        """Age the active list: extents untouched for
        ``inactive_after_epochs``, or whose per-page temperature fell
        below the cold-density threshold, move to the inactive list.
        Returns the number of pages deactivated."""
        self.stats.scans += 1
        moved_pages = 0
        for extent in list(self._active.values()):
            idle = current_epoch - max(extent.last_access_epoch, extent.birth_epoch)
            age = current_epoch - extent.birth_epoch
            density = extent.temperature / extent.pages if extent.pages else 0.0
            stale = idle >= self.inactive_after_epochs
            # Density only counts once the EWMA has had time to settle.
            cold = (
                age >= self.inactive_after_epochs
                and density < self.cold_density_threshold
            )
            if stale or cold:
                self.deactivate(extent)
                moved_pages += extent.pages
        return moved_pages

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------

    def evict_candidates(self, pages_needed: int) -> list[PageExtent]:
        """Coldest extents covering ``pages_needed`` pages: inactive list
        in insertion order first, then the coldest actives."""
        picked: list[PageExtent] = []
        total = 0
        for extent in self._iter_cold():
            if total >= pages_needed:
                break
            picked.append(extent)
            total += extent.pages
        return picked

    def _iter_cold(self) -> Iterator[PageExtent]:
        yield from self._inactive.values()
        yield from self._active.values()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active_pages(self) -> int:
        return self._active_page_count

    @property
    def inactive_pages(self) -> int:
        return self._inactive_page_count

    @property
    def inactive_extents(self) -> list[PageExtent]:
        return list(self._inactive.values())

    @property
    def active_extents(self) -> list[PageExtent]:
        return list(self._active.values())
