"""The guest kernel: ties the subsystems together.

:class:`GuestKernel` is what placement policies program against.  It owns
the heterogeneity-aware NUMA nodes, routes allocation requests through
per-CPU lists and zone buddy allocators along a policy-supplied node
preference order, keeps the per-subsystem allocation statistics that
drive demand-based FastMem prioritization (Section 3.2), and performs
guest-controlled extent moves for the migration engine.

Allocation statistics
---------------------
For every :class:`~repro.mem.extent.PageType` the kernel counts requested
pages and pages that landed on a FastMem node, per epoch and cumulatively.
``FastMem allocation miss ratio`` (Figure 10) is
``1 - fast_granted / requested``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AllocationError,
    OutOfMemoryError,
    ReproError,
    SwapWriteError,
)
from repro.guestos.balloon import BalloonFrontend
from repro.guestos.lru import SplitLru
from repro.guestos.numa import MemoryNode, NodeTier
from repro.guestos.pagecache import PageCache
from repro.guestos.percpu import PerCpuFreeLists
from repro.guestos.slab import SlabAllocator
from repro.guestos.swap import SwapDevice
from repro.mem.extent import PAGE_TYPES, ExtentState, PageExtent, PageType
from repro.mem.frames import FrameRange
from repro.units import GIB, Ns, Pages, pages_of_bytes

#: Requests at or below this many pages take the per-CPU fast path.
PERCPU_THRESHOLD_PAGES = 16

#: PTEs per page-table page (x86-64: 512 eight-byte entries).
PTES_PER_PT_PAGE = 512


@dataclass
class AllocStats:
    """Per-page-type allocation accounting."""

    requested_pages: int = 0
    fast_granted_pages: int = 0

    @property
    def miss_pages(self) -> int:
        return self.requested_pages - self.fast_granted_pages

    @property
    def miss_ratio(self) -> float:
        """Fraction of requested pages NOT served by FastMem."""
        if self.requested_pages == 0:
            return 0.0
        return self.miss_pages / self.requested_pages

    def merge(self, other: "AllocStats") -> None:
        self.requested_pages += other.requested_pages
        self.fast_granted_pages += other.fast_granted_pages


def _new_stats() -> dict[PageType, AllocStats]:
    return {page_type: AllocStats() for page_type in PAGE_TYPES}


@dataclass
class PageDistribution:
    """Cumulative pages allocated per type (Figure 4's data)."""

    allocated: dict[PageType, int] = field(
        default_factory=lambda: dict.fromkeys(PAGE_TYPES, 0)
    )

    @property
    def total_pages(self) -> int:
        return sum(self.allocated.values())

    def fraction(self, page_type: PageType) -> float:
        total = self.total_pages
        return self.allocated[page_type] / total if total else 0.0


class GuestKernel:
    """One guest VM's operating system."""

    def __init__(
        self,
        nodes: dict[int, MemoryNode],
        cpus: int = 16,
        balloon: BalloonFrontend | None = None,
        swap: SwapDevice | None = None,
    ) -> None:
        if not nodes:
            raise AllocationError("guest needs at least one memory node")
        self.nodes = dict(nodes)
        # The node topology is fixed for the kernel's lifetime (ballooning
        # hides frames, it never adds or removes nodes), so the ordered
        # id views consulted on every allocation are computed once.
        #: FastMem node ids, ascending.  Read-only.
        self.fast_node_ids: list[int] = sorted(
            nid for nid, node in self.nodes.items() if node.is_fastmem
        )
        self._fast_node_set = frozenset(self.fast_node_ids)
        #: The other node ids, fastest tier first.  Read-only.
        self.slow_node_ids: list[int] = sorted(
            (nid for nid, node in self.nodes.items() if not node.is_fastmem),
            key=lambda nid: self.nodes[nid].tier.rank,
        )
        self._nodes_by_speed = sorted(
            self.nodes, key=lambda nid: (self.nodes[nid].tier.rank, nid)
        )
        self.cpus = cpus
        self.balloon = balloon
        self.swap = swap or SwapDevice(capacity_pages=pages_of_bytes(16 * GIB))
        self.percpu = PerCpuFreeLists(cpus, self.nodes)
        self.lru: dict[int, SplitLru] = {
            node_id: SplitLru(node_id) for node_id in self.nodes
        }
        self.page_cache = PageCache()
        self.slab = SlabAllocator(self._slab_page_source, self._slab_page_release)
        self.extents: dict[int, PageExtent] = {}
        self.regions: dict[str, list[int]] = {}
        self.epoch = 0
        self.epoch_stats: dict[PageType, AllocStats] = _new_stats()
        self.cumulative_stats: dict[PageType, AllocStats] = _new_stats()
        self.distribution = PageDistribution()
        #: Balloon-hidden guest-physical frames per node (unrevealed span).
        self._hidden: dict[int, list[FrameRange]] = {nid: [] for nid in self.nodes}
        self._slab_regions = 0
        #: Costs accrued by kernel-internal work (swap, reclaim) since the
        #: engine last drained them into the run's virtual time.
        self.pending_cost_ns = 0.0
        #: FastMem pages released by frees this epoch — the short-lived
        #: churn's recycling claim on FastMem (see CoordinatedPolicy).
        self.epoch_freed_fast_pages = 0

    # ------------------------------------------------------------------
    # Node topology helpers
    # ------------------------------------------------------------------

    def nodes_by_speed(self) -> list[int]:
        """All node ids, fastest tier first."""
        return self._nodes_by_speed

    def node_for_tier(self, tier: NodeTier) -> MemoryNode:
        for node in self.nodes.values():
            if node.tier is tier:
                return node
        raise AllocationError(f"no node of tier {tier.value}")

    def free_pages(self, node_id: int) -> Pages:
        return self.nodes[node_id].free_pages

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def begin_epoch(self, epoch: int) -> None:
        """Reset the per-epoch statistics window.

        The window's ``AllocStats`` are zeroed in place, so a reader of
        :attr:`epoch_stats` must read it within the epoch.
        """
        self.epoch = epoch
        for stats in self.epoch_stats.values():
            stats.requested_pages = 0
            stats.fast_granted_pages = 0
        self.epoch_freed_fast_pages = 0

    def epoch_miss_ratios(self) -> dict[PageType, float]:
        """Per-subsystem FastMem allocation miss ratios for this epoch —
        the signal demand-based prioritization ranks subsystems by."""
        return {
            page_type: stats.miss_ratio
            for page_type, stats in self.epoch_stats.items()
            if stats.requested_pages > 0
        }

    # ------------------------------------------------------------------
    # Region allocation / free
    # ------------------------------------------------------------------

    def allocate_region(
        self,
        region_id: str,
        page_type: PageType,
        pages: Pages,
        node_preference: list[int],
        cpu: int = 0,
        allow_partial_nodes: bool = True,
        dirty: bool = False,
    ) -> list[PageExtent]:
        """Allocate ``pages`` of ``page_type`` walking ``node_preference``.

        One extent is created per node that contributes frames.  When the
        preferred nodes cannot cover the request the balloon (if present)
        is asked for more of the first-choice tier; any remaining
        shortfall falls back to whichever node has room.  Raises
        :class:`OutOfMemoryError` when the guest truly has no pages.  A
        call that raises returns every page it took first.
        """
        if pages <= 0:
            raise AllocationError(f"region {region_id!r}: zero-page request")
        if region_id in self.regions:
            raise AllocationError(f"region {region_id!r} already allocated")
        if not node_preference:
            raise AllocationError("empty node preference")

        extents: list[PageExtent] = []
        remaining = pages
        try:
            for node_id in node_preference:
                if remaining == 0:
                    break
                remaining -= self._allocate_on_node(
                    region_id, page_type, node_id, remaining, cpu, extents,
                    exact=not allow_partial_nodes,
                )
                # On-demand driver (Figure 5 steps 1-3): before settling
                # for the next-best memory type, ask the VMM for more of
                # *this* one.
                if remaining > 0 and self.balloon is not None:
                    remaining -= self._balloon_for(
                        region_id, page_type, node_id, remaining, cpu,
                        extents, allow_fallback=False,
                    )
            if remaining > 0:
                # Last resort: any node with room, fastest first.
                for node_id in self.nodes_by_speed():
                    if remaining == 0:
                        break
                    if node_id in node_preference:
                        continue
                    remaining -= self._allocate_on_node(
                        region_id, page_type, node_id, remaining, cpu, extents
                    )
            if remaining > 0 and self.balloon is not None:
                # Truly out of revealed memory: take any tier the VMM can
                # still provide (the front-end's fallback strategy).
                remaining -= self._balloon_for(
                    region_id, page_type, node_preference[0], remaining,
                    cpu, extents, allow_fallback=True,
                )
            if remaining > 0:
                raise OutOfMemoryError(
                    f"region {region_id!r}: {remaining} of {pages} pages "
                    "unsatisfiable on any node"
                )
        except ReproError:
            for extent in extents:
                self._destroy_extent(extent)
            raise

        self.regions[region_id] = [extent.extent_id for extent in extents]
        fast_nodes = self._fast_node_set
        fast_pages = 0
        for extent in extents:
            if extent.node_id in fast_nodes:
                fast_pages += extent.pages
        self._record_allocation(page_type, pages, fast_pages)
        if page_type.is_io:
            for extent in extents:
                self.page_cache.insert(extent, dirty=dirty)
        elif dirty:
            for extent in extents:
                extent.dirty = True
        return extents

    def free_region(self, region_id: str) -> Pages:
        """Release a region entirely; returns pages freed.

        Writes back any dirty I/O pages before their frames return to
        the allocator — the page-state validity checks of Section 4.1.
        """
        extent_ids = self.regions.pop(region_id, None)
        if extent_ids is None:
            raise AllocationError(f"free of unknown region {region_id!r}")
        extents = self.extents
        page_cache = self.page_cache
        freed = 0
        for extent_id in extent_ids:
            extent = extents[extent_id]
            if extent.page_type.is_io and page_cache.is_resident(extent):
                page_cache.writeback(extent)
                page_cache.drop(extent)
            freed += extent.pages
            self._destroy_extent(extent)
        return freed

    def region_extents(self, region_id: str) -> list[PageExtent]:
        ids = self.regions.get(region_id)
        if ids is None:
            raise AllocationError(f"unknown region {region_id!r}")
        return [self.extents[eid] for eid in ids]

    def has_region(self, region_id: str) -> bool:
        return region_id in self.regions

    def live_regions(self) -> list[str]:
        return list(self.regions)

    # ------------------------------------------------------------------
    # Access recording
    # ------------------------------------------------------------------

    def touch_region(
        self,
        region_id: str,
        accesses: float,
        write: bool = False,
        writes: float = 0.0,
    ) -> None:
        """Record one epoch's accesses to a region: update extent
        temperatures (read and write), hardware access bits, and LRU
        recency.

        Touching a swapped extent faults it back in (swap-in cost goes to
        :attr:`pending_cost_ns`); when no node has room, a refault storm
        penalty is charged instead, capped at one read per page.
        """
        extent_ids = self.regions.get(region_id)
        if extent_ids is None:
            raise AllocationError(f"unknown region {region_id!r}")
        # A snapshot: a swap-in below may split an extent, inserting the
        # (still swapped) tail into the region's id list.
        extents = list(map(self.extents.__getitem__, extent_ids))
        total_pages = 0
        for extent in extents:
            total_pages += extent.pages
        if total_pages == 0:
            return
        for extent in extents:
            fraction = extent.pages / total_pages
            share = accesses * fraction
            if extent.swapped and share > 0:
                self._swap_in(extent)
            extent.record_access(self.epoch, share, writes=writes * fraction)
            if write or writes > 0:
                extent.dirty = True
            if share > 0 and not extent.swapped:
                self.lru[extent.node_id].record_access(extent)

    def _swap_in(self, extent: PageExtent) -> None:
        """Fault a swapped extent back into memory: whole if room exists,
        partially (splitting the extent) if only part fits, and charging
        a bounded refault penalty for whatever thrashes in place."""
        remaining = extent
        for node_id in self.nodes_by_speed():
            node = self.nodes[node_id]
            room = node.free_pages_for(remaining.page_type)
            if room <= 0:
                continue
            if room < remaining.pages:
                landed = remaining
                remaining = self.split_swapped(landed, room)
            else:
                landed, remaining = remaining, None
            frames, got = node.allocate_up_to(landed.pages, landed.page_type)
            if got < landed.pages:
                # Raced out (fragmentation); both pieces stay swapped.
                node.free_ranges(frames)
                stuck = landed.pages + (remaining.pages if remaining else 0)
                self.pending_cost_ns += (
                    stuck * self.swap.read_page_ns * 0.1
                )
                return
            landed.frames = frames
            landed.node_id = node_id
            landed.swapped = False
            self.lru[node_id].insert(landed)
            self.pending_cost_ns += self.swap.swap_in(landed.pages)
            if remaining is None:
                return
        if remaining is not None:
            # The unfit tail thrashes: its hot subset refaults in place.
            self.pending_cost_ns += (
                remaining.pages * self.swap.read_page_ns * 0.1
            )

    def split_swapped(self, extent: PageExtent, first_pages: Pages) -> PageExtent:
        """Split a *swapped* extent (no frames to divide); returns the
        tail, which stays swapped."""
        if not 0 < first_pages < extent.pages:
            raise AllocationError("bad swapped split point")
        rest_pages = extent.pages - first_pages
        fraction = rest_pages / extent.pages
        sibling = PageExtent(
            region_id=extent.region_id,
            page_type=extent.page_type,
            pages=rest_pages,
            node_id=extent.node_id,
            frames=[],
            state=extent.state,
            temperature=extent.temperature * fraction,
            write_temperature=extent.write_temperature * fraction,
            swapped=True,
            birth_epoch=extent.birth_epoch,
            last_access_epoch=extent.last_access_epoch,
        )
        extent.pages = first_pages
        extent.temperature *= 1.0 - fraction
        extent.write_temperature *= 1.0 - fraction
        self.extents[sibling.extent_id] = sibling
        ids = self.regions.get(extent.region_id)
        if ids is not None:
            ids.insert(ids.index(extent.extent_id) + 1, sibling.extent_id)
        return sibling

    # ------------------------------------------------------------------
    # Reclaim (balloon-out path)
    # ------------------------------------------------------------------

    def shrink_node(self, node_id: int, pages: Pages) -> Pages:
        """Make up to ``pages`` pages free on ``node_id`` for ballooning
        out: counts already-free pages first, then swaps out the coldest
        extents (cost accrues to :attr:`pending_cost_ns`).  Returns the
        number of free pages now available."""
        node = self.nodes[node_id]
        if node.free_pages >= pages:
            return pages
        need = pages - node.free_pages
        for extent in self.lru[node_id].evict_candidates(need):
            if extent.swapped:
                continue
            if extent.page_type.is_io and self.page_cache.is_resident(extent):
                # Clean page-cache drop is cheaper than swap.
                self.page_cache.writeback(extent)
                self.page_cache.drop(extent)
                self._remove_extent_from_region(extent)
                self.lru[node_id].remove(extent)
                node.free_ranges(extent.frames)
                del self.extents[extent.extent_id]
            else:
                if self.swap.free_pages < extent.pages:
                    continue  # swap device full; cannot reclaim this one
                try:
                    cost = self.swap.swap_out(extent.pages)
                except SwapWriteError:
                    # Transient write error: the extent stays resident
                    # (nothing was written, nothing to unwind); charge
                    # the wasted device pass and try the next victim.
                    self.pending_cost_ns += (
                        extent.pages * self.swap.write_page_ns
                    )
                    continue
                self.pending_cost_ns += cost
                node.free_ranges(extent.frames)
                self.lru[node_id].remove(extent)
                extent.frames = []
                extent.swapped = True
            need -= extent.pages
            if need <= 0:
                break
        return min(pages, node.free_pages)

    def _remove_extent_from_region(self, extent: PageExtent) -> None:
        ids = self.regions.get(extent.region_id)
        if ids is not None and extent.extent_id in ids:
            ids.remove(extent.extent_id)

    def drain_pending_cost(self) -> Ns:
        """Hand accumulated kernel-internal costs to the engine."""
        cost = self.pending_cost_ns
        self.pending_cost_ns = 0.0
        return cost

    def occupancy_snapshot(self) -> dict:
        """Zone/LRU/balloon occupancy gauges for telemetry.

        Read-only and JSON-safe; node keys are strings (fastest tier
        first) so a sample round-trips losslessly through JSON.
        """
        nodes: dict[str, dict] = {}
        for node_id in self.nodes_by_speed():
            node = self.nodes[node_id]
            lru = self.lru[node_id]
            nodes[str(node_id)] = {
                "tier": node.tier.value,
                "device": node.device.name,
                "total_pages": node.total_pages,
                "free_pages": node.free_pages,
                "used_pages": node.used_pages,
                "active_pages": lru.active_pages,
                "inactive_pages": lru.inactive_pages,
                "percpu_cached_pages": self.percpu.cached_pages(node_id),
                "ballooned_pages": self.hidden_pages(node_id),
                "zones": {
                    zone.kind.value: {
                        "total_pages": zone.total_pages,
                        "free_pages": zone.free_pages,
                    }
                    for zone in node.zones
                },
            }
        return {
            "nodes": nodes,
            "swap": {
                "used_pages": self.swap.used_pages,
                "pages_out": self.swap.stats.pages_out,
                "pages_in": self.swap.stats.pages_in,
            },
        }

    # ------------------------------------------------------------------
    # Whole-kernel invariants (used by tests and debugging sessions)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify cross-subsystem accounting; raises on violation.

        Checks: buddy allocators self-consistent; every live extent's
        frames lie inside its node and don't overlap any other extent's;
        region indexes reference live extents, and every live extent is
        listed by exactly one region; resident (non-swapped)
        extents are exactly the LRU population; per-node page accounting
        adds up (free + extents + hidden + per-CPU cached == total).
        """
        for node in self.nodes.values():
            for zone in node.zones:
                zone.buddy.check_invariants()
        # Frame ownership: in-node and disjoint.
        zone_spans = {
            node_id: [
                (zone.buddy.base, zone.buddy.base + zone.buddy.total_frames)
                for zone in node.zones
            ]
            for node_id, node in self.nodes.items()
        }
        owned: list[tuple[int, int, int]] = []
        extent_pages_by_node: dict[int, int] = {nid: 0 for nid in self.nodes}
        for extent in self.extents.values():
            if extent.swapped:
                if extent.frames:
                    raise AllocationError(
                        f"swapped extent {extent.extent_id} still holds frames"
                    )
                continue
            extent_pages_by_node[extent.node_id] += extent.pages
            spans = zone_spans[extent.node_id]
            frame_total = 0
            for frame_range in extent.frames:
                frame_total += frame_range.count
                start, end = frame_range.start, frame_range.end
                if not any(
                    low <= start and end <= high for low, high in spans
                ):
                    raise AllocationError(
                        f"extent {extent.extent_id}: frames [{start}, {end}) "
                        f"outside node {extent.node_id}'s zones"
                    )
                owned.append((start, end, extent.extent_id))
            if frame_total != extent.pages:
                raise AllocationError(
                    f"extent {extent.extent_id}: {frame_total} frames for "
                    f"{extent.pages} pages"
                )
        # Sorted by start, any overlap shows between neighbours.
        owned.sort()
        for (_, end, owner), (start, _, other) in zip(owned, owned[1:]):
            if start < end:
                raise AllocationError(
                    f"frame {start} owned by extents {owner} and {other}"
                )
        # Region indexes reference live extents exactly once.
        referenced: set[int] = set()
        for region_id, extent_ids in self.regions.items():
            for extent_id in extent_ids:
                if extent_id not in self.extents:
                    raise AllocationError(
                        f"region {region_id!r} references dead extent "
                        f"{extent_id}"
                    )
                if extent_id in referenced:
                    raise AllocationError(
                        f"extent {extent_id} in two regions"
                    )
                referenced.add(extent_id)
        if len(referenced) != len(self.extents):
            unlisted = min(self.extents.keys() - referenced)
            raise AllocationError(f"extent {unlisted} in no region")
        # LRU population == resident extents per node.
        for node_id, lru in self.lru.items():
            lru_pages = lru.active_pages + lru.inactive_pages
            if lru_pages != extent_pages_by_node[node_id]:
                raise AllocationError(
                    f"node {node_id}: LRU holds {lru_pages} pages, extents "
                    f"hold {extent_pages_by_node[node_id]}"
                )
        # Node capacity accounting.
        for node_id, node in self.nodes.items():
            cached = self.percpu.cached_pages(node_id)
            hidden = self.hidden_pages(node_id)
            used = extent_pages_by_node[node_id]
            total = node.free_pages + cached + hidden + used
            if total != node.total_pages:
                raise AllocationError(
                    f"node {node_id}: {node.free_pages} free + {cached} "
                    f"cached + {hidden} hidden + {used} in extents != "
                    f"{node.total_pages} total"
                )

    # ------------------------------------------------------------------
    # Extent movement (guest-controlled migration target ops)
    # ------------------------------------------------------------------

    def move_extent(self, extent: PageExtent, target_node_id: int) -> int:
        """Physically relocate an extent to another node.

        Performs the guest-side validity checks of Section 4.1: the extent
        must still be live (mapped) and not a dirty I/O page.  Returns the
        number of pages moved.  The *cost* of the move is charged by the
        migration engine, not here.
        """
        if extent.extent_id not in self.extents:
            raise AllocationError(f"move of dead extent {extent.extent_id}")
        if target_node_id not in self.nodes:
            raise AllocationError(f"unknown target node {target_node_id}")
        if extent.node_id == target_node_id:
            return 0
        if not extent.page_type.is_migratable:
            raise AllocationError(
                f"{extent.page_type.value} pages are not migratable"
            )
        if extent.page_type.is_io and self.page_cache.is_dirty(extent):
            self.page_cache.writeback(extent)
        target = self.nodes[target_node_id]
        if target.free_pages_for(extent.page_type) < extent.pages:
            raise OutOfMemoryError(
                f"node {target_node_id}: no room for {extent.pages} pages"
            )
        new_frames, got = target.allocate_up_to(extent.pages, extent.page_type)
        if got < extent.pages:
            target.free_ranges(new_frames)
            raise OutOfMemoryError(
                f"node {target_node_id}: raced out of pages during move"
            )
        was_inactive = extent.state is ExtentState.INACTIVE
        source = self.nodes[extent.node_id]
        try:
            source.free_ranges(extent.frames)
        except AllocationError:
            # The source rejected its frames: hand the target its grant
            # back so a failed move leaks nothing.
            target.free_ranges(new_frames)
            raise
        self.lru[extent.node_id].remove(extent)
        extent.frames = new_frames
        extent.node_id = target_node_id
        self.lru[target_node_id].insert(extent)
        if was_inactive:
            self.lru[target_node_id].deactivate(extent)
        return extent.pages

    def split_extent(self, extent: PageExtent, first_pages: Pages) -> PageExtent:
        """Split an extent in place: ``extent`` keeps ``first_pages``, the
        remainder becomes a new extent of the same region returned to the
        caller.  Temperatures split proportionally (uniform within a
        region).  Used to migrate partial regions under a page budget."""
        if extent.extent_id not in self.extents:
            raise AllocationError(f"split of dead extent {extent.extent_id}")
        if not 0 < first_pages < extent.pages:
            raise AllocationError(
                f"split point {first_pages} outside extent of {extent.pages}"
            )
        if extent.swapped:
            raise AllocationError("cannot split a swapped extent")
        rest_pages = extent.pages - first_pages
        keep_frames: list[FrameRange] = []
        rest_frames: list[FrameRange] = []
        needed = first_pages
        for frame_range in extent.frames:
            if needed >= frame_range.count:
                keep_frames.append(frame_range)
                needed -= frame_range.count
            elif needed > 0:
                head, tail = frame_range.split(needed)
                keep_frames.append(head)
                rest_frames.append(tail)
                needed = 0
            else:
                rest_frames.append(frame_range)
        fraction = rest_pages / extent.pages
        sibling = PageExtent(
            region_id=extent.region_id,
            page_type=extent.page_type,
            pages=rest_pages,
            node_id=extent.node_id,
            frames=rest_frames,
            state=extent.state,
            temperature=extent.temperature * fraction,
            write_temperature=extent.write_temperature * fraction,
            accessed=extent.accessed,
            dirty=extent.dirty,
            birth_epoch=extent.birth_epoch,
            last_access_epoch=extent.last_access_epoch,
        )
        extent.frames = keep_frames
        extent.pages = first_pages
        extent.temperature *= 1.0 - fraction
        extent.write_temperature *= 1.0 - fraction
        self.extents[sibling.extent_id] = sibling
        ids = self.regions.get(extent.region_id)
        if ids is not None:
            ids.insert(ids.index(extent.extent_id) + 1, sibling.extent_id)
        lru = self.lru[extent.node_id]
        # A resident extent is always on its node's LRU; its page count
        # just shrank in place, so the LRU's running counter must hear
        # about it.
        lru.note_resized(extent, -rest_pages)
        lru.insert(sibling)
        if extent.state is ExtentState.INACTIVE:
            lru.deactivate(sibling)
        if extent.page_type.is_io and self.page_cache.is_resident(extent):
            self.page_cache.insert(sibling, dirty=self.page_cache.is_dirty(extent))
        return sibling

    def drop_io_extent(self, extent: PageExtent) -> Pages:
        """Release an I/O cache extent outright (writeback first if
        dirty): the cheap eviction path for completed I/O — the backing
        store already holds the data, no copy to SlowMem is needed.
        Returns pages freed."""
        if extent.extent_id not in self.extents:
            raise AllocationError(f"drop of dead extent {extent.extent_id}")
        if not extent.page_type.is_io:
            raise AllocationError(
                f"drop_io_extent on {extent.page_type.value} pages"
            )
        if extent.swapped:
            return 0
        if self.page_cache.is_resident(extent):
            self.page_cache.writeback(extent)
            self.page_cache.drop(extent)
        self._remove_extent_from_region(extent)
        node_id = extent.node_id
        self.lru[node_id].remove(extent)
        self.nodes[node_id].free_ranges(extent.frames)
        if node_id in self._fast_node_set:
            self.epoch_freed_fast_pages += extent.pages
        del self.extents[extent.extent_id]
        return extent.pages

    # ------------------------------------------------------------------
    # Balloon support
    # ------------------------------------------------------------------

    def hide_pages(self, node_id: int, pages: Pages) -> Pages:
        """Remove free pages from a node (balloon inflation); returns
        pages actually hidden."""
        node = self.nodes[node_id]
        take = min(pages, node.free_pages)
        if take <= 0:
            return 0
        # Hide from the least-preferred zone first to preserve DMA space.
        hidden = 0
        for zone in reversed(node.zones):
            grab = min(take - hidden, zone.free_pages)
            if grab > 0:
                self._hidden[node_id].extend(zone.buddy.allocate_pages(grab))
                hidden += grab
            if hidden == take:
                break
        return hidden

    def reveal_pages(self, node_id: int, pages: Pages) -> Pages:
        """Return balloon-hidden pages to a node's allocator; returns
        pages revealed."""
        node = self.nodes[node_id]
        revealed = 0
        stash = self._hidden[node_id]
        while stash and revealed < pages:
            frame_range = stash.pop()
            if revealed + frame_range.count > pages:
                use, keep = frame_range.split(pages - revealed)
                stash.append(keep)
                frame_range = use
            node.free_ranges([frame_range])
            revealed += frame_range.count
        return revealed

    def hidden_pages(self, node_id: int) -> Pages:
        return sum(fr.count for fr in self._hidden[node_id])

    def hidden_ranges(self, node_id: int) -> list[FrameRange]:
        """Balloon-hidden frame ranges on ``node_id`` (read-only view
        for the frame sanitizer's teardown reconciliation)."""
        return list(self._hidden[node_id])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _allocate_on_node(
        self,
        region_id: str,
        page_type: PageType,
        node_id: int,
        pages: int,
        cpu: int,
        extents: list[PageExtent],
        exact: bool = False,
    ) -> int:
        """Allocate up to ``pages`` on one node; appends an extent and
        returns the page count obtained."""
        node = self.nodes.get(node_id)
        if node is None:
            raise AllocationError(f"unknown node {node_id}")
        available = node.free_pages_for(page_type)
        take = pages if exact else min(pages, available)
        if take <= 0 or available < take:
            return 0
        if take <= PERCPU_THRESHOLD_PAGES:
            try:
                frames = self.percpu.allocate(cpu, node_id, take, page_type)
            except OutOfMemoryError:
                return 0
        else:
            frames, got = node.allocate_up_to(take, page_type)
            if got < take:
                node.free_ranges(frames)
                return 0
        extent = PageExtent(
            region_id=region_id,
            page_type=page_type,
            pages=take,
            node_id=node_id,
            frames=frames,
            birth_epoch=self.epoch,
        )
        self.extents[extent.extent_id] = extent
        self.lru[node_id].insert(extent)
        extents.append(extent)
        return take

    def _balloon_for(
        self,
        region_id: str,
        page_type: PageType,
        node_id: int,
        pages: int,
        cpu: int,
        extents: list[PageExtent],
        allow_fallback: bool = False,
    ) -> int:
        """Ask the VMM for more memory of ``node_id``'s tier, reveal the
        grant, and allocate from it."""
        assert self.balloon is not None
        tier = self.nodes[node_id].tier
        granted = self.balloon.request(tier, pages, allow_fallback=allow_fallback)
        obtained = 0
        for got_tier, got_pages in granted.items():
            if got_pages <= 0:
                continue
            target = self.node_for_tier(got_tier)
            self.reveal_pages(target.node_id, got_pages)
            obtained += self._allocate_on_node(
                region_id, page_type, target.node_id,
                min(pages - obtained, got_pages), cpu, extents,
            )
            if obtained >= pages:
                break
        return obtained

    def _destroy_extent(self, extent: PageExtent) -> None:
        if extent.swapped:
            # Pages live on the swap device; release the swap slots.
            self.swap.used_pages = max(0, self.swap.used_pages - extent.pages)
        else:
            node_id = extent.node_id
            self.lru[node_id].remove(extent)
            self.nodes[node_id].free_ranges(extent.frames)
            if node_id in self._fast_node_set:
                self.epoch_freed_fast_pages += extent.pages
        del self.extents[extent.extent_id]

    def _record_allocation(
        self, page_type: PageType, pages: int, fast_pages: int
    ) -> None:
        stats = self.epoch_stats[page_type]
        stats.requested_pages += pages
        stats.fast_granted_pages += fast_pages
        stats = self.cumulative_stats[page_type]
        stats.requested_pages += pages
        stats.fast_granted_pages += fast_pages
        self.distribution.allocated[page_type] += pages
        # Page-table footprint: one PT page per 512 mapped pages.
        if page_type is not PageType.PAGE_TABLE:
            pt_pages = -(-pages // PTES_PER_PT_PAGE)
            self.distribution.allocated[PageType.PAGE_TABLE] += pt_pages

    # Slab page plumbing -------------------------------------------------

    def _slab_page_source(
        self, cache_name: str, pages: int, page_type: PageType
    ) -> object:
        self._slab_regions += 1
        region_id = f"slab:{cache_name}:{self._slab_regions}"
        preference = self.fast_node_ids + self.slow_node_ids
        self.allocate_region(region_id, page_type, pages, preference)
        return region_id

    def _slab_page_release(self, cache_name: str, token: object) -> None:
        self.free_region(str(token))
