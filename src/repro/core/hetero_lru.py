"""HeteroOS-LRU: eager, memory-type-aware contention resolution (§3.3).

The stock Linux split LRU is lazy (scan only past a whole-memory
pressure threshold) and I/O-focused.  HeteroOS-LRU fixes all three
limitations the paper lists:

1. *memory-type-specific thresholds* — reclaim triggers on the FastMem
   node's own free-page level, not system-wide pressure;
2. *eager state monitoring* — active->inactive transitions of heap, I/O
   cache, and slab extents are observed every epoch and inactive FastMem
   extents are demoted to SlowMem immediately;
3. *event-driven demotion* — an I/O completion demotes the affected
   FastMem pages at once instead of waiting for a scan.  (An unmap
   needs no hook: ``GuestKernel.free_region`` returns the region's
   pages to the allocator in the same call, so nothing is left to
   demote.)

Demotions are guest-local (no VMM round trip, simple remap + copy), so
they are charged at a flat per-page cost far below Table 6's coordinated
migration costs.
"""

from __future__ import annotations

from repro.core.heap_io_slab_od import HeapIoSlabOdPolicy
from repro.core.policy import PolicyBinding, register_policy
from repro.errors import OutOfMemoryError, ReproError
from repro.mem.extent import PageExtent
from repro.units import NS_PER_US, plain_sum


@register_policy("hetero-lru")
class HeteroLruPolicy(HeapIoSlabOdPolicy):
    """Heap-IO-Slab-OD plus eager FastMem eviction."""

    name = "hetero-lru"

    #: Guest-local demotion cost per page (remap + 4 KiB copy).
    DEMOTE_PAGE_NS = 3.0 * NS_PER_US

    def __init__(
        self,
        fast_free_target: float = 0.1,
        inactive_after_epochs: int = 2,
    ) -> None:
        super().__init__()
        self.fast_free_target = fast_free_target
        self.inactive_after_epochs = inactive_after_epochs
        self._demote_queue: list[PageExtent] = []
        self.pages_demoted = 0
        self.demote_cost_ns = 0.0

    def bind(self, binding: PolicyBinding) -> None:
        super().bind(binding)
        kernel = binding.kernel
        for lru in kernel.lru.values():
            lru.inactive_after_epochs = self.inactive_after_epochs
        kernel.page_cache.add_io_complete_hook(self._on_io_complete)

    # ------------------------------------------------------------------
    # Eager event triggers
    # ------------------------------------------------------------------

    def _on_io_complete(self, extent: PageExtent) -> None:
        """I/O finished: if the pages sit in FastMem, queue their
        demotion for this epoch's batch."""
        kernel = self.kernel
        if extent.node_id in kernel.fast_node_ids and not extent.swapped:
            self._demote_queue.append(extent)

    # ------------------------------------------------------------------
    # Epoch work
    # ------------------------------------------------------------------

    def on_epoch_end(self, epoch: int) -> float:
        overhead = super().on_epoch_end(epoch)
        overhead += self._demote_pass(epoch)
        return overhead

    def _demote_pass(self, epoch: int) -> float:
        """Restore the FastMem free-page target by evicting cold pages.

        This is the memory-type-specific threshold of Section 3.3: the
        trigger is the FastMem node's *own* free level, not whole-system
        pressure.  Completed-I/O extents are *dropped* (the backing store
        holds the data — no copy needed); inactive anonymous/slab extents
        are migrated to SlowMem at the guest-local per-page cost.
        """
        kernel = self.kernel
        slow_ids = kernel.slow_node_ids
        if not slow_ids:
            self._demote_queue = []
            return 0.0
        target = slow_ids[0]
        demoted_before = self.pages_demoted
        cost = 0.0
        queued, self._demote_queue = self._demote_queue, []
        for fast_id in kernel.fast_node_ids:
            node = kernel.nodes[fast_id]
            lru = kernel.lru[fast_id]
            # Memory-type-specific threshold (Section 3.3): on a scarce
            # FastMem node, "cold" is relative — pages well below the
            # node's mean active density yield their slots so denser
            # newcomers (from any subsystem) can claim them.
            active = lru.active_extents
            active_pages = 0
            for extent in active:
                active_pages += extent.pages
            if active_pages > 0 and node.free_pages < node.total_pages * 0.5:
                # From 0, left to right, as units.plain_sum adds (never
                # sum(): 3.12's is compensated); a loop, as this runs
                # every epoch.
                temperature = 0
                for extent in active:
                    temperature += extent.temperature
                mean_density = temperature / active_pages
                lru.cold_density_threshold = max(2.0, 0.35 * mean_density)
            lru.scan(epoch)
            deficit = (
                int(node.total_pages * self.fast_free_target) - node.free_pages
            )
            # Eager path: completed I/O on this node is always dropped —
            # short-lived cache pages must never pin FastMem (Section 3.3
            # thresholds 1-2) — and dropping is free of copy cost.
            for extent in queued:
                if (
                    extent.extent_id in kernel.extents
                    and extent.node_id == fast_id
                    and extent.page_type.is_io
                    and not extent.swapped
                ):
                    deficit -= kernel.drop_io_extent(extent)
            if deficit <= 0:
                continue
            # Pressure path: demote the coldest inactive extents until
            # the free target is restored.
            for extent in list(lru.inactive_extents):
                if deficit <= 0:
                    break
                if extent.swapped or not extent.page_type.is_migratable:
                    continue
                if extent.page_type.is_io:
                    deficit -= kernel.drop_io_extent(extent)
                    continue
                # 1024 is a minimum demotion batch in *pages*, not bytes.
                # heterolint: disable-next-line=magic-number
                move_pages = min(extent.pages, max(deficit, 1024))
                try:
                    if move_pages < extent.pages:
                        kernel.split_extent(extent, move_pages)
                    moved = kernel.move_extent(extent, target)
                except (OutOfMemoryError, ReproError):
                    continue
                if moved:
                    kernel.lru[target].deactivate(extent)
                    self.pages_demoted += moved
                    cost += moved * self.DEMOTE_PAGE_NS
                    deficit -= moved
            cost += self._demote_for_denser(epoch, fast_id, target)
        self.demote_cost_ns += cost
        demoted = self.pages_demoted - demoted_before
        if demoted:
            self.record_decision(
                "demote-pass", epoch=epoch, pages=demoted, cost_ns=cost
            )
        return cost

    def _demote_for_denser(
        self, epoch: int, fast_id: int, target: int
    ) -> float:
        """Demand-based prioritization across subsystems (Section 3.2):
        when this epoch's allocations *missed* FastMem and are markedly
        denser than resident FastMem pages, demote the coldest actives to
        make room for the starving subsystem's next allocations."""
        kernel = self.kernel
        node = kernel.nodes[fast_id]
        # Incoming demand that missed FastMem this epoch.
        missed = [
            e
            for e in kernel.extents.values()
            if e.birth_epoch == epoch
            and e.node_id != fast_id
            and not e.swapped
            and e.page_type in self.FAST_TYPES
            and e.temperature > 0
        ]
        if not missed:
            return 0.0
        missed_pages = sum(e.pages for e in missed)
        # First-epoch temperature is one epoch's accesses; scale by 2 to
        # compare against steady-state EWMA densities (decay 0.5).
        incoming_density = (
            2.0 * plain_sum(e.temperature for e in missed) / missed_pages
        )
        budget = min(missed_pages, node.total_pages // 8)
        cost = 0.0
        victims = sorted(
            kernel.lru[fast_id].active_extents,
            key=lambda e: e.temperature / e.pages if e.pages else 0.0,
        )
        freed = 0
        for extent in victims:
            if freed >= budget:
                break
            density = extent.temperature / extent.pages if extent.pages else 0.0
            # Hysteresis: only displace pages at most half as dense.
            if density * 2.0 >= incoming_density:
                break
            if extent.swapped or not extent.page_type.is_migratable:
                continue
            if extent.page_type.is_io:
                freed += kernel.drop_io_extent(extent)
                continue
            need = budget - freed
            try:
                if extent.pages > need:
                    kernel.split_extent(extent, need)
                moved = kernel.move_extent(extent, target)
            except (OutOfMemoryError, ReproError):
                continue
            if moved:
                kernel.lru[target].deactivate(extent)
                self.pages_demoted += moved
                cost += moved * self.DEMOTE_PAGE_NS
                freed += moved
        return cost
