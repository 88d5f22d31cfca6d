"""HeteroOS-coordinated: guest-guided VMM tracking, guest-run migration.

Section 4.1's design, on top of HeteroOS-LRU:

* **What to track** — the guest publishes a tracking list (its live heap
  regions, where the paper walks the VMA structure) and an exception
  list (short-lived I/O cache, page-table, DMA pages) over the
  shared-memory channel; the VMM scans only the tracked extents,
  slashing Observation 4's costs.
* **When to track** — the scan/migrate interval adapts to the LLC-miss
  counters the VMM exports, Equation 1:

      dLLC   = (miss_i - miss_{i-1}) / miss_{i-1}
      I_next = I - dLLC * I

  clamped to [50 ms, 1 s].  Rising misses shorten the interval (FastMem
  would pay off), falling misses lengthen it (migration wouldn't).
* **Who migrates** — the VMM only *reports* hot extents; the guest
  validates page state (live, not dirty I/O) and performs the moves
  itself, evicting inactive FastMem pages via HeteroOS-LRU first.
"""

from __future__ import annotations

from repro.core.hetero_lru import HeteroLruPolicy
from repro.core.policy import PolicyBinding, register_policy
from repro.errors import ConfigurationError, ReproError
from repro.mem.extent import PageExtent, PageType
from repro.units import NS_PER_MS, plain_sum


def next_interval_ms(
    interval_ms: float,
    llc_delta: float,
    min_ms: float = 50.0,
    max_ms: float = 1000.0,
) -> float:
    """Equation 1: shrink the interval when LLC misses rise, grow it when
    they fall; clamped to the paper's 50 ms - 1 s range."""
    updated = interval_ms - llc_delta * interval_ms
    return max(min_ms, min(max_ms, updated))


@register_policy("hetero-coordinated")
class CoordinatedPolicy(HeteroLruPolicy):
    """HeteroOS-LRU + OS-guided hotness tracking + architectural hints."""

    name = "hetero-coordinated"

    def __init__(
        self,
        initial_interval_ms: float = 100.0,
        min_interval_ms: float = 50.0,
        max_interval_ms: float = 1000.0,
        scan_batch_pages: int = 16 * 1024,
        migrate_batch_pages: int = 128 * 1024,
        migrate_budget_pages: int = 32 * 1024,
        fast_free_target: float = 0.1,
        inactive_after_epochs: int = 2,
    ) -> None:
        super().__init__(
            fast_free_target=fast_free_target,
            inactive_after_epochs=inactive_after_epochs,
        )
        if min_interval_ms <= 0 or max_interval_ms < min_interval_ms:
            raise ConfigurationError("bad interval clamp range")
        self.interval_ms = initial_interval_ms
        self.min_interval_ms = min_interval_ms
        self.max_interval_ms = max_interval_ms
        self.scan_batch_pages = scan_batch_pages
        self.migrate_batch_pages = migrate_batch_pages
        self.migrate_budget_pages = migrate_budget_pages
        self._elapsed_since_scan_ms = 0.0
        self._epoch_ms = 100.0
        self._displacement_floor = 0.0
        self.scan_cost_ns = 0.0
        self.migration_cost_ns = 0.0
        self.pages_migrated = 0
        self.intervals_ms: list[float] = []

    def bind(self, binding: PolicyBinding) -> None:
        super().bind(binding)
        if binding.channel is None or binding.tracker is None:
            raise ConfigurationError(
                "hetero-coordinated needs a hypervisor-backed binding"
            )

    # ------------------------------------------------------------------
    # Epoch work
    # ------------------------------------------------------------------

    def on_epoch_end(self, epoch: int) -> float:
        overhead = super().on_epoch_end(epoch)  # LRU demotions etc.
        binding = self.binding
        assert binding is not None
        channel = binding.channel
        assert channel is not None

        # Architectural hint: adapt the interval from the LLC counters.
        self.interval_ms = next_interval_ms(
            self.interval_ms,
            channel.guest_read_llc_delta(),
            self.min_interval_ms,
            self.max_interval_ms,
        )
        self.intervals_ms.append(self.interval_ms)

        self._elapsed_since_scan_ms += self._epoch_ms
        if self._elapsed_since_scan_ms < self.interval_ms:
            return overhead
        self._elapsed_since_scan_ms = 0.0

        overhead += self._publish_tracking(channel)
        overhead += self._vmm_scan(channel)
        overhead += self._guest_migrate(channel)
        return overhead

    # ------------------------------------------------------------------
    # Coordination steps
    # ------------------------------------------------------------------

    def _publish_tracking(self, channel) -> float:
        """Export the heap tracking list and the exception list."""
        kernel = self.kernel
        tracked = [
            region_id
            for region_id in kernel.live_regions()
            for extent in kernel.region_extents(region_id)[:1]
            if extent.page_type is PageType.HEAP
        ]
        channel.guest_publish_tracking(
            tracked,
            exception_types={
                PageType.PAGE_CACHE,
                PageType.BUFFER_CACHE,
                PageType.PAGE_TABLE,
                PageType.DMA,
            },
        )
        return 0.0

    def _vmm_scan(self, channel) -> float:
        """The VMM scans only the guest-listed regions' SlowMem extents."""
        binding = self.binding
        assert binding is not None and binding.tracker is not None
        kernel = binding.kernel
        regions, exceptions = channel.vmm_read_tracking()
        slow_ids = set(kernel.slow_node_ids)
        candidates: list[PageExtent] = []
        for region_id in regions:
            if not kernel.has_region(region_id):
                continue
            for extent in kernel.region_extents(region_id):
                if (
                    extent.node_id in slow_ids
                    and not extent.swapped
                    and extent.page_type not in exceptions
                ):
                    candidates.append(extent)
        if not candidates:
            channel.vmm_publish_hot([])
            return 0.0
        report = binding.tracker.scan(
            candidates, max_pages=self.scan_batch_pages
        )
        channel.vmm_publish_hot(
            [extent.extent_id for extent in report.hot_extents]
        )
        self.scan_cost_ns += report.cost_ns
        return report.cost_ns

    def _guest_migrate(self, channel) -> float:
        """Guest-side validation and migration of the VMM's hot report."""
        binding = self.binding
        assert binding is not None and binding.migration_engine is not None
        kernel = binding.kernel
        engine = binding.migration_engine
        fast_ids = kernel.fast_node_ids
        if not fast_ids:
            return 0.0
        target = fast_ids[0]
        # Allocation demand that is denser than a promotion candidate has
        # first claim on FastMem slots — promoting below it would only be
        # undone by the demand-based demotion pass.
        missed = [
            e
            for e in kernel.extents.values()
            if e.birth_epoch == kernel.epoch
            and e.node_id != target
            and not e.swapped
            and e.page_type in self.FAST_TYPES
            and e.temperature > 0
        ]
        missed_pages = sum(e.pages for e in missed)
        incoming_density = (
            2.0 * plain_sum(e.temperature for e in missed) / missed_pages
            if missed_pages
            else 0.0
        )
        # Admission bar: a candidate must also beat half the FastMem
        # node's mean active density, or it would sit right at the
        # demotion threshold and flap in and out every few epochs.
        fast_active = kernel.lru[target].active_extents
        fast_active_pages = sum(e.pages for e in fast_active)
        fast_mean_density = (
            plain_sum(e.temperature for e in fast_active)
            / fast_active_pages
            if fast_active_pages
            else 0.0
        )
        admission_bar = max(incoming_density, 0.5 * fast_mean_density)
        tracker = binding.tracker
        assert tracker is not None
        hot: list[PageExtent] = []
        for extent_id in channel.guest_read_hot_report():
            extent = kernel.extents.get(extent_id)
            # Guest page-state validation (Section 4.1): skip dead pages,
            # dirty I/O, unmigratable types — *before* paying for a move.
            if extent is None or extent.swapped:
                continue
            if not extent.page_type.is_migratable:
                continue
            if extent.page_type.is_io and kernel.page_cache.is_dirty(extent):
                continue
            if extent.node_id == target:
                continue
            if tracker.estimate(extent) <= admission_bar:
                continue
            hot.append(extent)
        if not hot:
            return 0.0
        # Pages at most half as dense as the weakest promotion candidate
        # may be displaced even while active (phase changes leave the old
        # hot set active-but-cooling; without this, a full FastMem could
        # never adapt).
        self._displacement_floor = (
            min(tracker.estimate(extent) for extent in hot) / 2.0
        )
        # Promote only into *surplus* FastMem: free pages beyond what
        # this epoch's FastMem-missing allocation demand will claim next
        # epoch.  Promoting into space the allocator is about to hand to
        # denser incoming pages would just be demoted again — a
        # migrate/demote thrash loop with pure cost.
        fast_node = kernel.nodes[target]
        reserve = sum(
            stats.miss_pages
            for page_type, stats in kernel.epoch_stats.items()
            if page_type in self.FAST_TYPES
        ) + kernel.epoch_freed_fast_pages
        # Inactive I/O pages are *not* room: HeteroOS-LRU drops them and
        # the recycling churn reclaims those slots next epoch.  Active
        # pages below the displacement floor count — they will yield.
        floor = self._displacement_floor
        room = (
            max(0, fast_node.free_pages - reserve)
            + sum(
                e.pages
                for e in kernel.lru[target].inactive_extents
                if not e.swapped and not e.page_type.is_io
            )
            + sum(
                e.pages
                for e in kernel.lru[target].active_extents
                if e.pages
                and not e.swapped
                and e.page_type.is_migratable
                and e.temperature / e.pages < floor
            )
        )
        budget = min(self.migrate_budget_pages, room)
        if budget <= 0:
            return 0.0
        demote_before = self.demote_cost_ns
        report = engine.migrate(
            hot,
            target,
            kernel,
            batch_pages=self.migrate_batch_pages,
            evict_with=self._make_room,
            budget_pages=budget,
        )
        evict_cost = self.demote_cost_ns - demote_before
        self.migration_cost_ns += report.cost_ns
        self.pages_migrated += report.pages_moved
        return report.cost_ns + evict_cost

    def _make_room(self, target_node_id: int, pages_needed: int) -> int:
        """Eviction callback: demote inactive FastMem extents (HeteroOS-
        LRU's candidates) to SlowMem to make room for hot pages."""
        kernel = self.kernel
        slow_ids = kernel.slow_node_ids
        if not slow_ids:
            return 0
        lru = kernel.lru[target_node_id]
        freed = 0
        # Inactive extents first; then active extents markedly colder
        # than the incoming hot pages (below the displacement floor) —
        # never peers, which would thrash FastMem.
        floor = getattr(self, "_displacement_floor", 0.0)
        cold_actives = sorted(
            (
                e
                for e in lru.active_extents
                if e.pages and e.temperature / e.pages < floor
            ),
            key=lambda e: e.temperature / e.pages,
        )
        for extent in lru.inactive_extents + cold_actives:
            if freed >= pages_needed:
                break
            if extent.swapped or not extent.page_type.is_migratable:
                continue
            if extent.page_type.is_io:
                freed += kernel.drop_io_extent(extent)
                continue
            need = pages_needed - freed
            try:
                if extent.pages > need:
                    kernel.split_extent(extent, need)
                moved = kernel.move_extent(extent, slow_ids[0])
            except ReproError:
                continue
            if moved:
                freed += moved
                self.pages_demoted += moved
                self.demote_cost_ns += moved * self.DEMOTE_PAGE_NS
        return freed
