"""Bare-metal HeteroOS: hotness tracking moved into the OS itself.

Section 4.3: "although HeteroOS is currently implemented targeting
virtualized datacenters, most of the placement and management is done at
the OS.  Hence it can be easily applied to non-virtualized systems with
bare-metal OS by just moving the page hotness-tracking and DRF into the
OS."

:class:`NativeCoordinatedPolicy` is that port: the same ladder as
HeteroOS-coordinated, but the hotness tracker and the LLC-miss counters
live in the kernel — no hypervisor, no shared-memory channel, no
guest/VMM round trip (migrations run at the guest-local per-page cost).
It binds happily to a kernel-only :class:`PolicyBinding`.
"""

from __future__ import annotations

from repro.core.coordinated import next_interval_ms
from repro.core.hetero_lru import HeteroLruPolicy
from repro.core.policy import PolicyBinding, register_policy
from repro.errors import ReproError
from repro.hw.counters import PerfCounters
from repro.mem.extent import PageExtent, PageType
from repro.vmm.hotness import HotnessConfig, HotnessTracker


@register_policy("hetero-native")
class NativeCoordinatedPolicy(HeteroLruPolicy):
    """HeteroOS-coordinated for bare-metal hosts."""

    name = "hetero-native"

    def __init__(
        self,
        initial_interval_ms: float = 100.0,
        scan_batch_pages: int = 16 * 1024,
        promote_budget_pages: int = 32 * 1024,
        fast_free_target: float = 0.1,
        inactive_after_epochs: int = 2,
        hotness_config: HotnessConfig | None = None,
    ) -> None:
        super().__init__(
            fast_free_target=fast_free_target,
            inactive_after_epochs=inactive_after_epochs,
        )
        self.interval_ms = initial_interval_ms
        self.scan_batch_pages = scan_batch_pages
        self.promote_budget_pages = promote_budget_pages
        self.counters = PerfCounters()
        self.tracker = HotnessTracker(hotness_config or HotnessConfig())
        self._elapsed_ms = 0.0
        self._epoch_ms = 100.0
        self.pages_migrated = 0
        self.scan_cost_ns = 0.0
        self.migration_cost_ns = 0.0

    def bind(self, binding: PolicyBinding) -> None:
        # Deliberately HeteroLru's bind: no hypervisor services required.
        super().bind(binding)

    def on_llc_sample(self, llc_misses: float, instructions: float) -> None:
        """The engine feeds the OS's own performance counters."""
        self.counters.record_epoch(llc_misses)

    def on_epoch_end(self, epoch: int) -> float:
        overhead = super().on_epoch_end(epoch)
        self.interval_ms = next_interval_ms(
            self.interval_ms, self.counters.llc_miss_delta()
        )
        self._elapsed_ms += self._epoch_ms
        if self._elapsed_ms < self.interval_ms:
            return overhead
        self._elapsed_ms = 0.0
        overhead += self._scan_and_promote(epoch)
        return overhead

    def _scan_and_promote(self, epoch: int) -> float:
        kernel = self.kernel
        fast_ids = kernel.fast_node_ids
        if not fast_ids:
            return 0.0
        target = fast_ids[0]
        slow_ids = set(kernel.slow_node_ids)
        candidates = [
            extent
            for extent in kernel.extents.values()
            if extent.node_id in slow_ids
            and not extent.swapped
            and extent.page_type is PageType.HEAP
        ]
        report = self.tracker.scan(candidates, max_pages=self.scan_batch_pages)
        self.scan_cost_ns += report.cost_ns
        cost = report.cost_ns
        # Promote only into *surplus* FastMem — free pages beyond the
        # recycling claim of this epoch's churn and missed demand — and
        # only candidates denser than the node's mean active density
        # (the same anti-thrash discipline as the virtualized
        # coordinated policy).
        reserve = sum(
            stats.miss_pages
            for page_type, stats in kernel.epoch_stats.items()
            if page_type in self.FAST_TYPES
        ) + kernel.epoch_freed_fast_pages
        budget = min(
            self.promote_budget_pages,
            max(0, kernel.nodes[target].free_pages - reserve),
        )
        # Each candidate may enter FastMem through true surplus or by
        # displacing pages at most *half as hot as itself* (per-candidate
        # floor) — so admission is strictly density-improving and no
        # promote/demote thrash loop can form.
        surplus = budget
        budget = self.promote_budget_pages
        lru = kernel.lru[target]
        for extent in sorted(
            report.hot_extents,
            key=lambda e: self.tracker.estimate(e),
            reverse=True,
        ):
            if budget <= 0:
                break
            floor = self.tracker.estimate(extent) / 2.0
            displaceable = sum(
                e.pages
                for e in lru.inactive_extents + lru.active_extents
                if e.pages
                and not e.swapped
                and e.page_type.is_migratable
                and e.temperature / e.pages < floor
            )
            cap = min(extent.pages, budget, surplus + displaceable)
            if cap <= 0:
                # budget and extent.pages are positive here, so no
                # surplus is left and no FastMem extent is cooler than
                # floor.  Skipping changes no state, and candidates come
                # in descending estimate order, so every later floor is
                # no higher: each later candidate would get no room
                # either.
                break
            try:
                if cap < extent.pages:
                    kernel.split_extent(extent, cap)
                cost += self._displace_cooling(target, extent.pages, floor)
                moved = kernel.move_extent(extent, target)
            except ReproError:
                continue
            if moved:
                budget -= moved
                surplus = max(0, surplus - moved)
                self.pages_migrated += moved
                # Native promotion: no VMM round trip, guest-local copy.
                cost += moved * self.DEMOTE_PAGE_NS
        self.migration_cost_ns += cost - report.cost_ns
        return cost

    def _displace_cooling(
        self, target: int, pages_needed: int, floor: float
    ) -> float:
        """Demote cooling/inactive FastMem pages to make room."""
        kernel = self.kernel
        node = kernel.nodes[target]
        needed = pages_needed - node.free_pages
        if needed <= 0:
            return 0.0
        slow_target = kernel.slow_node_ids[0]
        lru = kernel.lru[target]
        cooling = sorted(
            (
                e
                for e in lru.inactive_extents + lru.active_extents
                if e.pages and e.temperature / e.pages < floor
            ),
            key=lambda e: e.temperature / e.pages,
        )
        cost = 0.0
        for victim in cooling:
            if needed <= 0:
                break
            if victim.swapped or not victim.page_type.is_migratable:
                continue
            if victim.page_type.is_io:
                needed -= kernel.drop_io_extent(victim)
                continue
            try:
                if victim.pages > needed:
                    kernel.split_extent(victim, needed)
                moved = kernel.move_extent(victim, slow_target)
            except ReproError:
                continue
            if moved:
                needed -= moved
                self.pages_demoted += moved
                cost += moved * self.DEMOTE_PAGE_NS
        return cost
