"""Heap-IO-Slab-OD: demand-based FastMem prioritization (Section 3.2).

"Against the conventional OS memory management methods that always
prioritize heap to the faster memory ... it is critical to equally
prioritize heap and I/O pages."  Every FastMem-eligible subsystem (heap,
I/O page cache, buffer cache, slab, network buffers) may allocate from
FastMem; when FastMem is scarce, the per-epoch allocation statistics the
kernel keeps (requests / FastMem hits / misses per subsystem) are used to
*budget* the free FastMem across subsystems in proportion to
``miss_ratio x demand`` — subsystems starving the hardest get first
claim, the paper's "prioritize allocation of page types with maximum
miss ratio".
"""

from __future__ import annotations

from repro.core.heap_od import HeapOdPolicy
from repro.core.policy import PolicyBinding, register_policy
from repro.mem.extent import PageType
from repro.units import plain_sum

#: Everything HeteroOS will place in FastMem; page-table and DMA pages
#: are excluded (negligible impact measured in Section 3.2).
FASTMEM_ELIGIBLE: frozenset[PageType] = frozenset(
    {
        PageType.HEAP,
        PageType.PAGE_CACHE,
        PageType.BUFFER_CACHE,
        PageType.SLAB,
        PageType.NETWORK_BUFFER,
    }
)


@register_policy("heap-io-slab-od")
class HeapIoSlabOdPolicy(HeapOdPolicy):
    """Demand-based FastMem prioritization across all subsystems."""

    name = "heap-io-slab-od"
    FAST_TYPES = FASTMEM_ELIGIBLE

    #: FastMem free fraction below which budgeting kicks in; above it,
    #: everyone simply allocates on demand.
    SCARCITY_THRESHOLD = 0.25

    def __init__(self) -> None:
        super().__init__()
        self._budgets: dict[PageType, int] = {}
        self._budgeting_active = False
        self._last_ratios: dict[PageType, float] = {}
        self._last_demand: dict[PageType, int] = {}

    def bind(self, binding: PolicyBinding) -> None:
        super().bind(binding)
        self._budgets = {}
        self._budgeting_active = False

    # ------------------------------------------------------------------
    # Epoch hooks
    # ------------------------------------------------------------------

    def on_epoch_start(self, epoch: int) -> float:
        self._compute_budgets()
        return 0.0

    def on_epoch_end(self, epoch: int) -> float:
        # Snapshot this epoch's demand signal before the engine resets it.
        kernel = self.kernel
        self._last_ratios = kernel.epoch_miss_ratios()
        self._last_demand = {
            page_type: stats.requested_pages
            for page_type, stats in kernel.epoch_stats.items()
            if stats.requested_pages > 0
        }
        return 0.0

    def on_allocated(self, page_type: PageType, pages: int, fast_pages: int) -> None:
        """Engine callback: charge FastMem grants against the budget."""
        if self._budgeting_active and fast_pages > 0:
            remaining = self._budgets.get(page_type)
            if remaining is not None:
                self._budgets[page_type] = remaining - fast_pages

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def node_preference(self, page_type: PageType) -> list[int]:
        if page_type not in self.FAST_TYPES:
            return self.slow_first()
        if self._budgeting_active and self._budgets.get(page_type, 1) <= 0:
            return self.slow_first()
        return self.fast_first()

    # ------------------------------------------------------------------
    # Budgeting
    # ------------------------------------------------------------------

    def _fast_free_and_total(self) -> tuple[int, int]:
        kernel = self.kernel
        free = sum(kernel.nodes[nid].free_pages for nid in kernel.fast_node_ids)
        total = sum(
            kernel.nodes[nid].total_pages for nid in kernel.fast_node_ids
        )
        return free, total

    def _compute_budgets(self) -> None:
        """Split free FastMem across subsystems by miss-ratio-weighted
        demand; only active once FastMem becomes scarce."""
        free, total = self._fast_free_and_total()
        if total == 0:
            self._budgeting_active = False
            return
        self._budgeting_active = free < total * self.SCARCITY_THRESHOLD
        if not self._budgeting_active:
            self._budgets = {}
            return
        weights: dict[PageType, float] = {}
        for page_type in self.FAST_TYPES:
            demand = self._last_demand.get(page_type, 0)
            ratio = self._last_ratios.get(page_type, 0.0)
            if demand > 0:
                # Epsilon keeps a subsystem with recent demand but a zero
                # miss ratio from being locked out entirely.
                weights[page_type] = demand * (ratio + 0.05)
        if not weights:
            self._budgets = {}
            self._budgeting_active = False
            return
        scale = plain_sum(weights.values())
        self._budgets = {
            page_type: int(free * weight / scale)
            for page_type, weight in weights.items()
        }
        # Subsystems without recent demand may still take leftovers.
        for page_type in self.FAST_TYPES:
            self._budgets.setdefault(page_type, max(0, free // 16))
