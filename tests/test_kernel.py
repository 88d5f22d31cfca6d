"""GuestKernel: allocation routing, stats, movement, reclaim."""

import pytest

from conftest import make_kernel
from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.extent import ExtentState, PageType


# ----------------------------------------------------------------------
# Region allocation
# ----------------------------------------------------------------------

def test_allocation_follows_preference(kernel):
    extents = kernel.allocate_region("r1", PageType.HEAP, 100, [0, 1])
    assert all(extent.node_id == 0 for extent in extents)
    extents = kernel.allocate_region("r2", PageType.HEAP, 100, [1, 0])
    assert all(extent.node_id == 1 for extent in extents)


def test_allocation_spills_to_next_preference(kernel):
    fast_pages = kernel.nodes[0].free_pages_for(PageType.HEAP)
    extents = kernel.allocate_region(
        "big", PageType.HEAP, fast_pages + 500, [0, 1]
    )
    placements = {extent.node_id for extent in extents}
    assert placements == {0, 1}
    total = sum(extent.pages for extent in extents)
    assert total == fast_pages + 500


def test_allocation_registers_vma_lru_and_cache(kernel):
    # The region registry is the guest's VMA list.
    (extent,) = kernel.allocate_region("io", PageType.PAGE_CACHE, 64, [1])
    assert kernel.regions["io"] == [extent.extent_id]
    assert kernel.lru[1].contains(extent)
    assert kernel.page_cache.is_resident(extent)


def test_small_allocations_take_percpu_path(kernel):
    kernel.allocate_region("tiny", PageType.SLAB, 4, [0])
    assert kernel.percpu.stats.refills == 1


def test_duplicate_region_rejected(kernel):
    kernel.allocate_region("r", PageType.HEAP, 10, [0])
    with pytest.raises(AllocationError):
        kernel.allocate_region("r", PageType.HEAP, 10, [0])


def test_empty_region_requests_rejected(kernel):
    with pytest.raises(AllocationError, match="zero-page request"):
        kernel.allocate_region("r", PageType.HEAP, 0, [0])
    with pytest.raises(AllocationError, match="empty node preference"):
        kernel.allocate_region("r", PageType.HEAP, 10, [])
    assert not kernel.regions and not kernel.extents


def test_oom_rolls_back_cleanly(kernel):
    total = sum(node.free_pages for node in kernel.nodes.values())
    with pytest.raises(OutOfMemoryError):
        kernel.allocate_region("huge", PageType.HEAP, total + 1000, [0, 1])
    # Nothing leaked: the region is gone, memory restored.
    assert not kernel.has_region("huge")
    assert kernel.allocate_region("ok", PageType.HEAP, 100, [0])


def test_any_failed_allocation_returns_its_partial_grant(kernel):
    """Node 0 grants all its free pages before node 99 turns out
    unknown: the rollback must return that grant too, not only an
    out-of-memory one's."""
    def state():
        return (
            {nid: node.free_pages for nid, node in kernel.nodes.items()},
            {
                nid: lru.active_pages + lru.inactive_pages
                for nid, lru in kernel.lru.items()
            },
            dict(kernel.extents),
        )

    before = state()
    free0 = kernel.nodes[0].free_pages
    with pytest.raises(AllocationError, match="unknown node 99"):
        kernel.allocate_region("r", PageType.HEAP, free0 + 100, [0, 99])
    assert state() == before
    kernel.check_invariants()
    assert kernel.allocate_region("r", PageType.HEAP, 100, [0])


def test_last_resort_uses_any_node(kernel):
    # Preference names only the fast node; overflow lands on slow anyway.
    fast_pages = kernel.nodes[0].free_pages_for(PageType.HEAP)
    extents = kernel.allocate_region(
        "over", PageType.HEAP, fast_pages + 100, [0]
    )
    assert {extent.node_id for extent in extents} == {0, 1}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def test_alloc_stats_track_fast_hits_and_misses(kernel):
    kernel.begin_epoch(0)
    kernel.allocate_region("a", PageType.HEAP, 100, [0, 1])
    kernel.allocate_region("b", PageType.PAGE_CACHE, 50, [1])
    heap = kernel.epoch_stats[PageType.HEAP]
    cache = kernel.epoch_stats[PageType.PAGE_CACHE]
    assert heap.requested_pages == 100
    assert heap.fast_granted_pages == 100
    assert heap.miss_ratio == 0.0
    assert cache.fast_granted_pages == 0
    assert cache.miss_ratio == 1.0


def test_epoch_stats_reset_cumulative_persist(kernel):
    kernel.begin_epoch(0)
    kernel.allocate_region("a", PageType.HEAP, 100, [0, 1])
    kernel.begin_epoch(1)
    assert kernel.epoch_stats[PageType.HEAP].requested_pages == 0
    assert kernel.cumulative_stats[PageType.HEAP].requested_pages == 100


def test_page_distribution_counts_pagetable_overhead(kernel):
    kernel.allocate_region("a", PageType.HEAP, 1024, [1])
    dist = kernel.distribution
    assert dist.allocated[PageType.HEAP] == 1024
    assert dist.allocated[PageType.PAGE_TABLE] == 2  # 1024/512 PTE pages
    assert dist.fraction(PageType.HEAP) > 0.99


def test_epoch_miss_ratios_only_for_requested_types(kernel):
    kernel.begin_epoch(0)
    kernel.allocate_region("a", PageType.HEAP, 10, [0])
    ratios = kernel.epoch_miss_ratios()
    assert PageType.HEAP in ratios
    assert PageType.SLAB not in ratios


# ----------------------------------------------------------------------
# Free
# ----------------------------------------------------------------------

def test_free_region_returns_pages(kernel):
    before = kernel.nodes[0].free_pages
    kernel.allocate_region("r", PageType.HEAP, 128, [0])
    assert kernel.free_region("r") == 128
    assert kernel.nodes[0].free_pages == before
    assert not kernel.has_region("r")
    with pytest.raises(AllocationError):
        kernel.free_region("r")
    # Its frames are back in the buddy: touching it is a use-after-free.
    with pytest.raises(AllocationError):
        kernel.touch_region("r", 1.0)
    with pytest.raises(AllocationError):
        kernel.touch_region("never-allocated", 1.0)


def test_free_dirty_io_region_writes_back_first(kernel):
    kernel.allocate_region("io", PageType.PAGE_CACHE, 32, [1], dirty=True)
    kernel.free_region("io")
    assert kernel.page_cache.stats.writeback_pages == 32


def test_free_counts_fast_pages_freed_this_epoch(kernel):
    kernel.begin_epoch(0)
    kernel.allocate_region("r", PageType.HEAP, 64, [0])
    kernel.begin_epoch(1)
    kernel.free_region("r")
    assert kernel.epoch_freed_fast_pages == 64


# ----------------------------------------------------------------------
# Touch / LRU integration
# ----------------------------------------------------------------------

def test_touch_region_updates_temperature_and_bits(kernel):
    kernel.begin_epoch(3)
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 10, [0])
    kernel.touch_region("r", 500.0, write=True)
    assert extent.accessed and extent.dirty
    assert extent.temperature == pytest.approx(500.0)
    assert extent.last_access_epoch == 3


def test_touch_splits_accesses_by_extent_pages(kernel):
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("r", PageType.HEAP, fast + fast, [0, 1])
    kernel.touch_region("r", 1000.0)
    extents = kernel.region_extents("r")
    for extent in extents:
        expected = 1000.0 * extent.pages / (2 * fast)
        assert extent.temperature == pytest.approx(expected)


# ----------------------------------------------------------------------
# move_extent (guest-controlled migration)
# ----------------------------------------------------------------------

def test_move_extent_relocates(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [0])
    moved = kernel.move_extent(extent, 1)
    assert moved == 64
    assert extent.node_id == 1
    assert kernel.lru[1].contains(extent)
    assert not kernel.lru[0].contains(extent)


def test_move_extent_same_node_is_noop(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [0])
    assert kernel.move_extent(extent, 0) == 0


def test_move_extent_preserves_inactive_state(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [0])
    kernel.lru[0].deactivate(extent)
    kernel.move_extent(extent, 1)
    assert extent.state is ExtentState.INACTIVE


def test_move_rejects_unmigratable_types(kernel):
    (extent,) = kernel.allocate_region("pt", PageType.PAGE_TABLE, 8, [1])
    with pytest.raises(AllocationError):
        kernel.move_extent(extent, 0)


def test_move_writes_back_dirty_io(kernel):
    (extent,) = kernel.allocate_region(
        "io", PageType.PAGE_CACHE, 32, [1], dirty=True
    )
    kernel.move_extent(extent, 0)
    assert not kernel.page_cache.is_dirty(extent)


def test_move_raises_when_target_full(kernel):
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("fill", PageType.HEAP, fast, [0])
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [1])
    with pytest.raises(OutOfMemoryError):
        kernel.move_extent(extent, 0)


# ----------------------------------------------------------------------
# split_extent
# ----------------------------------------------------------------------

def test_split_extent_divides_pages_and_frames(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 100, [0])
    sibling = kernel.split_extent(extent, 30)
    assert extent.pages == 30
    assert sibling.pages == 70
    assert sum(fr.count for fr in extent.frames) == 30
    assert sum(fr.count for fr in sibling.frames) == 70
    assert kernel.regions["r"] == [extent.extent_id, sibling.extent_id]
    assert kernel.lru[0].contains(sibling)
    # Freeing the region releases both pieces.
    assert kernel.free_region("r") == 100


def test_split_extent_divides_temperature(kernel):
    kernel.begin_epoch(0)
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 100, [0])
    kernel.touch_region("r", 1000.0)
    sibling = kernel.split_extent(extent, 50)
    assert extent.temperature == pytest.approx(500.0)
    assert sibling.temperature == pytest.approx(500.0)


def test_split_io_extent_keeps_cache_residency(kernel):
    (extent,) = kernel.allocate_region("io", PageType.PAGE_CACHE, 64, [1])
    sibling = kernel.split_extent(extent, 32)
    assert kernel.page_cache.is_resident(sibling)


def test_split_validation(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 10, [0])
    with pytest.raises(AllocationError):
        kernel.split_extent(extent, 0)
    with pytest.raises(AllocationError):
        kernel.split_extent(extent, 10)


# ----------------------------------------------------------------------
# drop_io_extent
# ----------------------------------------------------------------------

def test_drop_io_extent_frees_without_copy(kernel):
    before = kernel.nodes[1].free_pages
    (extent,) = kernel.allocate_region("io", PageType.PAGE_CACHE, 64, [1])
    freed = kernel.drop_io_extent(extent)
    assert freed == 64
    assert kernel.nodes[1].free_pages == before
    # The region survives with no extents (data lives on disk).
    assert kernel.region_extents("io") == []


def test_drop_io_rejects_anonymous_pages(kernel):
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 10, [0])
    with pytest.raises(AllocationError):
        kernel.drop_io_extent(extent)


# ----------------------------------------------------------------------
# shrink_node / swap
# ----------------------------------------------------------------------

def test_shrink_node_counts_free_pages_first(kernel):
    freed = kernel.shrink_node(1, 100)
    assert freed == 100
    assert kernel.swap.stats.pages_out == 0


def test_shrink_node_swaps_cold_extents(kernel):
    slow = kernel.nodes[1]
    usable = slow.free_pages_for(PageType.HEAP)
    (extent,) = kernel.allocate_region("cold", PageType.HEAP, usable, [1])
    target = slow.free_pages + 1000
    freed = kernel.shrink_node(1, target)
    assert freed >= target - 64  # buddy granularity slack
    assert extent.swapped
    assert kernel.swap.stats.pages_out > 0
    assert kernel.pending_cost_ns > 0


def test_swapped_extent_faults_back_on_touch(kernel):
    slow = kernel.nodes[1]
    usable = slow.free_pages_for(PageType.HEAP)
    (extent,) = kernel.allocate_region("cold", PageType.HEAP, usable, [1])
    kernel.shrink_node(1, slow.free_pages + 1000)
    assert extent.swapped
    kernel.drain_pending_cost()
    kernel.touch_region("cold", 100.0)
    # Room exists (on fast or the slow node): some pages came back.
    assert kernel.swap.stats.pages_in > 0
    assert kernel.pending_cost_ns > 0


def test_drain_pending_cost_resets(kernel):
    kernel.pending_cost_ns = 123.0
    assert kernel.drain_pending_cost() == 123.0
    assert kernel.pending_cost_ns == 0.0


# ----------------------------------------------------------------------
# Balloon hide/reveal
# ----------------------------------------------------------------------

def test_hide_and_reveal_roundtrip(kernel):
    before = kernel.nodes[1].free_pages
    hidden = kernel.hide_pages(1, 1000)
    assert hidden == 1000
    assert kernel.hidden_pages(1) == 1000
    assert kernel.nodes[1].free_pages == before - 1000
    revealed = kernel.reveal_pages(1, 400)
    assert revealed == 400
    assert kernel.hidden_pages(1) == 600
    assert kernel.nodes[1].free_pages == before - 600


def test_hide_caps_at_free_pages(kernel):
    free = kernel.nodes[0].free_pages
    assert kernel.hide_pages(0, free + 999) == free


def test_reveal_caps_at_hidden(kernel):
    kernel.hide_pages(0, 100)
    assert kernel.reveal_pages(0, 500) == 100
