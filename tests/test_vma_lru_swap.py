"""Split LRU and swap device."""

import pytest

from repro.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.guestos.lru import SplitLru
from repro.guestos.swap import SwapDevice
from repro.mem.extent import ExtentState, PageExtent, PageType


# ----------------------------------------------------------------------
# Split LRU
# ----------------------------------------------------------------------

def heap_extent(pages=10, node=0) -> PageExtent:
    return PageExtent("r", PageType.HEAP, pages, node)


def test_lru_insert_active_and_duplicate_rejected():
    lru = SplitLru(node_id=0)
    extent = heap_extent()
    lru.insert(extent)
    assert extent.state is ExtentState.ACTIVE
    assert lru.active_pages == 10
    with pytest.raises(AllocationError):
        lru.insert(extent)


def test_lru_access_promotes_inactive():
    lru = SplitLru(node_id=0)
    extent = heap_extent()
    lru.insert(extent)
    lru.deactivate(extent)
    assert lru.inactive_pages == 10
    lru.record_access(extent)
    assert extent.state is ExtentState.ACTIVE
    assert lru.stats.promotions == 1


def test_lru_scan_deactivates_idle_extents():
    lru = SplitLru(node_id=0, inactive_after_epochs=2)
    busy = heap_extent()
    idle = heap_extent()
    lru.insert(busy)
    lru.insert(idle)
    busy.record_access(5, 1000.0)
    idle.record_access(0, 1000.0)
    lru.scan(current_epoch=5)
    assert idle.state is ExtentState.INACTIVE
    assert busy.state is ExtentState.ACTIVE


def test_lru_scan_deactivates_low_density_extents():
    """A huge region with a trickle of accesses must not stay active."""
    lru = SplitLru(node_id=0, cold_density_threshold=2.0)
    sparse = PageExtent("r", PageType.HEAP, 10_000, 0)
    lru.insert(sparse)
    for epoch in range(4):
        sparse.record_access(epoch, 100.0)  # density << threshold
    lru.scan(current_epoch=3)
    assert sparse.state is ExtentState.INACTIVE


def test_lru_density_grace_period_for_newborns():
    lru = SplitLru(node_id=0, inactive_after_epochs=2)
    newborn = PageExtent("r", PageType.HEAP, 10_000, 0, birth_epoch=3)
    lru.insert(newborn)
    newborn.record_access(3, 10.0)
    lru.scan(current_epoch=3)  # age 0: density rule must not fire
    assert newborn.state is ExtentState.ACTIVE


def test_lru_evict_candidates_inactive_first():
    lru = SplitLru(node_id=0)
    active = heap_extent()
    inactive = heap_extent()
    lru.insert(active)
    lru.insert(inactive)
    lru.deactivate(inactive)
    candidates = lru.evict_candidates(pages_needed=10)
    assert candidates[0] is inactive


def test_lru_evict_falls_back_to_active():
    lru = SplitLru(node_id=0)
    a, b = heap_extent(), heap_extent()
    lru.insert(a)
    lru.insert(b)
    candidates = lru.evict_candidates(pages_needed=15)
    assert len(candidates) == 2


def test_lru_remove():
    lru = SplitLru(node_id=0)
    extent = heap_extent()
    lru.insert(extent)
    lru.remove(extent)
    assert not lru.contains(extent)
    with pytest.raises(AllocationError):
        lru.remove(extent)


# ----------------------------------------------------------------------
# Swap device
# ----------------------------------------------------------------------

def test_swap_out_in_roundtrip():
    swap = SwapDevice(capacity_pages=100)
    cost_out = swap.swap_out(40)
    assert cost_out > 0
    assert swap.used_pages == 40
    cost_in = swap.swap_in(40)
    assert cost_in > cost_out  # reads cost more than writes
    assert swap.used_pages == 0
    assert swap.stats.pages_out == 40
    assert swap.stats.pages_in == 40


def test_swap_capacity_enforced():
    swap = SwapDevice(capacity_pages=10)
    swap.swap_out(10)
    with pytest.raises(OutOfMemoryError):
        swap.swap_out(1)
    with pytest.raises(OutOfMemoryError):
        swap.swap_in(11)


def test_swap_zero_is_free():
    swap = SwapDevice(capacity_pages=10)
    assert swap.swap_out(0) == 0.0
    assert swap.swap_in(0) == 0.0


def test_swap_validation():
    with pytest.raises(ConfigurationError):
        SwapDevice(capacity_pages=0)
    with pytest.raises(ConfigurationError):
        SwapDevice(capacity_pages=10, write_page_ns=-1)
