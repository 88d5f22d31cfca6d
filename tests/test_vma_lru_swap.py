"""VMAs/address space, split LRU, and swap device."""

import dataclasses

import pytest

from repro.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.guestos.lru import SplitLru
from repro.guestos.swap import SwapDevice
from repro.guestos.vma import AddressSpace, Vma
from repro.mem.extent import ExtentState, PageExtent, PageType


# ----------------------------------------------------------------------
# Address space / VMAs
# ----------------------------------------------------------------------

def test_mmap_assigns_disjoint_ranges():
    mm = AddressSpace()
    a = mm.mmap("a", 100, PageType.HEAP)
    b = mm.mmap("b", 50, PageType.PAGE_CACHE)
    assert a.end_vpn <= b.start_vpn
    assert mm.mapped_pages == 150


def test_mmap_builds_the_same_vma_as_the_dataclass_init():
    """mmap skips the frozen ``__init__`` (Vma.unchecked); the VMA it
    returns must still equal, hash and stay frozen like one built the
    ordinary way, with every field set."""
    mm = AddressSpace()
    first = mm.mmap("first", 7, PageType.SLAB)
    vma = mm.mmap("heap", 100, PageType.HEAP)
    built = Vma(
        start_vpn=first.end_vpn, pages=100, page_type=PageType.HEAP,
        region_id="heap",
    )
    assert vma == built
    assert hash(vma) == hash(built)
    assert vars(vma) == vars(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        vma.pages = 1


def test_mmap_duplicate_region_rejected():
    mm = AddressSpace()
    mm.mmap("a", 10, PageType.HEAP)
    with pytest.raises(AllocationError):
        mm.mmap("a", 10, PageType.HEAP)
    with pytest.raises(AllocationError):
        mm.mmap("b", 0, PageType.HEAP)


def test_munmap_returns_the_vma_once():
    mm = AddressSpace()
    vma = mm.mmap("a", 10, PageType.HEAP)
    assert mm.munmap("a") == vma
    with pytest.raises(AllocationError):
        mm.munmap("a")


def test_find_by_vpn():
    mm = AddressSpace()
    vma = mm.mmap("a", 10, PageType.HEAP)
    assert mm.find(vma.start_vpn + 5) == vma
    assert mm.find(vma.end_vpn) is None


def test_tracking_list_contains_only_heap_vmas():
    """Section 4.1: the tracking list is heap ranges; I/O regions go on
    the exception list instead."""
    mm = AddressSpace()
    heap = mm.mmap("heap", 100, PageType.HEAP)
    mm.mmap("cache", 50, PageType.PAGE_CACHE)
    mm.mmap("skb", 10, PageType.NETWORK_BUFFER)
    assert mm.tracking_list() == [(heap.start_vpn, 100)]


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
