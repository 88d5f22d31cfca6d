"""Zones and heterogeneity-aware NUMA nodes."""

import pytest

from repro.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.guestos.numa import (
    DMA_ZONE_BYTES,
    MemoryNode,
    NodeTier,
    build_node,
)
from repro.guestos.zone import ZoneKind, make_zone, zone_preference
from repro.hw.memdevice import DRAM, NVM_PCM
from repro.mem.extent import PageType
from repro.units import MIB, PAGE_SIZE, pages_of_bytes


def test_tier_ranking():
    assert NodeTier.FAST.rank < NodeTier.MEDIUM.rank < NodeTier.SLOW.rank


def test_fast_node_has_single_unified_zone():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(64 * MIB))
    assert [zone.kind for zone in node.zones] == [ZoneKind.UNIFIED]
    assert node.is_fastmem


def test_slow_node_has_dma_and_normal_zones():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(256 * MIB))
    kinds = [zone.kind for zone in node.zones]
    assert kinds == [ZoneKind.DMA, ZoneKind.NORMAL]
    assert not node.is_fastmem
    dma = node.zones[0]
    assert dma.total_pages == DMA_ZONE_BYTES // PAGE_SIZE


def test_zone_preference_unified_serves_everything():
    for page_type in PageType:
        assert ZoneKind.UNIFIED in zone_preference(page_type)


def test_dma_pages_prefer_dma_zone():
    assert zone_preference(PageType.DMA)[0] is ZoneKind.DMA


def test_node_allocate_and_free_roundtrip():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(16 * MIB))
    total = node.total_pages
    ranges = node.allocate_pages(100, PageType.HEAP)
    assert sum(r.count for r in ranges) == 100
    assert node.used_pages == 100
    node.free_ranges(ranges)
    assert node.free_pages == total


def test_node_allocation_respects_zone_eligibility():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(64 * MIB))
    # Heap cannot come out of the DMA zone even under pressure.
    normal_pages = node.zones[1].free_pages
    node.allocate_pages(normal_pages, PageType.HEAP)
    with pytest.raises(OutOfMemoryError):
        node.allocate_pages(1, PageType.HEAP)
    # DMA pages still available.
    assert node.allocate_pages(1, PageType.DMA)


def test_allocate_up_to_partial():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    got, granted = node.allocate_up_to(node.total_pages + 500, PageType.HEAP)
    assert sum(r.count for r in got) == granted == node.total_pages


def test_free_pages_for_counts_only_eligible_zones():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(64 * MIB))
    assert node.free_pages_for(PageType.HEAP) < node.free_pages
    assert node.free_pages_for(PageType.DMA) == node.free_pages


def test_foreign_frame_free_rejected():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    from repro.mem.frames import FrameRange

    with pytest.raises(AllocationError):
        node.free_ranges([FrameRange(10_000_000, 1)])


def test_zone_watermarks():
    zone = make_zone(ZoneKind.NORMAL, 0, 1000)
    assert zone.min_watermark_pages <= zone.low_watermark_pages
    assert not zone.under_pressure
    zone.buddy.allocate_pages(990)
    assert zone.under_pressure


def test_zero_capacity_node_rejected():
    with pytest.raises(ConfigurationError):
        build_node(0, NodeTier.FAST, DRAM.with_capacity(0))


def test_under_pressure_propagates_from_zones():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    assert not node.under_pressure
    node.allocate_pages(node.total_pages - 1, PageType.HEAP)
    assert node.under_pressure


def test_base_frame_offsets_disjoint():
    fast = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB), 0)
    slow = build_node(
        1, NodeTier.SLOW, NVM_PCM.with_capacity(4 * MIB),
        pages_of_bytes(4 * MIB),
    )
    fast_ranges = fast.allocate_pages(10, PageType.HEAP)
    slow_ranges = slow.allocate_pages(10, PageType.HEAP)
    fast_frames = {
        f for r in fast_ranges for f in range(r.start, r.end)
    }
    slow_frames = {
        f for r in slow_ranges for f in range(r.start, r.end)
    }
    assert not fast_frames & slow_frames
