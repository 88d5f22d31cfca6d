"""Page extents and page types."""

import pytest

from repro.errors import AllocationError
from repro.guestos.numa import NodeTier
from repro.mem.extent import ExtentState, PageExtent, PageType
from repro.units import PAGE_SIZE


def test_page_type_io_classification():
    assert PageType.PAGE_CACHE.is_io
    assert PageType.BUFFER_CACHE.is_io
    assert not PageType.HEAP.is_io
    assert not PageType.NETWORK_BUFFER.is_io  # slab-backed, not page cache


def test_page_type_migratability():
    # Section 4.1: linearly-mapped page-table and DMA pages never migrate.
    assert not PageType.PAGE_TABLE.is_migratable
    assert not PageType.DMA.is_migratable
    for page_type in (
        PageType.HEAP, PageType.PAGE_CACHE, PageType.SLAB,
        PageType.NETWORK_BUFFER, PageType.BUFFER_CACHE,
    ):
        assert page_type.is_migratable


def test_member_constants_match_their_definitions():
    """The per-member flags are plain attributes set once per member;
    each must equal the expression it replaced."""
    for page_type in PageType:
        assert page_type.is_io is (
            page_type in (PageType.PAGE_CACHE, PageType.BUFFER_CACHE)
        )
        assert page_type.is_migratable is (
            page_type not in (PageType.PAGE_TABLE, PageType.DMA)
        )
    for tier in NodeTier:
        assert tier.rank == {
            "fastmem": 0, "mediummem": 1, "slowmem": 2
        }[tier.value]


def test_extent_ids_unique():
    a = PageExtent("r", PageType.HEAP, 10, 0)
    b = PageExtent("r", PageType.HEAP, 10, 0)
    assert a.extent_id != b.extent_id


def test_extent_requires_pages():
    with pytest.raises(AllocationError):
        PageExtent("r", PageType.HEAP, 0, 0)


def test_extent_bytes():
    extent = PageExtent("r", PageType.HEAP, 3, 0)
    assert extent.bytes == 3 * PAGE_SIZE


def test_record_access_sets_bits_and_temperature():
    extent = PageExtent("r", PageType.HEAP, 10, 0)
    extent.record_access(epoch=5, accesses=100.0)
    assert extent.accessed
    assert extent.last_access_epoch == 5
    assert extent.temperature == pytest.approx(100.0)
    extent.record_access(epoch=6, accesses=100.0)
    # EWMA with decay 0.5 converges to 2x the per-epoch rate.
    assert extent.temperature == pytest.approx(150.0)


def test_record_zero_access_keeps_bit_clear():
    extent = PageExtent("r", PageType.HEAP, 10, 0)
    extent.record_access(epoch=1, accesses=0.0)
    assert not extent.accessed
    assert extent.last_access_epoch == -1


def test_clear_hardware_bits_reads_and_clears():
    extent = PageExtent("r", PageType.HEAP, 10, 0)
    extent.record_access(epoch=1, accesses=5.0)
    extent.dirty = True
    assert extent.clear_hardware_bits() == (True, True)
    assert extent.clear_hardware_bits() == (False, False)


def test_default_state_is_active():
    extent = PageExtent("r", PageType.HEAP, 10, 0)
    assert extent.state is ExtentState.ACTIVE
    assert not extent.swapped
