"""Multi-dimensional per-CPU free lists."""

import pytest

from conftest import make_nodes
from repro.errors import AllocationError, OutOfMemoryError
from repro.guestos.numa import NodeTier
from repro.guestos.percpu import PerCpuFreeLists
from repro.mem.extent import PageType
from repro.sim.engine import build_single_vm
from repro.sim.runner import build_config


@pytest.fixture
def lists():
    nodes = make_nodes(fast_mib=16, slow_mib=16)
    return PerCpuFreeLists(cpus=2, nodes=nodes, batch_pages=8,
                           capacity_pages=32), nodes


def test_allocation_refills_then_hits(lists):
    percpu, nodes = lists
    first = percpu.allocate(0, 0, 4, PageType.HEAP)
    assert sum(r.count for r in first) == 4
    assert percpu.stats.refills == 1
    percpu.allocate(0, 0, 4, PageType.HEAP)
    assert percpu.stats.hits == 1  # served from the cached batch


def test_per_node_rows_are_independent(lists):
    percpu, nodes = lists
    percpu.allocate(0, 0, 4, PageType.HEAP)
    assert percpu.cached_pages(0) > 0
    assert percpu.cached_pages(1) == 0


def test_per_cpu_rows_are_independent(lists):
    percpu, nodes = lists
    percpu.allocate(0, 0, 4, PageType.HEAP)
    percpu.allocate(1, 0, 4, PageType.HEAP)
    assert percpu.stats.refills == 2  # each CPU refilled its own row


def test_free_spills_above_capacity(lists):
    percpu, nodes = lists
    node_free_before = nodes[0].free_pages
    ranges = percpu.allocate(0, 0, 30, PageType.HEAP)
    ranges += percpu.allocate(0, 0, 30, PageType.HEAP)
    percpu.free(0, 0, ranges)
    # The row overflowed its 32-page capacity: spills returned to buddy.
    assert percpu.stats.spills > 0
    percpu.flush()
    assert nodes[0].free_pages == node_free_before


def test_flush_returns_everything(lists):
    percpu, nodes = lists
    before = nodes[0].free_pages
    percpu.allocate(0, 0, 4, PageType.HEAP)  # refill grabbed a batch
    percpu.flush()
    # All cached pages returned (the 4 allocated are still out).
    assert percpu.cached_pages(0) == 0
    assert nodes[0].free_pages == before - 4


def test_refill_failure_when_node_empty(lists):
    percpu, nodes = lists
    node = nodes[0]
    node.allocate_pages(node.free_pages, PageType.HEAP)
    with pytest.raises(OutOfMemoryError):
        percpu.allocate(0, 0, 4, PageType.HEAP)


def test_unknown_node_rejected(lists):
    percpu, nodes = lists
    with pytest.raises(AllocationError):
        percpu.allocate(0, 99, 1, PageType.HEAP)


def test_parameter_validation():
    nodes = make_nodes(fast_mib=4, slow_mib=4)
    with pytest.raises(AllocationError):
        PerCpuFreeLists(cpus=0, nodes=nodes)
    with pytest.raises(AllocationError):
        PerCpuFreeLists(cpus=1, nodes=nodes, batch_pages=16, capacity_pages=8)


def test_split_hand_out_conserves_pages(lists):
    percpu, nodes = lists
    ranges = percpu.allocate(0, 0, 3, PageType.HEAP)  # forces a split
    assert sum(r.count for r in ranges) == 3
    ranges2 = percpu.allocate(0, 0, 5, PageType.HEAP)
    assert sum(r.count for r in ranges2) == 5


def test_refill_counts_only_zones_that_serve_the_page_type():
    """A SlowMem node's DMA zone never serves HEAP pages, so it must not
    size the refill: with NORMAL down to 10 free pages and DMA full, an
    8-page HEAP region still fits on SlowMem."""
    _, _, kernel = build_single_vm(build_config(fast_ratio=0.25, seed=7))
    slow = kernel.node_for_tier(NodeTier.SLOW)
    fast = kernel.node_for_tier(NodeTier.FAST)
    dma, normal = slow.zones
    normal.buddy.allocate_pages(normal.free_pages - 10)
    dma_free = dma.free_pages
    assert dma_free == dma.total_pages and normal.free_pages == 10

    extents = kernel.allocate_region(
        "small", PageType.HEAP, 8, [slow.node_id, fast.node_id]
    )

    assert [(e.node_id, e.pages) for e in extents] == [(slow.node_id, 8)]
    assert dma.free_pages == dma_free
