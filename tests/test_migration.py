"""Migration engine and Table 6 cost model."""

import pytest

from conftest import make_kernel
from repro.errors import AllocationError, MigrationError
from repro.mem.extent import PageType
from repro.sim.engine import build_single_vm
from repro.sim.runner import build_config
from repro.units import NS_PER_US
from repro.vmm.migration import (
    MigrationCostModel,
    MigrationEngine,
    MigrationReport,
    TABLE6_ANCHORS,
)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------

def test_anchor_costs_exact():
    model = MigrationCostModel()
    for batch, (move_ns, walk_ns) in TABLE6_ANCHORS.items():
        assert model.per_page_costs(batch) == pytest.approx((move_ns, walk_ns))


def test_interpolation_between_anchors():
    model = MigrationCostModel()
    move, walk = model.per_page_costs(32 * 1024)
    assert 15.7 * NS_PER_US < move < 25.5 * NS_PER_US
    assert 26.32 * NS_PER_US < walk < 43.21 * NS_PER_US


def test_clamping_outside_anchor_range():
    model = MigrationCostModel()
    assert model.per_page_costs(1) == model.per_page_costs(8 * 1024)
    assert model.per_page_costs(10**9) == model.per_page_costs(128 * 1024)


def test_costs_monotone_decreasing_in_batch():
    model = MigrationCostModel()
    batches = [8 * 1024, 16 * 1024, 64 * 1024, 100_000, 128 * 1024]
    moves = [model.per_page_costs(b)[0] for b in batches]
    walks = [model.per_page_costs(b)[1] for b in batches]
    assert moves == sorted(moves, reverse=True)
    assert walks == sorted(walks, reverse=True)


def test_total_cost_helper():
    model = MigrationCostModel()
    move, walk = model.per_page_costs(8 * 1024)
    assert model.migration_cost_ns(10, 8 * 1024) == pytest.approx(
        10 * (move + walk)
    )


def test_invalid_inputs_rejected():
    model = MigrationCostModel()
    with pytest.raises(MigrationError):
        model.per_page_costs(0)
    with pytest.raises(MigrationError):
        MigrationCostModel(anchors={8192: (1.0, 2.0)})


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

def test_migrate_moves_extents_and_charges_cost():
    kernel = make_kernel()
    engine = MigrationEngine()
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 256, [1])
    report = engine.migrate([extent], 0, kernel)
    assert report.pages_moved == 256
    assert extent.node_id == 0
    assert report.cost_ns > 0
    assert engine.total.pages_moved == 256


def test_stall_fraction_scales_charged_cost():
    kernel_a, kernel_b = make_kernel(), make_kernel()
    cheap = MigrationEngine(stall_fraction=0.1)
    expensive = MigrationEngine(stall_fraction=1.0)
    (a,) = kernel_a.allocate_region("r", PageType.HEAP, 256, [1])
    (b,) = kernel_b.allocate_region("r", PageType.HEAP, 256, [1])
    cheap_cost = cheap.migrate([a], 0, kernel_a).cost_ns
    full_cost = expensive.migrate([b], 0, kernel_b).cost_ns
    assert cheap_cost < full_cost


def test_budget_splits_oversized_extents():
    kernel = make_kernel()
    engine = MigrationEngine()
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 1000, [1])
    report = engine.migrate([extent], 0, kernel, budget_pages=300)
    assert report.pages_moved == 300
    # The region now has a moved prefix and an unmoved tail.
    nodes = {e.node_id for e in kernel.region_extents("r")}
    assert nodes == {0, 1}
    total = sum(e.pages for e in kernel.region_extents("r"))
    assert total == 1000


def test_budget_zero_moves_nothing():
    kernel = make_kernel()
    engine = MigrationEngine()
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 100, [1])
    report = engine.migrate([extent], 0, kernel, budget_pages=0)
    assert report.pages_moved == 0
    assert extent.node_id == 1


def test_unmigratable_pages_charged_as_rejected():
    kernel = make_kernel()
    engine = MigrationEngine()
    (extent,) = kernel.allocate_region("pt", PageType.PAGE_TABLE, 8, [1])
    report = engine.migrate([extent], 0, kernel)
    assert report.pages_moved == 0
    assert report.pages_rejected == 8
    assert report.cost_ns > 0  # the wasted walk still costs


def test_full_target_without_eviction_fails():
    kernel = make_kernel()
    engine = MigrationEngine()
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("fill", PageType.HEAP, fast, [0])
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [1])
    report = engine.migrate([extent], 0, kernel)
    assert report.pages_failed == 64
    assert extent.node_id == 1


def test_eviction_callback_makes_room():
    kernel = make_kernel()
    engine = MigrationEngine()
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("fill", PageType.HEAP, fast, [0])
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 64, [1])

    def evict(target_node_id, pages_needed):
        victim = kernel.region_extents("fill")[0]
        if victim.pages > pages_needed:
            kernel.split_extent(victim, pages_needed)
        return kernel.move_extent(victim, 1)

    report = engine.migrate([extent], 0, kernel, evict_with=evict)
    assert report.pages_moved == 64
    assert report.evicted_pages >= 64
    assert extent.node_id == 0


def test_swapped_and_same_node_extents_skipped():
    kernel = make_kernel()
    engine = MigrationEngine()
    (home,) = kernel.allocate_region("home", PageType.HEAP, 32, [0])
    report = engine.migrate([home], 0, kernel)
    assert report.pages_moved == 0
    assert report.cost_ns == 0.0


def test_pass_calls_out_of_order_raise():
    engine = MigrationEngine()
    with pytest.raises(MigrationError):
        engine.commit_pass()
    with pytest.raises(MigrationError):
        engine.abort_pass()
    engine.begin_pass()
    with pytest.raises(MigrationError):
        engine.begin_pass()
    engine.commit_pass()
    with pytest.raises(MigrationError):
        engine.commit_pass()
    with pytest.raises(MigrationError):
        engine.abort_pass()


def test_open_pass_reaches_total_only_when_committed():
    kernel = make_kernel()
    engine = MigrationEngine()
    first, second = (
        kernel.allocate_region(name, PageType.HEAP, 64, [1])[0]
        for name in ("a", "b")
    )
    engine.begin_pass()
    assert engine.migrate([first], 0, kernel).pages_moved == 64
    assert engine.total.pages_moved == 0  # in flight, not yet counted
    engine.commit_pass()
    assert engine.total.pages_moved == 64

    engine.begin_pass()
    assert engine.migrate([second], 0, kernel).pages_moved == 64
    aborted = engine.abort_pass()
    assert aborted.pages_moved == 64
    assert engine.total.pages_moved == 64  # the aborted pass never lands
    assert engine.in_flight is None


def test_failed_move_of_foreign_frames_leaks_nothing():
    """A source that rejects the frames it is asked to free (here frames
    another node owns) is allocator misuse, not a full target: the
    kernel move and the engine's move both raise ``AllocationError``
    instead of evicting or reporting failure, and the target gets its
    grant back."""
    hypervisor, _, kernel = build_single_vm(
        build_config(fast_ratio=0.25, seed=7)
    )
    fast = next(nid for nid, node in kernel.nodes.items() if node.is_fastmem)
    slow = next(nid for nid, node in kernel.nodes.items() if not node.is_fastmem)
    (stolen,) = kernel.allocate_region("a", PageType.HEAP, 64, [slow])
    (owner,) = kernel.allocate_region("b", PageType.HEAP, 64, [fast])
    stolen.frames = list(owner.frames)
    free_before = kernel.nodes[fast].free_pages
    with pytest.raises(AllocationError):
        kernel.move_extent(stolen, fast)
    assert kernel.nodes[fast].free_pages == free_before
    with pytest.raises(AllocationError):
        hypervisor.migration_engine._move_once(
            stolen, fast, kernel, None, MigrationReport()
        )
    assert kernel.nodes[fast].free_pages == free_before
