"""Whole-kernel invariant checking, including after full simulations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_kernel
from repro.core import make_policy
from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.extent import PageType
from repro.mem.frames import FrameRange
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.workloads.registry import make_workload


def test_fresh_kernel_is_consistent(kernel):
    kernel.check_invariants()


def test_consistent_after_alloc_free_cycles(kernel):
    kernel.begin_epoch(0)
    for i in range(8):
        kernel.allocate_region(f"r{i}", PageType.HEAP, 200 + i, [0, 1])
    kernel.check_invariants()
    for i in range(0, 8, 2):
        kernel.free_region(f"r{i}")
    kernel.check_invariants()


def test_consistent_after_moves_and_splits(kernel):
    kernel.begin_epoch(0)
    (extent,) = kernel.allocate_region("r", PageType.HEAP, 500, [0])
    kernel.split_extent(extent, 123)
    kernel.move_extent(extent, 1)
    kernel.check_invariants()


def test_consistent_after_shrink_and_swap(kernel):
    slow = kernel.nodes[1]
    usable = slow.free_pages_for(PageType.HEAP)
    kernel.begin_epoch(0)
    kernel.allocate_region("cold", PageType.HEAP, usable, [1])
    kernel.shrink_node(1, slow.free_pages + 2000)
    kernel.check_invariants()
    kernel.touch_region("cold", 100.0)
    kernel.check_invariants()


def test_consistent_after_hide_reveal(kernel):
    kernel.hide_pages(0, 500)
    kernel.check_invariants()
    kernel.reveal_pages(0, 200)
    kernel.check_invariants()


def test_invariants_catch_range_inside_another_extent():
    kernel = make_kernel(fast_mib=8, slow_mib=32)
    kernel.begin_epoch(0)
    (first,) = kernel.allocate_region("a", PageType.HEAP, 1024, [0])
    (second,) = kernel.allocate_region("b", PageType.HEAP, 1024, [0])
    kernel.check_invariants()
    # Frames 1280-1791 lie strictly inside the second extent's range.
    first.frames = [FrameRange(0, 512), FrameRange(1280, 512)]
    owners = f"owned by extents {second.extent_id} and {first.extent_id}"
    with pytest.raises(AllocationError, match=f"frame 1280 {owners}"):
        kernel.check_invariants()


def test_invariants_catch_frames_outside_the_node():
    kernel = make_kernel(fast_mib=8, slow_mib=32)
    kernel.begin_epoch(0)
    (extent,) = kernel.allocate_region("a", PageType.HEAP, 1024, [0])
    extent.frames = [FrameRange(10**7, 1024)]
    with pytest.raises(AllocationError, match="outside node 0"):
        kernel.check_invariants()


def test_invariants_catch_an_extent_no_region_lists():
    kernel = make_kernel(fast_mib=8, slow_mib=32)
    kernel.begin_epoch(0)
    (extent,) = kernel.allocate_region("a", PageType.HEAP, 1024, [0])
    del kernel.regions["a"]
    with pytest.raises(
        AllocationError, match=f"extent {extent.extent_id} in no region"
    ):
        kernel.check_invariants()


@pytest.mark.parametrize(
    "app, fast_ratio, epochs, policy",
    [
        *(
            pytest.param("leveldb", 0.25, 20, policy, id=policy)
            for policy in (
                "heap-od", "hetero-lru", "hetero-coordinated", "vmm-exclusive"
            )
        ),
        # Scarce FastMem: these runs migrate pages; the leveldb ones
        # migrate none.
        pytest.param("xstream", 0.125, 30, "hetero-native",
                     id="xstream-r0.125-hetero-native"),
        pytest.param("xstream", 0.125, 30, "nvm-write-aware",
                     id="xstream-r0.125-nvm-write-aware"),
    ],
)
def test_consistent_after_full_simulation(app, fast_ratio, epochs, policy):
    engine = SimulationEngine(
        build_config(fast_ratio=fast_ratio),
        make_workload(app),
        make_policy(policy),
    )
    for demand in engine.workload.epochs(epochs):
        engine.step(demand)
        engine.kernel.check_invariants()


@settings(max_examples=25, deadline=None)
@given(
    program=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "touch", "move", "split"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=600),
        ),
        max_size=30,
    ),
)
def test_invariants_hold_under_random_programs(program):
    kernel = make_kernel(fast_mib=8, slow_mib=32)
    kernel.begin_epoch(0)
    live: dict[int, str] = {}
    counter = 0
    for op, key, pages in program:
        region_id = live.get(key)
        try:
            if op == "alloc" and region_id is None:
                counter += 1
                name = f"r{key}-{counter}"
                kernel.allocate_region(name, PageType.HEAP, pages, [0, 1])
                live[key] = name
            elif region_id is None:
                continue
            elif op == "free":
                kernel.free_region(region_id)
                del live[key]
            elif op == "touch":
                kernel.touch_region(region_id, float(pages))
            elif op == "move":
                for extent in kernel.region_extents(region_id):
                    target = 1 if extent.node_id == 0 else 0
                    try:
                        kernel.move_extent(extent, target)
                    except OutOfMemoryError:
                        pass
                    break
            elif op == "split":
                extents = kernel.region_extents(region_id)
                if extents and extents[0].pages > 1:
                    kernel.split_extent(
                        extents[0], max(1, extents[0].pages // 2)
                    )
        except OutOfMemoryError:
            pass
    kernel.check_invariants()
