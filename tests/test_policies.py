"""Placement policies: registry, baselines, and the HeteroOS ladder."""

import importlib
import inspect
import pkgutil
import random

import pytest

import repro.core
from conftest import make_kernel
from repro.core import (
    CoordinatedPolicy,
    HeapIoSlabOdPolicy,
    HeapOdPolicy,
    HeteroLruPolicy,
    available_policies,
    make_policy,
)
from repro.core.heap_io_slab_od import FASTMEM_ELIGIBLE
from repro.core import policy as policy_module
from repro.core.policy import PlacementPolicy, PolicyBinding, register_policy
from repro.errors import ConfigurationError
from repro.mem.extent import ExtentState, PageType


def bind(policy, kernel=None):
    kernel = kernel or make_kernel()
    policy.bind(PolicyBinding(kernel=kernel, rng=random.Random(1)))
    return kernel


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_contains_all_paper_policies():
    names = set(available_policies())
    assert {
        "slowmem-only", "fastmem-only", "random", "numa-preferred",
        "vmm-exclusive", "heap-od", "heap-io-slab-od", "hetero-lru",
        "hetero-coordinated",
    } <= names


def test_every_policy_class_is_registered():
    for info in pkgutil.iter_modules(repro.core.__path__):
        importlib.import_module(f"repro.core.{info.name}")
    registered = set(policy_module._REGISTRY.values())
    pending = [PlacementPolicy]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro.core."):
                assert cls in registered or inspect.isabstract(cls), cls


def test_make_policy_unknown_name():
    with pytest.raises(ConfigurationError):
        make_policy("not-a-policy")


def test_register_duplicate_rejected():
    with pytest.raises(ConfigurationError):
        register_policy("heap-od")(HeapOdPolicy)


def test_unbound_policy_rejects_decisions():
    policy = make_policy("heap-od")
    with pytest.raises(ConfigurationError):
        policy.node_preference(PageType.HEAP)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------

def test_slowmem_only_never_names_fast_nodes():
    policy = make_policy("slowmem-only")
    bind(policy)
    assert policy.node_preference(PageType.HEAP) == [1]


def test_fastmem_only_prefers_fast_and_needs_unlimited():
    policy = make_policy("fastmem-only")
    assert policy.requires_unlimited_fast
    bind(policy)
    assert policy.node_preference(PageType.HEAP)[0] == 0


def test_random_policy_is_seeded_and_capacity_weighted():
    kernel = make_kernel(fast_mib=16, slow_mib=256)
    policy = make_policy("random")
    bind(policy, kernel)
    picks = [
        policy.node_preference(PageType.HEAP)[0] for _ in range(300)
    ]
    # Slow node is 16x larger: it must win most of the draws.
    assert picks.count(1) > picks.count(0) > 0
    # Same seed -> same sequence.
    policy2 = make_policy("random")
    bind(policy2, make_kernel(fast_mib=16, slow_mib=256))
    picks2 = [
        policy2.node_preference(PageType.HEAP)[0] for _ in range(300)
    ]
    assert picks == picks2


def test_numa_preferred_reserves_fast_slice():
    kernel = make_kernel()
    fast_total = kernel.nodes[0].total_pages
    policy = make_policy("numa-preferred")
    bind(policy, kernel)
    assert kernel.nodes[0].free_pages == pytest.approx(
        fast_total * 0.8, abs=2
    )
    assert policy.node_preference(PageType.PAGE_CACHE)[0] == 0


def test_numa_preferred_fraction_validation():
    from repro.core.baselines import NumaPreferredPolicy

    with pytest.raises(ConfigurationError):
        NumaPreferredPolicy(reserved_fraction=1.5)


# ----------------------------------------------------------------------
# Heap-OD / Heap-IO-Slab-OD
# ----------------------------------------------------------------------

def test_heap_od_routes_only_heap_to_fast():
    policy = make_policy("heap-od")
    bind(policy)
    assert policy.node_preference(PageType.HEAP)[0] == 0
    for page_type in (PageType.PAGE_CACHE, PageType.SLAB,
                      PageType.NETWORK_BUFFER):
        assert policy.node_preference(page_type)[0] == 1


def test_heap_io_slab_od_routes_all_eligible_to_fast():
    policy = make_policy("heap-io-slab-od")
    bind(policy)
    for page_type in FASTMEM_ELIGIBLE:
        assert policy.node_preference(page_type)[0] == 0
    assert policy.node_preference(PageType.PAGE_TABLE)[0] == 1
    assert policy.node_preference(PageType.DMA)[0] == 1


def test_budgeting_inactive_while_fast_is_plentiful():
    policy = HeapIoSlabOdPolicy()
    kernel = bind(policy)
    kernel.begin_epoch(0)
    policy.on_epoch_start(0)
    assert not policy._budgeting_active


def test_budgeting_starves_low_miss_types_under_scarcity():
    policy = HeapIoSlabOdPolicy()
    kernel = bind(policy)
    # Exhaust FastMem and create a demand history where the page cache
    # starved while the heap was served.
    kernel.begin_epoch(0)
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("heap", PageType.HEAP, fast, [0])
    kernel.allocate_region("pc", PageType.PAGE_CACHE, 2000, [1])
    kernel.epoch_stats[PageType.PAGE_CACHE].requested_pages = 2000
    kernel.epoch_stats[PageType.PAGE_CACHE].fast_granted_pages = 0
    policy.on_epoch_end(0)
    kernel.begin_epoch(1)
    policy.on_epoch_start(1)
    assert policy._budgeting_active
    # The starving page cache keeps its FastMem claim; a type with zero
    # recorded demand gets only leftovers.
    assert policy._budgets[PageType.PAGE_CACHE] >= 0
    policy.on_allocated(PageType.PAGE_CACHE,
                        policy._budgets[PageType.PAGE_CACHE] + 1,
                        policy._budgets[PageType.PAGE_CACHE] + 1)
    assert policy.node_preference(PageType.PAGE_CACHE)[0] == 1


# ----------------------------------------------------------------------
# HeteroOS-LRU
# ----------------------------------------------------------------------

def test_hetero_lru_demotes_inactive_fast_pages_under_pressure():
    policy = HeteroLruPolicy(fast_free_target=0.25)
    kernel = bind(policy)
    kernel.begin_epoch(0)
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    (hot,) = kernel.allocate_region("hot", PageType.HEAP, fast, [0])
    kernel.touch_region("hot", 0.0)
    # Never touched again: the aging scan turns it inactive, pressure
    # demotes it to SlowMem.
    for epoch in range(1, 5):
        kernel.begin_epoch(epoch)
        policy.on_epoch_end(epoch)
    assert policy.pages_demoted > 0
    assert kernel.nodes[0].free_pages > 0


def test_hetero_lru_drops_completed_io_from_fast():
    policy = HeteroLruPolicy(fast_free_target=0.9)  # always pressured
    kernel = bind(policy)
    kernel.begin_epoch(0)
    (io,) = kernel.allocate_region("io", PageType.PAGE_CACHE, 512, [0])
    kernel.page_cache.complete_io(io)  # fires the eager hook
    policy.on_epoch_end(0)
    # Dropped, not migrated: no copy cost, pages simply freed.
    assert io.extent_id not in kernel.extents
    assert policy.pages_demoted == 0 or policy.demote_cost_ns >= 0


def test_hetero_lru_no_demotion_without_pressure():
    policy = HeteroLruPolicy(fast_free_target=0.1)
    kernel = bind(policy)
    kernel.begin_epoch(0)
    kernel.allocate_region("small", PageType.HEAP, 128, [0])
    kernel.touch_region("small", 10_000.0)
    cost = policy.on_epoch_end(0)
    assert policy.pages_demoted == 0
    assert cost == 0.0


def test_hetero_lru_demotes_for_denser_incoming():
    policy = HeteroLruPolicy()
    kernel = bind(policy)
    kernel.begin_epoch(0)
    fast = kernel.nodes[0].free_pages_for(PageType.HEAP)
    kernel.allocate_region("lukewarm", PageType.HEAP, fast, [0])
    kernel.touch_region("lukewarm", float(fast) * 3)  # density ~3
    policy.on_epoch_end(0)
    kernel.begin_epoch(1)
    kernel.allocate_region("blazing", PageType.NETWORK_BUFFER, 1024, [0, 1])
    kernel.touch_region("lukewarm", float(fast) * 3)
    kernel.touch_region("blazing", 1024 * 200.0)  # density 200
    policy.on_epoch_end(1)
    assert policy.pages_demoted > 0


# ----------------------------------------------------------------------
# Coordinated
# ----------------------------------------------------------------------

def test_coordinated_requires_hypervisor_binding():
    policy = CoordinatedPolicy()
    with pytest.raises(ConfigurationError):
        bind(policy)  # kernel-only binding has no channel/tracker


def test_coordinated_interval_validation():
    with pytest.raises(ConfigurationError):
        CoordinatedPolicy(min_interval_ms=0)
    with pytest.raises(ConfigurationError):
        CoordinatedPolicy(min_interval_ms=100, max_interval_ms=50)


def test_mechanism_ladder_is_subclass_chain():
    assert issubclass(HeapIoSlabOdPolicy, HeapOdPolicy)
    assert issubclass(HeteroLruPolicy, HeapIoSlabOdPolicy)
    assert issubclass(CoordinatedPolicy, HeteroLruPolicy)
    assert not issubclass(HeapOdPolicy, HeteroLruPolicy)
