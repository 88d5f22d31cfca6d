"""Workload framework and the six application models."""

import importlib
import inspect
import pkgutil

import pytest

import repro.workloads
from repro.config import SimConfig
from repro.core import make_policy
from repro.errors import WorkloadError
from repro.mem.extent import PageType
from repro.sim.engine import SimulationEngine
from repro.units import MIB
from repro.workloads.base import (
    ChurnSpec,
    RegionSpec,
    StatisticalWorkload,
)
from repro.workloads.fig13 import make_graphchi_twitter, make_metis_big
from repro.workloads.microbench import make_memlat, make_stream
from repro.workloads import registry
from repro.workloads.registry import (
    ALL_APPS,
    PLACEMENT_APPS,
    UNREGISTERED_FACTORIES,
    available_workloads,
    make_workload,
    register_workload,
)


def simple_workload(**overrides) -> StatisticalWorkload:
    kwargs = dict(
        name="test",
        mlp=4.0,
        instructions_per_epoch=1e6,
        accesses_per_epoch=1000.0,
        resident=[
            RegionSpec("hot", PageType.HEAP, 100, reuse=0.8, access_share=3.0),
        ],
        churn=[
            ChurnSpec(
                "io", PageType.PAGE_CACHE, pages_per_epoch=10,
                lifetime_epochs=2, reuse=0.5, access_share=1.0,
            ),
        ],
    )
    kwargs.update(overrides)
    return StatisticalWorkload(**kwargs)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

#: Zero of either sign, negative, NaN and infinite: a miss moves a
#: positive, finite number of bytes.
BAD_BYTES_PER_MISS = (0.0, -0.0, -64.0, float("nan"), float("inf"))


def test_region_spec_validation():
    with pytest.raises(WorkloadError):
        RegionSpec("r", PageType.HEAP, 0, 0.5, 1.0)
    with pytest.raises(WorkloadError):
        RegionSpec("r", PageType.HEAP, 10, 1.5, 1.0)
    for access_share in (-1.0, float("nan"), float("inf")):
        with pytest.raises(WorkloadError, match="region 'r'"):
            RegionSpec("r", PageType.HEAP, 10, 0.5, access_share)
    with pytest.raises(WorkloadError):
        RegionSpec("r", PageType.HEAP, 10, 0.5, 1.0, write_fraction=2.0)
    for bytes_per_miss in BAD_BYTES_PER_MISS:
        with pytest.raises(WorkloadError, match="region 'r'"):
            RegionSpec("r", PageType.HEAP, 10, 0.5, 1.0,
                       bytes_per_miss=bytes_per_miss)
    for access_period in (0, -3, float("nan")):
        with pytest.raises(WorkloadError, match="region 'r'"):
            RegionSpec("r", PageType.HEAP, 10, 0.5, 1.0,
                       access_period=access_period)
    with pytest.raises(WorkloadError, match="region 'r'"):
        RegionSpec("r", PageType.HEAP, 10, 0.5, 1.0, alloc_epoch=-1)


def test_churn_spec_validation():
    with pytest.raises(WorkloadError):
        ChurnSpec("c", PageType.HEAP, 0, 1, 0.5, 1.0)
    with pytest.raises(WorkloadError):
        ChurnSpec("c", PageType.HEAP, 10, 2, 0.5, 1.0, active_epochs=3)
    for bytes_per_miss in BAD_BYTES_PER_MISS:
        with pytest.raises(WorkloadError, match="churn 'c'"):
            ChurnSpec("c", PageType.HEAP, 10, 2, 0.5, 1.0,
                      bytes_per_miss=bytes_per_miss)


def test_workload_validation():
    with pytest.raises(WorkloadError):
        simple_workload(instructions_per_epoch=0)
    with pytest.raises(WorkloadError):
        simple_workload(mlp=0)
    with pytest.raises(WorkloadError):
        simple_workload(share_shifts=[(5, {"nonexistent": 1.0})])


# ----------------------------------------------------------------------
# Epoch stream semantics
# ----------------------------------------------------------------------

def test_residents_allocated_at_their_epoch():
    workload = simple_workload(
        resident=[
            RegionSpec("early", PageType.HEAP, 10, 0.5, 1.0, alloc_epoch=0),
            RegionSpec("late", PageType.HEAP, 10, 0.5, 1.0, alloc_epoch=3),
        ],
        churn=[],
    )
    demands = list(workload.epochs(5))
    assert any("early" in rid for rid, _ in demands[0].allocs)
    assert not any("late" in rid for rid, _ in demands[0].allocs)
    assert any("late" in rid for rid, _ in demands[3].allocs)
    # Not accessed before allocation.
    assert all("late" not in rid for rid in demands[1].accesses)


def test_churn_lifecycle():
    workload = simple_workload()
    demands = list(workload.epochs(6))
    # One churn region allocated per epoch.
    for demand in demands:
        churn_allocs = [rid for rid, s in demand.allocs if "io" in rid]
        assert len(churn_allocs) == 1
    # Regions freed exactly lifetime epochs after birth.
    born_epoch0 = [rid for rid, _ in demands[0].allocs if "io" in rid][0]
    assert born_epoch0 in demands[2].frees


def test_access_shares_sum_to_total():
    workload = simple_workload()
    for demand in workload.epochs(4):
        total = sum(r + w for r, w in demand.accesses.values())
        assert total == pytest.approx(1000.0)


def test_access_shares_divide_by_the_left_to_right_total():
    """Float totals on the result path add left to right, the same on
    every interpreter: Python 3.12's compensated ``sum()`` would total
    these shares, and then the epoch's accesses, 1.0000000000000002,
    not 1.0, and change every region's accesses and the run's
    ``total_accesses``."""
    shares = (1.0, 1e-16, 1e-16)

    def workload():
        return simple_workload(
            accesses_per_epoch=1.0,
            resident=[
                RegionSpec(f"r{index}", PageType.HEAP, 10, 0.5, share,
                           write_fraction=0.0)
                for index, share in enumerate(shares)
            ],
            churn=[],
        )

    total = 0.0
    for share in shares:
        total += share
    assert total == 1.0
    demand = next(iter(workload().epochs(1)))
    assert [demand.accesses[f"test:r{index}"] for index in range(3)] == [
        (share / total, 0.0) for share in shares
    ]
    config = SimConfig(
        fast_capacity_bytes=16 * MIB, slow_capacity_bytes=64 * MIB
    )
    engine = SimulationEngine(config, workload(), make_policy("heap-od"))
    assert engine.run(1).stats.total_accesses == total


def test_active_epochs_limit_churn_accesses():
    workload = simple_workload(
        churn=[
            ChurnSpec(
                "io", PageType.PAGE_CACHE, pages_per_epoch=10,
                lifetime_epochs=4, active_epochs=1, reuse=0.5,
                access_share=1.0,
            ),
        ],
    )
    demands = list(workload.epochs(4))
    stale = [rid for rid, _ in demands[0].allocs if "io" in rid][0]
    assert stale in demands[0].accesses
    assert stale not in demands[1].accesses  # lingers but unaccessed


def test_share_shift_changes_distribution():
    workload = simple_workload(
        resident=[
            RegionSpec("a", PageType.HEAP, 10, 0.5, 9.0),
            RegionSpec("b", PageType.HEAP, 10, 0.5, 1.0),
        ],
        churn=[],
        share_shifts=[(2, {"a": 1.0, "b": 9.0})],
    )
    demands = list(workload.epochs(4))
    a_before = demands[0].accesses["test:a"][0] + demands[0].accesses["test:a"][1]
    a_after = demands[3].accesses["test:a"][0] + demands[3].accesses["test:a"][1]
    assert a_before > 5 * a_after


def test_access_period_skips_epochs():
    workload = simple_workload(
        resident=[
            RegionSpec("cold", PageType.HEAP, 10, 0.5, 1.0, access_period=3),
            RegionSpec("hot", PageType.HEAP, 10, 0.5, 1.0),
        ],
        churn=[],
    )
    demands = list(workload.epochs(6))
    touched = [e for e, d in enumerate(demands) if "test:cold" in d.accesses]
    assert touched == [0, 3]


def test_write_fraction_split():
    workload = simple_workload(
        resident=[
            RegionSpec(
                "w", PageType.HEAP, 10, 0.5, 1.0, write_fraction=0.25
            ),
        ],
        churn=[],
    )
    demand = next(iter(workload.epochs(1)))
    reads, writes = demand.accesses["test:w"]
    assert writes == pytest.approx(250.0)
    assert reads == pytest.approx(750.0)


# ----------------------------------------------------------------------
# Registry and app calibration
# ----------------------------------------------------------------------

def test_registry_contents():
    assert set(ALL_APPS) == {
        "graphchi", "xstream", "metis", "leveldb", "redis", "nginx",
    }
    assert "nginx" not in PLACEMENT_APPS
    assert available_workloads() == sorted(ALL_APPS)


def test_every_factory_is_registered_or_declared_unregistered():
    factories = set()  # every module-level make_* of a workload module
    for info in pkgutil.iter_modules(repro.workloads.__path__):
        if info.name == "registry":
            continue
        module = importlib.import_module(f"repro.workloads.{info.name}")
        factories.update(
            name for name, value in vars(module).items()
            if name.startswith("make_") and inspect.isfunction(value)
            and value.__module__ == module.__name__
        )
    # ALL_APPS is the registry as shipped; tests may register more.
    registered = {registry._REGISTRY[app].__name__ for app in ALL_APPS}
    unregistered = set(UNREGISTERED_FACTORIES)
    assert registered | unregistered == factories, "unlisted or stale"
    assert not registered & unregistered
    assert all(reason.strip() for reason in UNREGISTERED_FACTORIES.values())


def test_make_workload_unknown():
    with pytest.raises(WorkloadError):
        make_workload("doom")


def test_register_custom_workload(monkeypatch):
    # A copy of the registry: later tests see the shipped set only.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    register_workload("custom-test", lambda: simple_workload(name="custom"))
    assert make_workload("custom-test").name == "custom"
    with pytest.raises(WorkloadError):
        register_workload("custom-test", simple_workload)


@pytest.mark.parametrize("app", ALL_APPS)
def test_app_models_produce_consistent_streams(app):
    workload = make_workload(app)
    allocated: set[str] = set()
    freed: set[str] = set()
    for demand in workload.epochs(10):
        for region_id, spec in demand.allocs:
            assert region_id not in allocated
            allocated.add(region_id)
            assert spec.pages > 0
        for region_id in demand.frees:
            assert region_id in allocated
            assert region_id not in freed
            freed.add(region_id)
        for region_id in demand.accesses:
            assert region_id in allocated and region_id not in freed


@pytest.mark.parametrize("app", ALL_APPS)
def test_app_metrics_defined(app):
    workload = make_workload(app)
    assert workload.metric in ("seconds", "ops-per-sec", "mb-per-sec")
    if workload.metric != "seconds":
        assert workload.work_units_per_epoch > 0
    assert workload.default_epochs() >= 100


def test_fig13_variants_grow_in_stages():
    for factory in (make_graphchi_twitter, make_metis_big):
        workload = factory()
        epochs = {spec.alloc_epoch for spec in workload.resident}
        assert len(epochs) > 1


def test_microbench_wss_sizes():
    memlat = make_memlat(1.0)
    assert memlat.resident_pages == pytest.approx(262144, abs=16)
    stream = make_stream(0.5)
    assert stream.resident_pages == pytest.approx(131072, abs=16)
    with pytest.raises(WorkloadError):
        make_memlat(0)
    with pytest.raises(WorkloadError):
        make_stream(-1)
