"""Access-bit hotness tracking."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.extent import PageExtent, PageType
from repro.vmm.hotness import HotnessConfig, HotnessTracker


def hot_extent(pages=100, density=10.0) -> PageExtent:
    extent = PageExtent("r", PageType.HEAP, pages, 0)
    extent.record_access(0, density * pages)
    return extent


def scan_epochs(tracker, extents, epochs):
    """Simulate repeated access + scan cycles."""
    for epoch in range(epochs):
        for extent, density in extents:
            extent.record_access(epoch, density * extent.pages)
        tracker.scan([extent for extent, _ in extents], max_pages=10**9)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        HotnessConfig(scan_batch_pages=0)
    with pytest.raises(ConfigurationError):
        HotnessConfig(per_pte_scan_ns=-1)
    with pytest.raises(ConfigurationError):
        HotnessConfig(decay=0.0)


def test_scan_clears_access_bits():
    tracker = HotnessTracker()
    extent = hot_extent()
    assert extent.accessed
    tracker.scan([extent])
    assert not extent.accessed


def test_hot_classification_needs_density_and_history():
    config = HotnessConfig(hot_density=4.0, min_observations=3)
    tracker = HotnessTracker(config)
    hot = PageExtent("hot", PageType.HEAP, 100, 0)
    cold = PageExtent("cold", PageType.HEAP, 100, 0)
    report = None
    for epoch in range(5):
        hot.record_access(epoch, 100 * 10.0)  # density 10/page
        cold.record_access(epoch, 100 * 0.5)  # density 0.5/page
        report = tracker.scan([hot, cold], max_pages=10**9)
    assert hot in report.hot_extents
    assert cold not in report.hot_extents


def test_one_shot_pages_never_classified_hot():
    """Short-lived churn touched in a single scan is filtered by the
    observation-history requirement (keeps I/O churn from migrating)."""
    config = HotnessConfig(hot_density=1.0, min_observations=3)
    tracker = HotnessTracker(config)
    flash = hot_extent(density=100.0)
    report = tracker.scan([flash])
    assert flash not in report.hot_extents
    assert tracker.observations(flash) == 1


def test_scan_budget_strict_and_covering():
    config = HotnessConfig(scan_batch_pages=1024, min_coverage_extents=4)
    tracker = HotnessTracker(config)
    extents = [hot_extent(pages=10_000) for _ in range(8)]
    report = tracker.scan(extents)
    assert report.pages_scanned <= 1024
    # Coverage: at least min_coverage_extents got sampled.
    assert report.extents_scanned >= 4


def test_scan_cost_proportional_to_pages_examined():
    config = HotnessConfig(per_pte_scan_ns=1000.0, rmap_discount=1.0)
    tracker = HotnessTracker(config)
    extent = hot_extent(pages=100)
    report = tracker.scan([extent], max_pages=10**9)
    assert report.cost_ns >= 100 * 1000.0  # pages * per-PTE
    assert report.tlb_flushes >= 1


def test_rmap_discount_lowers_cost():
    with_rmap = HotnessTracker(HotnessConfig())
    without = HotnessTracker(HotnessConfig(rmap_discount=1.0))
    a, b = hot_extent(), hot_extent()
    assert (
        with_rmap.scan([a], max_pages=10**9).cost_ns
        < without.scan([b], max_pages=10**9).cost_ns
    )


def test_estimate_decays_without_access():
    tracker = HotnessTracker()
    extent = hot_extent(density=10.0)
    tracker.scan([extent], max_pages=10**9)
    first = tracker.estimate(extent)
    # No access this epoch: bit stays clear, estimate decays.
    tracker.scan([extent], max_pages=10**9)
    assert tracker.estimate(extent) < first


def test_hot_extents_sorted_hottest_first():
    config = HotnessConfig(hot_density=0.5, min_observations=1)
    tracker = HotnessTracker(config)
    warm = PageExtent("warm", PageType.HEAP, 100, 0)
    blazing = PageExtent("blazing", PageType.HEAP, 100, 0)
    for epoch in range(3):
        warm.record_access(epoch, 100 * 2.0)
        blazing.record_access(epoch, 100 * 50.0)
        report = tracker.scan([warm, blazing], max_pages=10**9)
    assert report.hot_extents[0] is blazing


def test_forget_drops_state():
    tracker = HotnessTracker()
    extent = hot_extent()
    tracker.scan([extent], max_pages=10**9)
    tracker.forget([extent])
    assert tracker.estimate(extent) == 0.0
    assert tracker.observations(extent) == 0
