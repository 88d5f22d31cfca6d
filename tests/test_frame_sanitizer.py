"""FrameSanitizer: each defect class (double-free, invalid-free,
use-after-free, leak, ownership-race) through the event API, the
instance hooks, and a clean run through the sim engine."""

from __future__ import annotations

import pytest

from repro.devtools.sanitizer import FrameSanitizer
from repro.errors import AllocationError, SanitizerError
from repro.guestos.buddy import BuddyAllocator
from repro.guestos.slab import SlabCache
from repro.mem.extent import PageType
from repro.sim.runner import build_config, run_experiment

from conftest import make_kernel


def kinds(san):
    return [report.kind for report in san.reports]


# ----------------------------------------------------------------------
# Event API: the four required defect classes + invalid-free
# ----------------------------------------------------------------------


def test_event_double_free():
    san = FrameSanitizer()
    san.on_alloc("buddy", 0, 8)
    san.on_free("buddy", 0, 8)
    san.on_free("buddy", 0, 8)
    assert kinds(san) == ["double-free"]
    assert san.reports[0].start == 0 and san.reports[0].count == 8


def test_event_partial_double_free_reports_only_the_overlap():
    san = FrameSanitizer()
    san.on_alloc("buddy", 0, 8)
    san.on_free("buddy", 4, 4)
    san.on_free("buddy", 0, 8)  # frames 4..8 already freed
    assert kinds(san) == ["double-free"]
    assert (san.reports[0].start, san.reports[0].count) == (4, 4)


def test_event_invalid_free_of_never_allocated_frames():
    san = FrameSanitizer()
    san.on_free("wild", 100, 4)
    assert kinds(san) == ["invalid-free"]


def test_event_use_after_free():
    san = FrameSanitizer()
    san.on_alloc("extent:1", 16, 4)
    san.on_use("extent:1", 16, 4)
    assert not san.reports
    san.on_free("buddy", 16, 4)
    san.on_use("extent:1", 16, 4)
    assert kinds(san) == ["use-after-free"]


def test_event_leak_at_teardown():
    san = FrameSanitizer()
    san.on_alloc("buddy", 0, 8)
    san.on_alloc("buddy", 32, 4)
    san.on_free("buddy", 0, 8)
    new = san.check_leaks()
    assert [report.kind for report in new] == ["leak"]
    assert (new[0].start, new[0].count) == (32, 4)
    assert new[0].owner == "buddy"


def test_event_ownership_race_on_overlapping_alloc():
    san = FrameSanitizer()
    san.on_alloc("node0", 0, 8)
    san.on_alloc("node1", 4, 8)
    assert kinds(san) == ["ownership-race"]
    assert (san.reports[0].start, san.reports[0].count) == (4, 4)


def test_event_ownership_race_on_bad_transfer():
    san = FrameSanitizer()
    san.on_alloc("extent:1", 0, 8)
    san.on_transfer("extent:2", "migration", 0, 8)  # extent:2 never owned them
    assert kinds(san) == ["ownership-race"]
    # A transfer from the true owner is clean.
    san.reports.clear()
    san.on_transfer("migration", "extent:3", 0, 8)
    assert not san.reports


def test_clean_cycle_has_no_reports():
    san = FrameSanitizer()
    san.on_alloc("buddy", 0, 64)
    san.on_use("extent:1", 0, 64)
    san.on_free("buddy", 0, 64)
    assert not san.check_leaks()
    assert not san.reports
    assert san.events == 3


def test_spaces_are_independent():
    san = FrameSanitizer()
    san.on_alloc("pool:machine", 0, 8, space="machine")
    san.on_alloc("node0", 0, 8, space="guest")
    assert not san.reports  # same frame numbers, different spaces


def test_strict_mode_raises():
    san = FrameSanitizer(strict=True)
    san.on_alloc("buddy", 0, 4)
    san.on_free("buddy", 0, 4)
    with pytest.raises(SanitizerError):
        san.on_free("buddy", 0, 4)


# ----------------------------------------------------------------------
# Buddy / slab instance hooks
# ----------------------------------------------------------------------


def test_attach_buddy_clean_cycle_and_leak():
    buddy = BuddyAllocator(base=0, frames=256)
    san = FrameSanitizer()
    san.attach_buddy(buddy, owner="zone0")
    ranges = buddy.allocate_pages(24)
    for frame_range in ranges:
        buddy.free_range(frame_range)
    assert not san.check_leaks()

    leaked = buddy.allocate_block(order=2)
    new = san.check_leaks()
    assert [report.kind for report in new] == ["leak"]
    assert (new[0].start, new[0].count) == (leaked.start, leaked.count)


def test_attach_buddy_double_free_reported_before_buddy_raises():
    buddy = BuddyAllocator(base=0, frames=64)
    san = FrameSanitizer()
    san.attach_buddy(buddy, owner="zone0")
    block = buddy.allocate_block(order=3)
    buddy.free_span(block.start, block.count)
    with pytest.raises(AllocationError):
        buddy.free_span(block.start, block.count)
    assert "double-free" in kinds(san)


def test_detach_restores_original_methods():
    buddy = BuddyAllocator(base=0, frames=64)
    san = FrameSanitizer()
    san.attach_buddy(buddy, owner="zone0")
    buddy.allocate_block(order=0)
    assert san.events == 1
    san.detach()
    buddy.allocate_block(order=0)
    assert san.events == 1  # no longer observed
    assert "allocate_block" not in buddy.__dict__


def test_attach_slab_double_free_and_leak():
    pages = {}

    def source(name, count, page_type):
        token = len(pages)
        pages[token] = count
        return token

    def release(name, token):
        del pages[token]

    cache = SlabCache("skbuff", 2048, source, release)
    san = FrameSanitizer()
    san.attach_slab(cache)

    first = cache.allocate()
    second = cache.allocate()
    cache.free(first)
    with pytest.raises(AllocationError):
        cache.free(first)
    assert kinds(san) == ["double-free"]

    leaks = san.check_slab_leaks()
    assert [report.kind for report in leaks] == ["leak"]
    assert repr(second) in leaks[0].detail


# ----------------------------------------------------------------------
# Whole-kernel hooks: defects staged behind the kernel's back
# ----------------------------------------------------------------------


def test_kernel_use_after_free_detected_on_touch():
    kernel = make_kernel()
    san = FrameSanitizer()
    san.attach_kernel(kernel)
    kernel.allocate_region("victim", PageType.HEAP, 64, [0])
    assert not san.reports

    # Free the region's frames straight into the buddy, leaving the
    # extent dangling — the kernel proper would never do this.
    extent = kernel.region_extents("victim")[0]
    kernel.nodes[extent.node_id].free_ranges(extent.frames)
    kernel.touch_region("victim", 100.0)
    assert "use-after-free" in kinds(san)


def test_kernel_clean_allocate_touch_free_cycle():
    kernel = make_kernel()
    san = FrameSanitizer()
    san.attach_kernel(kernel)
    kernel.allocate_region("ok", PageType.HEAP, 64, [0])
    kernel.touch_region("ok", 100.0)
    kernel.free_region("ok")
    assert not san.reports


def test_kernel_migration_leak_is_an_ownership_race():
    kernel = make_kernel()

    def buggy_move(extent, target_node_id):
        # Mirrors GuestKernel.move_extent but "forgets" to return the
        # source frames to their node.
        target = kernel.nodes[target_node_id]
        new_frames, _ = target.allocate_up_to(extent.pages, extent.page_type)
        kernel.lru[extent.node_id].remove(extent)
        extent.frames = new_frames
        extent.node_id = target_node_id
        kernel.lru[target_node_id].insert(extent)
        return extent.pages

    # Install the bug first so attach_kernel wraps the buggy version.
    kernel.move_extent = buggy_move
    san = FrameSanitizer()
    san.attach_kernel(kernel)

    kernel.allocate_region("migrant", PageType.HEAP, 64, [0])
    extent = kernel.region_extents("migrant")[0]
    moved = kernel.move_extent(extent, 1)
    assert moved == 64
    races = [r for r in san.reports if r.kind == "ownership-race"]
    assert races
    assert "still owned" in races[0].detail


def test_kernel_correct_migration_is_clean():
    kernel = make_kernel()
    san = FrameSanitizer()
    san.attach_kernel(kernel)
    kernel.allocate_region("migrant", PageType.HEAP, 64, [0])
    extent = kernel.region_extents("migrant")[0]
    assert kernel.move_extent(extent, 1) == 64
    assert not san.reports


def test_reconcile_flags_frames_no_owner_accounts_for():
    kernel = make_kernel()
    san = FrameSanitizer()
    san.attach_kernel(kernel)
    # Grab pages from a zone buddy without creating an extent: the shadow
    # sees the allocation but no kernel structure accounts for it.
    kernel.nodes[0].allocate_pages(32, PageType.HEAP)
    new = san.reconcile(kernel)
    assert [report.kind for report in new] == ["leak"]
    assert new[0].owner == "<unaccounted>"


def test_reconcile_clean_after_normal_activity():
    kernel = make_kernel()
    san = FrameSanitizer()
    san.attach_kernel(kernel)
    kernel.allocate_region("a", PageType.HEAP, 64, [0])
    kernel.allocate_region("b", PageType.PAGE_CACHE, 8, [1], cpu=1)
    kernel.touch_region("a", 50.0)
    kernel.free_region("b")
    assert not san.reconcile(kernel)
    assert not san.reports


# ----------------------------------------------------------------------
# Through the sim engine
# ----------------------------------------------------------------------


def test_engine_clean_run_reports_no_violations():
    config = build_config(fast_ratio=0.25, slow_gib=0.25, seed=7)
    config.sanitize = True
    result = run_experiment("nginx", "hetero-lru", epochs=3, config=config)
    assert result.sanitizer_reports == []


def test_engine_without_sanitize_has_empty_reports():
    config = build_config(fast_ratio=0.25, slow_gib=0.25, seed=7)
    result = run_experiment("nginx", "hetero-lru", epochs=2, config=config)
    assert result.sanitizer_reports == []


def test_cli_sanitize_check_exit_code(capsys):
    from repro.cli import main

    code = main(
        [
            "sanitize-check",
            "--app", "nginx",
            "--policy", "hetero-lru",
            "--epochs", "3",
            "--slow-gib", "0.25",
        ]
    )
    assert code == 0
    assert "0 violation(s)" in capsys.readouterr().out
