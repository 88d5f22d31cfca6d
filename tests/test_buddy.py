"""Buddy allocator."""

import gc
import os
import random

import pytest

from repro.core.policy import make_policy
from repro.devtools.sanitizer import FrameSanitizer
from repro.errors import AllocationError, OutOfMemoryError
from repro.experiments.sharing import run_fig13
from repro.guestos.buddy import BuddyAllocator
from repro.mem.frames import FrameRange
from repro.sim.runner import build_config, run_experiment


def test_block_allocation_sizes():
    buddy = BuddyAllocator(0, 1024)
    block = buddy.allocate_block(4)
    assert block.count == 16
    assert block.start % 16 == 0
    assert buddy.free_frames == 1024 - 16


def test_block_alignment_respects_base():
    buddy = BuddyAllocator(1000, 1024)
    block = buddy.allocate_block(5)
    assert (block.start - 1000) % 32 == 0


def test_split_and_coalesce_roundtrip():
    buddy = BuddyAllocator(0, 256)
    blocks = [buddy.allocate_block(0) for _ in range(256)]
    assert buddy.free_frames == 0
    for block in blocks:
        buddy.free_span(block.start, block.count)
    assert buddy.free_frames == 256
    buddy.check_invariants()
    # Everything coalesced back: a max-order block is available again.
    assert buddy.largest_free_order() == 8


def test_allocate_pages_exact_total():
    buddy = BuddyAllocator(0, 1024)
    ranges = buddy.allocate_pages(300)
    assert sum(r.count for r in ranges) == 300
    assert buddy.free_frames == 724
    buddy.check_invariants()


def test_allocate_pages_rollback_on_failure():
    buddy = BuddyAllocator(0, 128)
    buddy.allocate_pages(100)
    free_before = buddy.free_frames
    with pytest.raises(OutOfMemoryError):
        buddy.allocate_pages(50)
    assert buddy.free_frames == free_before
    buddy.check_invariants()


def test_free_span_accepts_fragments():
    """Fragments of an allocated block (per-CPU splits) free cleanly."""
    buddy = BuddyAllocator(0, 64)
    block = buddy.allocate_block(4)  # 16 frames
    buddy.free_span(block.start, 5)
    buddy.free_span(block.start + 5, 11)
    assert buddy.free_frames == 64
    buddy.check_invariants()


def test_double_free_detected_exactly():
    buddy = BuddyAllocator(0, 64)
    block = buddy.allocate_block(3)
    buddy.free_span(block.start, block.count)
    with pytest.raises(AllocationError):
        buddy.free_span(block.start, 1)


def test_partial_overlap_free_detected():
    buddy = BuddyAllocator(0, 64)
    block = buddy.allocate_block(3)  # 8 frames
    buddy.free_span(block.start, 4)
    with pytest.raises(AllocationError):
        buddy.free_span(block.start + 2, 4)  # overlaps the freed half


def test_free_outside_span_rejected():
    buddy = BuddyAllocator(0, 64)
    with pytest.raises(AllocationError):
        buddy.free_span(100, 4)


def test_non_power_of_two_span():
    buddy = BuddyAllocator(0, 1000)
    assert buddy.free_frames == 1000
    ranges = buddy.allocate_pages(1000)
    assert sum(r.count for r in ranges) == 1000
    assert buddy.free_frames == 0
    for r in ranges:
        buddy.free_span(r.start, r.count)
    buddy.check_invariants()


def test_fragmentation_fallback_to_smaller_orders():
    buddy = BuddyAllocator(0, 64)
    # Allocate all order-0 blocks, free every other one: max fragmentation.
    blocks = [buddy.allocate_block(0) for _ in range(64)]
    for block in blocks[::2]:
        buddy.free_span(block.start, 1)
    assert buddy.largest_free_order() == 0
    ranges = buddy.allocate_pages(16)  # must assemble from singletons
    assert sum(r.count for r in ranges) == 16
    buddy.check_invariants()


def test_is_free_queries():
    buddy = BuddyAllocator(0, 16)
    block = buddy.allocate_block(2)
    assert not buddy.is_free(block.start)
    buddy.free_span(block.start, block.count)
    assert buddy.is_free(block.start)
    with pytest.raises(AllocationError):
        buddy.is_free(999)


def test_oversized_request_rejected():
    buddy = BuddyAllocator(0, 64)
    with pytest.raises(OutOfMemoryError):
        buddy.allocate_pages(65)
    with pytest.raises(AllocationError):
        buddy.allocate_pages(0)
    with pytest.raises(AllocationError):
        buddy.allocate_block(99)


def test_invariants_catch_top_map_byte_over_allocated_frames():
    buddy = BuddyAllocator(0, 4096)
    block = buddy.allocate_block(10)
    buddy.check_invariants()
    # Seeded drift: the top-order map calls the block free while the
    # frame mask still holds it allocated.
    buddy._top[(block.start - buddy.base) >> buddy.max_order] = 1
    buddy._top_free += 1
    with pytest.raises(AllocationError, match="mask"):
        buddy.check_invariants()


def test_invariants_catch_top_free_count_drift():
    buddy = BuddyAllocator(0, 4096)
    buddy.allocate_pages(1024)
    buddy.check_invariants()
    buddy._top_free -= 1
    with pytest.raises(AllocationError, match="top-block count"):
        buddy.check_invariants()


def test_invariants_catch_lower_order_block_marked_allocated():
    buddy = BuddyAllocator(0, 4096)
    buddy.allocate_block(0)
    buddy.check_invariants()
    # Seeded drift: a lower-order free block whose frame-map bytes read
    # "allocated" (1).
    start = min(buddy._free_lists[3])
    buddy._mask[start:start + 8] = b"\x01" * 8
    with pytest.raises(AllocationError, match="mask"):
        buddy.check_invariants()


#: One top-order block at the default ``max_order``.
TOP = 1 << 10


def _free_state(buddy):
    return (
        buddy.free_frames,
        buddy._top_free,
        [buddy.is_free(frame) for frame in range(buddy.total_frames)],
    )


def _free_span_call(buddy, run):
    buddy.free_span(run.start, run.count)


def _free_spans_call(buddy, run):
    assert buddy._free_spans([run], 0) == 1


FREE_PATHS = pytest.mark.parametrize(
    "free", [_free_span_call, _free_spans_call], ids=["free_span", "_free_spans"]
)


def test_contiguous_top_blocks_granted_as_one_range():
    buddy = BuddyAllocator(0, 4 * TOP)
    assert buddy.allocate_pages(3 * TOP) == [FrameRange(0, 3 * TOP)]
    assert buddy._top_free == 1
    buddy.check_invariants()


def test_top_run_stops_at_an_allocated_block():
    buddy = BuddyAllocator(0, 4 * TOP)
    first = buddy.allocate_block(10)
    buddy.allocate_block(10)  # the middle block stays allocated
    buddy.free_range(first)
    assert buddy.allocate_pages(3 * TOP) == [
        FrameRange(0, TOP),
        FrameRange(2 * TOP, 2 * TOP),
    ]
    buddy.check_invariants()


@FREE_PATHS
def test_freeing_a_run_restores_the_top_order(free):
    buddy = BuddyAllocator(0, 3 * TOP + 100)
    before = _free_state(buddy)
    (run,) = buddy.allocate_pages(3 * TOP)
    assert buddy.largest_free_order() == 6  # the 100-frame tail's 64
    free(buddy, run)
    assert _free_state(buddy) == before
    assert buddy.largest_free_order() == 10
    buddy.check_invariants()


@FREE_PATHS
def test_double_free_inside_a_run_changes_nothing(free):
    buddy = BuddyAllocator(0, 4 * TOP)
    (run,) = buddy.allocate_pages(3 * TOP)
    buddy.free_span(run.start + TOP + 7, 1)
    before = _free_state(buddy)
    with pytest.raises(AllocationError, match="double free"):
        free(buddy, run)
    assert _free_state(buddy) == before
    buddy.check_invariants()


def test_sanitized_grant_has_the_same_shape():
    """The sanitizer's block-by-block path joins contiguous top-order
    blocks as the run takes do, so a grant's shape does not depend on
    whether the sanitizer is attached."""
    grants = []
    for sanitize in (False, True):
        buddy = BuddyAllocator(0, 6 * TOP + 300)
        sanitizer = FrameSanitizer()
        if sanitize:
            sanitizer.attach_buddy(buddy, owner="zone0")
        first = buddy.allocate_block(10)
        buddy.allocate_block(10)
        buddy.free_range(first)
        grants.append(buddy.allocate_pages(5 * TOP + 200))
        assert (sanitizer.events > 0) == sanitize
        assert not sanitizer.reports
        buddy.check_invariants()
    plain, sanitized = grants
    assert sanitized == plain
    assert plain[:2] == [FrameRange(0, TOP), FrameRange(2 * TOP, 4 * TOP)]


# ----------------------------------------------------------------------
# Lower-order takes: one-block lists, whole-list batches, splits
# ----------------------------------------------------------------------


def _lower_lists(buddy):
    return [sorted(blocks) for blocks in buddy._free_lists]


def test_one_block_list_is_taken_whole():
    buddy = BuddyAllocator(0, 2 * TOP)
    buddy.allocate_block(3)  # splits top block 0: one free block per order
    assert _lower_lists(buddy)[3] == [8]
    assert buddy.allocate_pages(8) == [FrameRange(8, 8)]
    assert _lower_lists(buddy)[3] == []
    assert not buddy.is_free(8) and not buddy.is_free(15)
    assert buddy.free_frames == 2 * TOP - 16
    buddy.check_invariants()


def test_lowest_block_of_a_longer_list_is_taken():
    buddy = BuddyAllocator(0, 16, max_order=3)
    blocks = [buddy.allocate_block(0) for _ in range(16)]
    for frame in (13, 5, 9):  # no two of them buddies
        buddy.free_range(blocks[frame])
    assert buddy.allocate_pages(1) == [FrameRange(5, 1)]
    assert _lower_lists(buddy)[0] == [9, 13]
    buddy.check_invariants()


def test_request_covering_a_whole_list_takes_it_in_order():
    buddy = BuddyAllocator(0, 16, max_order=3)
    blocks = [buddy.allocate_block(0) for _ in range(16)]
    for frame in (13, 5, 9):
        buddy.free_range(blocks[frame])
    # Nothing of order 1 is free, so all three order-0 blocks go in one
    # batch, lowest first.
    assert buddy.allocate_pages(3) == [
        FrameRange(5, 1), FrameRange(9, 1), FrameRange(13, 1),
    ]
    assert _lower_lists(buddy) == [[], [], []]
    assert buddy.free_frames == 0
    buddy.check_invariants()


def test_request_covering_part_of_a_list_takes_its_lowest_blocks():
    buddy = BuddyAllocator(0, 16, max_order=3)
    blocks = [buddy.allocate_block(0) for _ in range(16)]
    for frame in (13, 5, 9):
        buddy.free_range(blocks[frame])
    assert buddy.allocate_pages(2) == [FrameRange(5, 1), FrameRange(9, 1)]
    assert _lower_lists(buddy)[0] == [13]
    buddy.check_invariants()


def test_split_from_a_one_block_list():
    buddy = BuddyAllocator(0, 2 * TOP)
    buddy.allocate_block(9)  # leaves [512, 1024) as the one order-9 block
    assert _lower_lists(buddy)[9] == [512]
    assert buddy.allocate_pages(1) == [FrameRange(512, 1)]
    lists = _lower_lists(buddy)
    assert lists[9] == []
    # The split freed the upper half at every order below 9.
    assert lists[:9] == [[512 + (1 << order)] for order in range(9)]
    buddy.check_invariants()


def test_sanitized_buddy_grants_what_a_plain_one_grants():
    """Every take goes through the sanitizer's allocate_block wrapper,
    one block per call, yet a fragmented request mix gets the same
    ranges, in the same order, as from an unwrapped allocator."""
    rng = random.Random(5)
    program = [
        (rng.choice(("alloc", "alloc", "free", "fragment")),
         rng.randrange(1, 3 * TOP))
        for _ in range(300)
    ]
    outcomes = []
    for sanitize in (False, True):
        buddy = BuddyAllocator(0, 8 * TOP + 300)
        sanitizer = FrameSanitizer()
        if sanitize:
            sanitizer.attach_buddy(buddy, owner="zone0")
        held = []
        trace = []
        for op, count in program:
            if op == "alloc":
                if count > buddy.free_frames:
                    continue
                grant = buddy.allocate_pages(count)
                trace.append(grant)
                held.extend(grant)
            elif held:
                block = held.pop(count % len(held))
                if op == "fragment" and block.count > 1:
                    block, tail = block.split(1 + count % (block.count - 1))
                    held.append(tail)
                buddy.free_range(block)
        buddy.check_invariants()
        assert not sanitizer.reports
        assert (sanitizer.events > 0) == sanitize
        outcomes.append((trace, buddy.free_frames, _lower_lists(buddy)))
    plain, sanitized = outcomes
    assert sanitized == plain
    # The mix reached lower-order list takes and splits, not only runs.
    assert sum(len(grant) for grant in plain[0]) > 3 * len(plain[0])


def _resident_mib() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)
def test_frame_map_costs_only_allocated_frames():
    """The frame map is faulted in page by page as frames are first
    allocated: a 64 GiB span (16 MiB of map) costs nothing to build and
    about one byte per allocated frame."""
    gc.collect()
    before = _resident_mib()
    buddy = BuddyAllocator(0, 1 << 24)
    built = _resident_mib()
    assert built - before < 1.0
    # 1 << 20 frames, block by block: a run-sized temporary left on the
    # malloc heap would otherwise add to the reading.
    blocks = [buddy.allocate_block(buddy.max_order) for _ in range(1 << 10)]
    assert 0.75 < _resident_mib() - built < 1.5
    assert sum(block.count for block in blocks) == 1 << 20
    buddy.close()
    buddy.close()
    with pytest.raises(ValueError):
        buddy.is_free(0)


def test_finished_runs_close_their_frame_maps(monkeypatch):
    """``run_experiment`` and Fig. 13's multi- and single-VM runs unmap
    every frame map they built once their results are taken."""
    built = []
    init = BuddyAllocator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(BuddyAllocator, "__init__", recording_init)
    run_experiment("redis", "hetero-lru", epochs=2)
    assert built and all(buddy._mask.closed for buddy in built)
    built.clear()
    run_fig13(epochs=2)
    assert built and all(buddy._mask.closed for buddy in built)


# ----------------------------------------------------------------------
# Which block serves a need: the smallest free order that holds it
# (Linux's __rmqueue_smallest), falling back only when none does
# ----------------------------------------------------------------------


def test_each_lower_need_is_one_block_while_a_top_block_is_free():
    """While a top-order block stays free, a grant of r pages lists its
    top-order runs, then one block per set bit of r mod 2**max_order,
    largest first, however earlier grants and frees left the lower
    lists."""
    buddy = BuddyAllocator(0, 64 * TOP)
    rng = random.Random(26)
    held = []
    for _ in range(60):
        pages = rng.randrange(1, 3 * TOP)
        grant = buddy.allocate_pages(pages)
        runs = [r.count for r in grant if r.count % TOP == 0]
        lower = [r.count for r in grant[len(runs):]]
        assert sum(runs) == pages - pages % TOP
        assert lower == [
            1 << order for order in range(9, -1, -1) if pages >> order & 1
        ]
        assert buddy._top_free
        held.append(grant)
        if rng.random() < 0.6:
            for block in held.pop(rng.randrange(len(held))):
                buddy.free_range(block)
    buddy.check_invariants()


def _state(buddy, free_spans):
    """A 4-top-block span with only ``free_spans`` free, each freed by
    hand from one grant of the whole span."""
    (whole,) = buddy.allocate_pages(buddy.total_frames)
    assert whole == FrameRange(0, buddy.total_frames)
    for start, count in free_spans:
        buddy.free_span(start, count)
    buddy.check_invariants()
    return buddy


def test_empty_need_list_splits_the_smallest_larger_block():
    """Order 1 is empty while two order-0 blocks, two order-2 blocks and
    a top block are free: a 2-page need splits the lower order-2 block,
    not the two single frames, nor the top block."""
    buddy = _state(BuddyAllocator(0, 32, max_order=3),
                   [(1, 1), (6, 1), (12, 4), (20, 4), (24, 8)])
    assert _lower_lists(buddy) == [[1, 6], [], [12, 20]]
    assert buddy.allocate_pages(2) == [FrameRange(12, 2)]
    assert _lower_lists(buddy) == [[1, 6], [14], [20]]
    assert buddy._top_free == 1
    buddy.check_invariants()


def test_nothing_large_enough_falls_back_to_the_largest_smaller_blocks():
    """With nothing of order >= 3 free, a 10-page need takes the two
    lowest order-2 blocks; the 2 pages left split the third rather than
    gathering the free single frame.  A request beyond the free frames
    then changes nothing."""
    buddy = _state(BuddyAllocator(0, 64, max_order=4),
                   [(4, 4), (12, 4), (20, 4), (25, 1)])
    assert _lower_lists(buddy) == [[25], [], [4, 12, 20], []]
    assert buddy.allocate_pages(10) == [
        FrameRange(4, 4), FrameRange(12, 4), FrameRange(20, 2),
    ]
    assert _lower_lists(buddy) == [[25], [22], [], []]
    before = (_free_state(buddy), _lower_lists(buddy))
    with pytest.raises(OutOfMemoryError):
        buddy.allocate_pages(buddy.free_frames + 1)
    assert (_free_state(buddy), _lower_lists(buddy)) == before
    buddy.check_invariants()


#: (lower-order blocks granted, ``_take_block`` splits) over 40 epochs
#: of each cell.  The counts come from integer logic alone, so they
#: repeat exactly on every Python version and hash seed; a change that
#: lowers them records the new counts here.
BLOCK_CENSUS = {
    ("graphchi", "heap-io-slab-od", 1 / 4): (701, 183),
    ("graphchi", "hetero-lru", 1 / 8): (1116, 77),
}


@pytest.mark.parametrize("app, policy_name, ratio", list(BLOCK_CENSUS))
def test_block_census_stays_within_its_committed_counts(
    monkeypatch, app, policy_name, ratio
):
    """A cost gate without timing: a change that scatters grants over
    more lower-order blocks, or splits more often, fails here."""
    counts = {"lower blocks": 0, "splits": 0}
    allocate_pages = BuddyAllocator.allocate_pages
    take_block = BuddyAllocator._take_block

    def counted_allocate_pages(self, pages):
        grant = allocate_pages(self, pages)
        top = 1 << self.max_order
        counts["lower blocks"] += sum(1 for r in grant if r.count < top)
        return grant

    def counted_take_block(self, order):
        if order < self.max_order and not self._free_lists[order]:
            counts["splits"] += 1
        return take_block(self, order)

    monkeypatch.setattr(BuddyAllocator, "allocate_pages",
                        counted_allocate_pages)
    monkeypatch.setattr(BuddyAllocator, "_take_block", counted_take_block)
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=ratio, unlimited_fast=policy.requires_unlimited_fast
    )
    run_experiment(app, policy, epochs=40, config=config)
    lower, splits = BLOCK_CENSUS[app, policy_name, ratio]
    assert counts["lower blocks"] <= lower, counts
    assert counts["splits"] <= splits, counts
    assert counts["lower blocks"] and counts["splits"]
