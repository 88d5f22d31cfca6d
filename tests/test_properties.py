"""Property-based tests (hypothesis) on core data structures and
invariants: allocators never lose or duplicate frames, cost models stay
monotone, fairness maths stays in range."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_guest import ReferenceBuddy, ReferenceNode, reference_guest

from repro.errors import ReproError
from repro.guestos.buddy import MAX_ORDER, BuddyAllocator
from repro.guestos.lru import SplitLru
from repro.guestos.numa import NodeTier, build_node
from repro.guestos.zone import ZoneKind
from repro.hw.cache import CacheConfig, LastLevelCache, RegionAccess
from repro.hw.memdevice import NVM_PCM
from repro.hw.throttle import ThrottleConfig, throttled_device
from repro.core.coordinated import next_interval_ms
from repro.mem.extent import PageExtent, PageType
from repro.mem.frames import FramePool, FrameRange, unchecked
from repro.units import MIB, PAGE_SIZE
from repro.vmm.migration import MigrationCostModel


# ----------------------------------------------------------------------
# Buddy allocator: conservation + invariants under arbitrary programs
# ----------------------------------------------------------------------

def _outcome(call):
    """``("ok", value)`` or ``("raised", type, message)`` of ``call()``."""
    try:
        return ("ok", call())
    except ReproError as exc:
        return ("raised", type(exc), str(exc))


@st.composite
def _buddy_programs(draw):
    """A span and a program over it; request sizes reach the whole span,
    so programs ask for top-order blocks directly and in runs."""
    span = draw(st.integers(min_value=1, max_value=2048))
    program = draw(st.lists(
        st.tuples(
            st.sampled_from(
                ["alloc", "free", "fragment", "release", "double", "outside"]
            ),
            st.integers(min_value=1, max_value=span),
        ),
        max_size=40,
    ))
    return span, program


@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=64),
    max_order=st.integers(min_value=0, max_value=4),
    case=_buddy_programs(),
)
# Two free blocks of one order: which one is handed out must match.
@example(base=0, max_order=MAX_ORDER,
         case=(2048, [("alloc", 1), ("alloc", 512)]))
# A top-order request whose lowest free blocks are split by an
# allocated one: the run must stop at the allocated block.
@example(base=0, max_order=2, case=(64, [
    ("alloc", 12), ("alloc", 4), ("alloc", 8), ("release", 1), ("alloc", 16),
]))
# Grants holding runs of several top blocks: fragments whose head is a
# stretch of whole top blocks plus a lower tail, runs freed whole
# through the batch and through free_span, and a grant whose runs are
# split by a fragment's tail still held.
@example(base=0, max_order=2, case=(42, [
    ("alloc", 41), ("free", 1), ("fragment", 10), ("release", 0),
    ("alloc", 16), ("alloc", 20), ("release", 0), ("free", 1),
]))
@example(base=5, max_order=2, case=(64, [
    ("alloc", 12), ("fragment", 5), ("alloc", 20), ("release", 1),
    ("free", 1), ("alloc", 30), ("free", 0), ("fragment", 8), ("release", 0),
]))
# Lower-order takes: a one-block list popped, the lowest of a longer
# list, a whole list taken in one batch, and a split whose source list
# holds one block.
@example(base=0, max_order=3, case=(16, [
    ("alloc", 1), ("alloc", 1), ("alloc", 1), ("alloc", 1), ("free", 1),
    ("release", 1), ("alloc", 1), ("free", 1), ("alloc", 2),
]))
# Part of a three-block list taken in one batch, lowest blocks first.
@example(base=0, max_order=3, case=(32, [("alloc", 1)] * 16 + [
    ("release", 1), ("release", 4), ("release", 7), ("alloc", 2),
    ("alloc", 1),
]))
# A split whose source list holds two blocks: the lower one splits.
@example(base=0, max_order=3, case=(32, [("alloc", 2)] * 8 + [
    ("release", 1), ("release", 2), ("alloc", 1),
]))
def test_buddy_conserves_frames(base, max_order, case):
    """The array-backed allocator and the reference allocator run the
    same program in lockstep: same grants, same exceptions, same free
    accounting after every op; frames are conserved throughout."""
    span, program = case
    buddy = BuddyAllocator(base, span, max_order)
    reference = ReferenceBuddy(base, span, max_order)
    #: Live grants, oldest first: each the still-allocated ranges of one
    #: allocate_pages call.
    live: list = []

    def free_both(block):
        got = _outcome(lambda: buddy.free_span(block.start, block.count))
        want = _outcome(lambda: reference.free_span(block.start, block.count))
        assert got == want == ("ok", None)

    for op, count in program:
        if op == "alloc":
            got = _outcome(lambda: buddy.allocate_pages(count))
            want = _outcome(lambda: reference.allocate_pages(count))
            assert got == want
            if got[0] == "ok":
                live.append(got[1])
        elif op == "free" and live:
            grant = live[-1]
            free_both(grant.pop())
            if not grant:
                live.pop()
        elif op == "fragment" and live and live[-1][-1].count > 1:
            # Free the head of a block and keep its tail (per-CPU splits).
            grant = live[-1]
            block = grant.pop()
            head, tail = block.split(1 + count % (block.count - 1))
            grant.append(tail)
            free_both(head)
        elif op == "release" and live:
            # A whole grant, often from the middle, through the batched
            # free a NUMA node uses.
            grant = live.pop(count % len(live))
            assert buddy._free_spans(grant, 0) == len(grant)
            for block in grant:
                reference.free_span(block.start, block.count)
        elif op == "double":
            frame = base + count % span
            if buddy.is_free(frame):
                got = _outcome(lambda: buddy.free_span(frame, 1))
                want = _outcome(lambda: reference.free_span(frame, 1))
                assert got == want and got[0] == "raised"
        elif op == "outside":
            frame = base + span + count - 1
            got = _outcome(lambda: buddy.free_span(frame, 1))
            want = _outcome(lambda: reference.free_span(frame, 1))
            assert got == want and got[0] == "raised"
        assert buddy.free_frames == reference.free_frames
        assert buddy.largest_free_order() == reference.largest_free_order()
        buddy.check_invariants()
    held = sum(block.count for grant in live for block in grant)
    assert buddy.free_frames + held == span
    frames = range(base, base + span)
    assert [buddy.is_free(f) for f in frames] == [
        reference.is_free(f) for f in frames
    ]
    buddy.check_invariants()
    reference.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                    max_size=20),
)
def test_buddy_allocations_never_overlap(counts):
    buddy = BuddyAllocator(0, 4096)
    seen: set[int] = set()
    for count in counts:
        if count > buddy.free_frames:
            break
        for block in buddy.allocate_pages(count):
            frames = set(range(block.start, block.end))
            assert not frames & seen
            seen |= frames


# ----------------------------------------------------------------------
# Frame pool
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    program=st.lists(st.integers(min_value=1, max_value=128), max_size=30),
)
def test_frame_pool_scattered_roundtrip(program):
    pool = FramePool(0, 2048)
    live = []
    for count in program:
        if count <= pool.free_frames:
            live.append(pool.allocate_scattered(count))
    for ranges in live:
        for frame_range in ranges:
            pool.free(frame_range)
    assert pool.free_frames == 2048
    pool.check_invariants()


# ----------------------------------------------------------------------
# Cache model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    footprints=st.lists(
        st.integers(min_value=1, max_value=256), min_size=1, max_size=8
    ),
    reuse=st.floats(min_value=0.0, max_value=1.0),
    accesses=st.floats(min_value=0.0, max_value=1e6),
)
def test_cache_misses_bounded_by_accesses(footprints, reuse, accesses):
    cache = LastLevelCache(CacheConfig(capacity_bytes=32 * MIB))
    regions = [
        RegionAccess(f"r{i}", mib * MIB, accesses, 0.0, reuse)
        for i, mib in enumerate(footprints)
    ]
    for result in cache.apportion(regions):
        assert -1e-6 <= result.read_misses <= accesses + 1e-6
        assert 0.0 <= result.cached_fraction <= 1.0


@settings(max_examples=40, deadline=None)
@given(capacity_mib=st.integers(min_value=1, max_value=256))
def test_cache_bigger_is_never_worse(capacity_mib):
    small = LastLevelCache(CacheConfig(capacity_bytes=capacity_mib * MIB))
    big = LastLevelCache(CacheConfig(capacity_bytes=2 * capacity_mib * MIB))
    regions = [
        RegionAccess("a", 64 * MIB, 1000, 200, 0.8),
        RegionAccess("b", 16 * MIB, 5000, 100, 0.9),
    ]
    small_misses = sum(r.misses for r in small.apportion(regions))
    big_misses = sum(r.misses for r in big.apportion(regions))
    assert big_misses <= small_misses + 1e-6


# ----------------------------------------------------------------------
# Throttle model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    latency_factor=st.floats(min_value=1.0, max_value=10.0),
    bandwidth_factor=st.floats(min_value=1.0, max_value=20.0),
)
def test_throttled_device_never_faster_than_base(latency_factor, bandwidth_factor):
    device = throttled_device(ThrottleConfig(latency_factor, bandwidth_factor))
    assert device.load_latency_ns >= 60.0 - 1e-9
    assert device.bandwidth_gbps <= 24.0 + 1e-9


# ----------------------------------------------------------------------
# Migration cost model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    small=st.integers(min_value=1, max_value=10**6),
    larger=st.integers(min_value=1, max_value=10**6),
)
def test_migration_costs_monotone_in_batch(small, larger):
    small, larger = sorted((small, larger))
    model = MigrationCostModel()
    move_s, walk_s = model.per_page_costs(small)
    move_l, walk_l = model.per_page_costs(larger)
    assert move_l <= move_s + 1e-9
    assert walk_l <= walk_s + 1e-9


# ----------------------------------------------------------------------
# Equation 1
# ----------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(
    interval=st.floats(min_value=50.0, max_value=1000.0),
    delta=st.floats(min_value=-100.0, max_value=100.0),
)
def test_eq1_always_in_clamp_range(interval, delta):
    updated = next_interval_ms(interval, delta)
    assert 50.0 <= updated <= 1000.0
    # Direction: rising misses never lengthen, falling never shorten.
    if delta > 0:
        assert updated <= interval + 1e-9
    elif delta < 0:
        assert updated >= interval - 1e-9


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "access", "deactivate", "remove", "scan", "resize"]
            ),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=60,
    ),
)
# Every counter transition once: demote, resize while inactive,
# promote, resize while active, scan-demote, remove.
@example(ops=[("insert", 1), ("deactivate", 1), ("resize", 1), ("access", 1),
              ("resize", 1), ("scan", 9), ("remove", 1)])
def test_lru_page_accounting_consistent(ops):
    """The running page counters equal their lists' extent sums after
    every op, including scans and in-place resizes (extent splits)."""
    lru = SplitLru(node_id=0)
    extents: dict[int, PageExtent] = {}
    for op, key in ops:
        extent = extents.get(key)
        if op == "insert" and extent is None:
            extent = PageExtent(f"r{key}", PageType.HEAP, 10 + key, 0)
            extents[key] = extent
            lru.insert(extent)
        elif op == "scan":
            lru.scan(current_epoch=key)
        elif extent is not None and lru.contains(extent):
            if op == "access":
                extent.last_access_epoch = key
                lru.record_access(extent)
            elif op == "deactivate":
                lru.deactivate(extent)
            elif op == "remove":
                lru.remove(extent)
                del extents[key]
            elif op == "resize" and extent.pages > 1:
                # What GuestKernel.split_extent does: shrink in place,
                # then report the delta.
                delta = -(extent.pages // 2)
                extent.pages += delta
                lru.note_resized(extent, delta)
        assert lru.active_pages == sum(e.pages for e in lru.active_extents)
        assert lru.inactive_pages == sum(
            e.pages for e in lru.inactive_extents
        )
    live_pages = sum(e.pages for e in extents.values())
    assert lru.active_pages + lru.inactive_pages == live_pages


# ----------------------------------------------------------------------
# NUMA node: batched frees across a SlowMem node's two zones and within
# a FastMem node's one
# ----------------------------------------------------------------------

_FREE_FAULTS = ("none", "double", "foreign", "zero", "zero-foreign")
_NODE_BASE = 64


#: The zones build_node gives each drawn tier.
_NODE_ZONES = {
    NodeTier.SLOW: [ZoneKind.DMA, ZoneKind.NORMAL],
    NodeTier.FAST: [ZoneKind.UNIFIED],
}


def _node(tier, pages):
    device = NVM_PCM.with_capacity(pages * PAGE_SIZE)
    return build_node(1, tier, device, base_frame=_NODE_BASE)


def _zone_state(node):
    return [
        (zone.kind, zone.free_pages, zone.buddy.largest_free_order(),
         [zone.buddy.is_free(frame) for frame in
          range(zone.buddy.base, zone.buddy.base + zone.total_pages)])
        for zone in node.zones
    ]


# Two tiers share the draws: 120 keeps about 60 for each.
@settings(max_examples=120, deadline=None)
@given(
    tier=st.sampled_from(list(_NODE_ZONES)),
    pages=st.integers(min_value=32, max_value=1024),
    program=st.lists(
        st.one_of(
            st.tuples(
                st.just("alloc"),
                st.sampled_from([PageType.DMA, PageType.HEAP]),
                st.integers(min_value=1, max_value=48),
            ),
            st.tuples(
                st.just("free"),
                st.lists(st.integers(min_value=0, max_value=63), max_size=8),
                st.sampled_from(_FREE_FAULTS),
                st.integers(min_value=0, max_value=8),
            ),
        ),
        max_size=16,
    ),
)
# DMA, NORMAL, DMA in one batch: the free leaves a zone and comes back.
@example(tier=NodeTier.SLOW, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "none", 0)])
@example(tier=NodeTier.SLOW, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "double", 2)])
@example(tier=NodeTier.SLOW, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "foreign", 2)])
@example(tier=NodeTier.SLOW, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "zero", 1)])
@example(tier=NodeTier.SLOW, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "zero-foreign", 1)])
# The same batches on a FastMem node's one zone, which takes each
# batch whole.
@example(tier=NodeTier.FAST, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "none", 0)])
@example(tier=NodeTier.FAST, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "double", 2)])
@example(tier=NodeTier.FAST, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "foreign", 2)])
@example(tier=NodeTier.FAST, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "zero", 1)])
@example(tier=NodeTier.FAST, pages=256, program=[
    ("alloc", PageType.DMA, 4), ("alloc", PageType.HEAP, 8),
    ("alloc", PageType.DMA, 2), ("free", [0, 0, 0], "zero-foreign", 1)])
def test_node_free_ranges_matches_reference_across_zones(tier, pages, program):
    """``MemoryNode.free_ranges`` and the reference node's per-range
    frees run the same batches in lockstep on a two-zone SlowMem node
    or a one-zone FastMem node: same exception type and message at the
    same point, and the same per-zone free count, largest free order
    and free map after every call.  Batches interleave the zones'
    ranges and fragments, and may carry a mid-batch double free, a
    foreign frame or a zero-count range."""
    node = _node(tier, pages)
    with reference_guest():
        reference = _node(tier, pages)
    assert type(reference) is ReferenceNode
    assert all(type(zone.buddy) is ReferenceBuddy for zone in reference.zones)
    assert [zone.kind for zone in node.zones] == _NODE_ZONES[tier]
    end = _NODE_BASE + pages
    held: list = []
    for op, *args in program:
        if op == "alloc":
            page_type, count = args
            got = _outcome(lambda: node.allocate_pages(count, page_type))
            want = _outcome(lambda: reference.allocate_pages(count, page_type))
            assert got == want
            if got[0] == "ok":
                held.extend(got[1])
            continue
        picks, fault, at = args
        batch = []
        for pick in picks:
            if not held:
                break
            frame_range = held.pop(pick % len(held))
            if pick % 2 and frame_range.count > 1:
                # Free the head and keep the tail (per-CPU splits).
                frame_range, tail = frame_range.split(
                    1 + pick % (frame_range.count - 1))
                held.append(tail)
            batch.append(frame_range)
        at = min(at, len(batch))
        if fault == "double" and at > 0:
            batch.insert(at, batch[at - 1])
        elif fault == "foreign":
            batch.insert(at, FrameRange(end + at, 1))
        elif fault == "zero":
            start = batch[at - 1].start if at > 0 else _NODE_BASE
            batch.insert(at, unchecked((start, 0)))
        elif fault == "zero-foreign":
            # Ownership is checked first: a foreign frame, not a bad count.
            batch.insert(at, unchecked((end + at, 0)))
        else:
            at = len(batch)
        got = _outcome(lambda: node.free_ranges(batch))
        want = _outcome(lambda: reference.free_ranges(batch))
        assert got == want
        assert (got[0] == "raised") == (at < len(batch))
        # Everything before the fault was freed; nothing after it was.
        held.extend(batch[at + 1:])
        assert _zone_state(node) == _zone_state(reference)
    for zone in node.zones + reference.zones:
        zone.buddy.check_invariants()
