"""Reference guest structures: the differential oracle's other side.

The simulator ships one implementation of the guest's memory
mechanisms, tuned for speed: array-backed buddy zones
(:class:`~repro.guestos.buddy.BuddyAllocator`), memoised zone lookups
and batched frees (:class:`~repro.guestos.numa.MemoryNode`), running
LRU page counters (:class:`~repro.guestos.lru.SplitLru`), and flat
demand columns (:func:`repro.sim.fast.fast_memory_demands`).  This
module keeps the plain versions they must reproduce bit for bit:

* :class:`ReferenceBuddy` — a set-per-order allocator with one
  Python big integer as its free mask, picking and freeing one block
  at a time (its grants list a run of contiguous top-order blocks as
  one range, the shape the simulator grants);
* :class:`ReferenceNode` — zone eligibility rebuilt on every call and
  one ``free_range`` per freed range;
* :class:`ReferenceSplitLru` — active/inactive page counts summed over
  the lists on every read;
* :func:`reference_memory_demands` — per-(region, device) frozen
  ``DeviceDemand`` merges through ``LastLevelCache.apportion``.

:func:`reference_guest` swaps all four in by patching the names the
production code looks up when it builds a guest and steps an epoch, so
the same entry points (``run_experiment``, ``MultiVmSimulation``) run
either side; :func:`production_guest` only records which engines ran,
so both sides can be compared down to :func:`placement`, the frames
every extent holds.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.guestos.kernel
import repro.guestos.numa
import repro.guestos.zone
import repro.sim.fast
from repro.errors import AllocationError, OutOfMemoryError
from repro.guestos.lru import SplitLru
from repro.guestos.numa import MemoryNode
from repro.guestos.zone import zone_preference
from repro.hw.cache import RegionAccess
from repro.hw.timing import DeviceDemand
from repro.mem.frames import FrameRange
from repro.units import PAGE_SIZE

#: Largest block order, Linux's default as in the simulator's allocator
#: (blocks up to 2**10 pages); stated here so that the reference takes
#: nothing from the module it checks.
MAX_ORDER = 10


class ReferenceBuddy:
    """Classic binary buddy allocator with arbitrary-span frees: a
    big-integer free mask and a ``min(set)`` scan per block.

    A grant picks each block on its own, largest need first, by
    Linux's ``__rmqueue_smallest`` rule: the lowest block of the
    smallest free order that holds the need, split down to it; only
    when nothing that large is free, the lowest block of the largest
    smaller order.

    Parameters
    ----------
    base:
        First frame number of the managed span.
    frames:
        Span length in frames (any positive integer; a non-power-of-two
        tail is handled by seeding multiple maximal blocks).
    max_order:
        Largest block order.
    """

    def __init__(self, base: int, frames: int, max_order: int = MAX_ORDER) -> None:
        if frames <= 0:
            raise AllocationError("buddy span must contain at least one frame")
        if max_order < 0:
            raise AllocationError("max_order must be non-negative")
        self.base = base
        self.total_frames = frames
        self.max_order = max_order
        #: order -> set of free block start frames (absolute).
        self._free_lists: list[set[int]] = [set() for _ in range(max_order + 1)]
        self._free_frames = 0
        #: Bit i set == frame (base + i) is free.  Exact double-free guard.
        self._free_mask = 0
        self._insert_span(base, frames)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return self._free_frames

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self._free_frames

    def largest_free_order(self) -> int:
        """Largest order with a free block, or -1 when empty."""
        for order in range(self.max_order, -1, -1):
            if self._free_lists[order]:
                return order
        return -1

    def is_free(self, frame: int) -> bool:
        """Whether a single frame is currently free."""
        offset = frame - self.base
        if not 0 <= offset < self.total_frames:
            raise AllocationError(f"frame {frame} outside span")
        return bool((self._free_mask >> offset) & 1)

    def close(self) -> None:
        """Nothing to release: the free mask is an ordinary integer."""

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        """Allocate one block of exactly ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        source = order
        while source <= self.max_order and not self._free_lists[source]:
            source += 1
        if source > self.max_order:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        start = self._pick(self._free_lists[source])
        self._free_lists[source].discard(start)
        # Split down to the requested order, freeing the upper halves.
        while source > order:
            source -= 1
            buddy = start + (1 << source)
            self._free_lists[source].add(buddy)
        count = 1 << order
        self._free_frames -= count
        self._mask_clear(start, count)
        return FrameRange(start, count)

    def _pick(self, starts: set[int]) -> int:
        """The block a take hands out from a free list: the lowest."""
        return min(starts)

    def allocate_pages(self, pages: int) -> list[FrameRange]:
        """Allocate ``pages`` frames as buddy blocks (largest-first).

        Every block is picked on its own; the grant then lists each run
        of consecutive, contiguous top-order blocks as one range, the
        shape the simulator's allocator grants.  The kernel code both
        sides share splits a range by position, so the shapes must agree
        for the frames to.  On failure the partial allocation is rolled
        back and the allocator is unchanged.
        """
        if pages <= 0:
            raise AllocationError(f"page count must be positive: {pages}")
        if pages > self._free_frames:
            raise OutOfMemoryError(
                f"requested {pages} pages, only {self._free_frames} free"
            )
        granted: list[FrameRange] = []
        remaining = pages
        try:
            while remaining > 0:
                want = min(self.max_order, remaining.bit_length() - 1)
                # The need's own order, which allocate_block serves
                # from the smallest free order that holds it; only when
                # every free block is smaller, the largest free order.
                free_orders = [
                    order
                    for order, starts in enumerate(self._free_lists)
                    if starts
                ]
                order = want
                if free_orders and max(free_orders) < want:
                    order = max(free_orders)
                block = self.allocate_block(order)
                granted.append(block)
                remaining -= block.count
        except OutOfMemoryError:
            for block in granted:
                self.free_span(block.start, block.count)
            raise
        top = 1 << self.max_order
        shaped: list[FrameRange] = []
        for block in granted:
            if (
                block.count == top
                and shaped
                and shaped[-1].count % top == 0
                and shaped[-1].end == block.start
            ):
                shaped[-1] = FrameRange(shaped[-1].start,
                                        shaped[-1].count + top)
            else:
                shaped.append(block)
        return shaped

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free_span(self, start: int, count: int) -> None:
        """Free ``count`` frames at ``start``; every frame must currently
        be allocated.  Accepts fragments of original blocks; reinserts
        maximal aligned blocks and coalesces with free buddies."""
        if count <= 0:
            raise AllocationError("free count must be positive")
        offset = start - self.base
        if offset < 0 or offset + count > self.total_frames:
            raise AllocationError(
                f"span [{start}, {start + count}) outside allocator"
            )
        window = ((1 << count) - 1) << offset
        if self._free_mask & window:
            raise AllocationError(
                f"double free within span [{start}, {start + count})"
            )
        self._insert_span(start, count)

    def free_range(self, frame_range: FrameRange) -> None:
        """Convenience wrapper over :meth:`free_span`."""
        self.free_span(frame_range.start, frame_range.count)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert_span(self, start: int, count: int) -> None:
        """Insert a free span as maximal aligned blocks, coalescing up."""
        self._mask_set(start, count)
        self._free_frames += count
        cursor = start
        remaining = count
        while remaining > 0:
            offset = cursor - self.base
            align_order = (
                (offset & -offset).bit_length() - 1 if offset else self.max_order
            )
            size_order = remaining.bit_length() - 1
            order = min(self.max_order, align_order, size_order)
            self._coalesce_insert(cursor, order)
            cursor += 1 << order
            remaining -= 1 << order

    def _coalesce_insert(self, start: int, order: int) -> None:
        """Add a free block, merging with its buddy while possible."""
        while order < self.max_order:
            offset = start - self.base
            buddy = self.base + (offset ^ (1 << order))
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            start = min(start, buddy)
            order += 1
        self._free_lists[order].add(start)

    def _mask_set(self, start: int, count: int) -> None:
        self._free_mask |= ((1 << count) - 1) << (start - self.base)

    def _mask_clear(self, start: int, count: int) -> None:
        self._free_mask &= ~(((1 << count) - 1) << (start - self.base))

    def check_invariants(self) -> None:
        """Free lists must be aligned, disjoint, mask-consistent."""
        total_free = 0
        seen: list[tuple[int, int]] = []
        for order, starts in enumerate(self._free_lists):
            size = 1 << order
            for block_start in starts:
                if (block_start - self.base) % size != 0:
                    raise AllocationError(
                        f"misaligned free block at {block_start} order {order}"
                    )
                offset = block_start - self.base
                window = ((1 << size) - 1) << offset
                if (self._free_mask & window) != window:
                    raise AllocationError("free list and mask disagree")
                seen.append((block_start, block_start + size))
                total_free += size
        seen.sort()
        for (_, end_a), (start_b, _) in zip(seen, seen[1:]):
            if end_a > start_b:
                raise AllocationError("overlapping free blocks")
        if total_free != self._free_frames:
            raise AllocationError(
                f"free accounting mismatch: {total_free} != {self._free_frames}"
            )
        if bin(self._free_mask).count("1") != self._free_frames:
            raise AllocationError("mask population does not match free count")


class ReferenceNode(MemoryNode):
    """:class:`MemoryNode` with the unmemoised zone walk and per-range
    frees."""

    def zones_for(self, page_type):
        """Zones eligible to serve ``page_type``, in preference order."""
        preference = zone_preference(page_type)
        by_kind = {zone.kind: zone for zone in self.zones}
        return [by_kind[kind] for kind in preference if kind in by_kind]

    def free_ranges(self, ranges: list[FrameRange]) -> None:
        """Return frame ranges to whichever zone owns them."""
        for frame_range in ranges:
            zone = self._zone_owning(frame_range.start)
            zone.buddy.free_range(frame_range)


class ReferenceSplitLru(SplitLru):
    """:class:`SplitLru` whose page counts are summed over the lists on
    every read instead of kept as running counters."""

    @property
    def active_pages(self) -> int:
        return sum(e.pages for e in self._active.values())

    @property
    def inactive_pages(self) -> int:
        return sum(e.pages for e in self._inactive.values())


def reference_memory_demands(engine, demand):
    """Per-device demand and LLC misses through ``LastLevelCache.apportion``
    and a chain of frozen ``DeviceDemand`` merges."""
    kernel = engine.kernel
    region_accesses: list[RegionAccess] = []
    placements = {}
    for region_id, (reads, writes) in demand.accesses.items():
        if not kernel.has_region(region_id):
            continue
        spec = engine.region_specs.get(region_id)
        if spec is None:
            continue
        extents = kernel.region_extents(region_id)
        pages = sum(extent.pages for extent in extents)
        if pages == 0:
            continue
        region_accesses.append(
            RegionAccess(
                region_id=region_id,
                footprint_bytes=pages * PAGE_SIZE,
                reads=reads,
                writes=writes,
                reuse=spec.reuse,
                bytes_per_miss=spec.bytes_per_miss,
            )
        )
        fractions = {}
        for extent in extents:
            device = (
                engine._slowest_device
                if extent.swapped
                else kernel.nodes[extent.node_id].device
            )
            fractions[device] = fractions.get(device, 0.0) + (
                extent.pages / pages
            )
        placements[region_id] = fractions

    demands = {}
    llc_misses = 0.0
    for misses in engine.cache.apportion(region_accesses):
        llc_misses += misses.misses
        for device, fraction in placements[misses.region_id].items():
            addition = DeviceDemand(
                read_misses=misses.read_misses * fraction,
                write_misses=misses.write_misses * fraction,
                traffic_bytes=misses.traffic_bytes * fraction,
            )
            current = demands.get(device)
            demands[device] = (
                addition if current is None else current.merged(addition)
            )
            # Endurance accounting: dirty-line writebacks are the
            # device's wear (2x per write miss: fill + writeback).
            engine.wear.record(
                device,
                misses.write_misses
                * fraction
                * misses.bytes_per_miss
                * 2.0,
            )
    return demands, llc_misses


class GuestLog:
    """The engines stepped inside :func:`reference_guest` or
    :func:`production_guest`, in first-step order."""

    def __init__(self) -> None:
        self.engines: list = []

    def record(self, engine) -> None:
        if not any(seen is engine for seen in self.engines):
            self.engines.append(engine)

    def assert_reference(self, engine, buddy=ReferenceBuddy) -> None:
        """``engine`` was stepped by the reference demand accounting and
        its guest was built from reference zones (``buddy`` allocators),
        nodes and LRUs."""
        assert any(seen is engine for seen in self.engines), (
            "engine never reached the reference demand accounting"
        )
        kernel = engine.kernel
        assert kernel.nodes and kernel.lru
        for node in kernel.nodes.values():
            assert type(node) is ReferenceNode, type(node)
            assert node.zones
            for zone in node.zones:
                assert type(zone.buddy) is buddy, type(zone.buddy)
        for lru in kernel.lru.values():
            assert type(lru) is ReferenceSplitLru, type(lru)


def placement(engine) -> dict:
    """The guest's final frame-level state: every region's extents as
    ``(node, swapped, pages, frames)`` in region order, and every zone's
    free-page count and largest free order.  ``RunResult`` only sees
    page counts per device, so two allocators that hand out different
    frames can agree on it; they cannot agree on this."""
    kernel = engine.kernel
    return {
        "regions": {
            region_id: [
                (extent.node_id, extent.swapped, extent.pages,
                 [(r.start, r.count) for r in extent.frames])
                for extent in kernel.region_extents(region_id)
            ]
            for region_id in kernel.regions
        },
        "zones": [
            (node_id, zone.kind.value, zone.free_pages,
             zone.buddy.largest_free_order())
            for node_id, node in kernel.nodes.items()
            for zone in node.zones
        ],
    }


@contextmanager
def _recording(compute, structures=()):
    """Patch the engine's demand call to record each engine and then run
    ``compute``; also patch each ``(module, name, value)`` in
    ``structures`` for the duration of the block."""
    log = GuestLog()

    def demands(engine, demand):
        log.record(engine)
        return compute(engine, demand)

    patches = ((repro.sim.fast, "fast_memory_demands", demands), *structures)
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield log
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def reference_guest(buddy=ReferenceBuddy):
    """Build and step every guest inside the block from the reference
    structures, with ``buddy`` (:class:`ReferenceBuddy` or a subclass)
    as every zone's allocator; yields a :class:`GuestLog` of the
    engines served."""
    return _recording(
        reference_memory_demands,
        (
            (repro.guestos.zone, "BuddyAllocator", buddy),
            (repro.guestos.numa, "MemoryNode", ReferenceNode),
            (repro.guestos.kernel, "SplitLru", ReferenceSplitLru),
        ),
    )


def production_guest():
    """Record the engines stepped inside the block, changing nothing
    else; yields a :class:`GuestLog`."""
    return _recording(repro.sim.fast.fast_memory_demands)
