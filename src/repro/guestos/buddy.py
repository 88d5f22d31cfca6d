"""Binary buddy allocator over a frame span.

The Linux page allocator HeteroOS extends.  Blocks are power-of-two sized
and naturally aligned relative to the span base; freeing coalesces with
the buddy block recursively.

Two entry points matter to callers:

* :meth:`allocate_pages` — decompose an arbitrary page count into buddy
  blocks, falling back to smaller orders under fragmentation and rolling
  back cleanly when the request cannot be satisfied.
* :meth:`free_span` — return *any* previously-allocated range, including
  fragments produced by the per-CPU free lists.  A byte-per-frame free
  map makes double frees and frees of never-allocated frames hard
  errors.

The allocator is the simulator's hottest structure, so its state is
kept in flat arrays: the free map is a ``bytearray`` (slice writes and
``bytearray.find`` probes run in C), and each order's free set has a
companion min-heap with lazy deletion, so taking the lowest free block
costs O(log n) instead of a ``min(set)`` rescan.  Blocks are handed out
lowest-start-first; the differential oracle in ``tests/`` pins every
allocation against a plain set-and-bitmask reference allocator.
"""

from __future__ import annotations

import heapq

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.frames import FrameRange

MAX_ORDER = 10  # Linux's default: blocks up to 2^10 = 1024 pages (4 MiB).

# Hot-loop aliases: module-level bindings skip the attribute lookups
# that dominate at ~100ns-per-operation scale.
_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify
_unchecked = FrameRange.unchecked
#: Pre-built zero/one runs for clearing or setting one buddy block per
#: order, sparing a fresh ``bytes`` temporary per operation.
_ZERO_RUN = tuple(bytes(1 << order) for order in range(MAX_ORDER + 1))
_ONE_RUN = tuple(b"\x01" * (1 << order) for order in range(MAX_ORDER + 1))


class BuddyAllocator:
    """Classic binary buddy allocator with arbitrary-span frees.

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
        #: Per-order min-heaps shadowing ``_free_lists``.  Entries are
        #: deleted lazily: the heap top is popped past starts no longer
        #: in the live set before use.
        self._heaps: list[list[int]] = [[] for _ in range(max_order + 1)]
        #: Byte i is 1 iff frame ``base + i`` is free.  Exact double-free
        #: guard.  The whole span starts free, so the map is built filled.
        self._mask = bytearray(b"\x01") * frames
        self._free_frames = frames
        # The whole span starts free.  Max-order blocks never coalesce,
        # so all of them up to the non-power-of-two tail are seeded in
        # one step (an ascending list is already a valid heap; the set
        # is filled from it so both hold the same int objects); only the
        # tail goes through the block-at-a-time insert.
        bulk = frames >> max_order << max_order
        heap = self._heaps[max_order]
        heap.extend(range(base, base + bulk, 1 << max_order))
        self._free_lists[max_order].update(heap)
        if bulk < frames:
            self._insert_blocks(base + bulk, frames - bulk)

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
        return bool(self._mask[offset])

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        """Allocate one block of exactly ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        return self._take_block(order)

    def _live_heap(self, order: int) -> list[int]:
        """The order's heap, compacted when lazy deletion has let dead
        entries (buddies coalesced away without ever reaching the top)
        outnumber the live set.  Keeps heap size — and so push/pop cost
        and memory — proportional to the live free list on arbitrarily
        long runs."""
        heap = self._heaps[order]
        live = self._free_lists[order]
        if len(heap) > (len(live) << 2) + 8:
            heap[:] = live
            _heapify(heap)
        return heap

    def _take_block(self, order: int) -> FrameRange:
        """Take the lowest free block of ``order``, splitting the lowest
        block of the smallest larger order when none is free."""
        lists = self._free_lists
        live = lists[order]
        if live:
            # Exact-order hit: no upward search, no split-down.
            heap = self._live_heap(order)
            while heap[0] not in live:
                _heappop(heap)
            start = _heappop(heap)
            live.discard(start)
            count = 1 << order
            self._free_frames -= count
            offset = start - self.base
            self._mask[offset:offset + count] = (
                _ZERO_RUN[order] if order <= MAX_ORDER else bytes(count)
            )
            return _unchecked(start, count)
        source = order
        max_order = self.max_order
        while source <= max_order and not lists[source]:
            source += 1
        if source > max_order:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        heap, live = self._live_heap(source), lists[source]
        while heap[0] not in live:
            _heappop(heap)
        start = _heappop(heap)
        live.discard(start)
        # Split down to the requested order, freeing the upper halves.
        heaps = self._heaps
        while source > order:
            source -= 1
            buddy = start + (1 << source)
            lists[source].add(buddy)
            _heappush(heaps[source], buddy)
        count = 1 << order
        self._free_frames -= count
        offset = start - self.base
        self._mask[offset:offset + count] = (
            _ZERO_RUN[order] if order <= MAX_ORDER else bytes(count)
        )
        return _unchecked(start, count)

    def allocate_pages(self, pages: int) -> list[FrameRange]:
        """Allocate ``pages`` frames as buddy blocks (largest-first).

        Falls back to smaller orders under fragmentation; on failure the
        partial allocation is rolled back and the allocator is unchanged.
        """
        if pages <= 0:
            raise AllocationError(f"page count must be positive: {pages}")
        if pages > self._free_frames:
            raise OutOfMemoryError(
                f"requested {pages} pages, only {self._free_frames} free"
            )
        granted: list[FrameRange] = []
        append = granted.append
        remaining = pages
        lists = self._free_lists
        max_order = self.max_order
        # The frame sanitizer intercepts allocation by installing a
        # per-instance allocate_block wrapper; honour it when present,
        # otherwise go straight to the implementation (the wrapper's
        # range check is vacuous for internally computed orders).
        wrapper = self.__dict__.get("allocate_block")
        take = wrapper if wrapper is not None else self._take_block
        mask = self._mask
        base = self.base
        try:
            while remaining > 0:
                want_order = min(max_order, remaining.bit_length() - 1)
                order = want_order
                # Prefer the largest available order not exceeding the
                # need; when fragmentation leaves nothing small, split a
                # larger block (_take_block handles the split).
                while order >= 0 and not lists[order]:
                    order -= 1
                if order < 0:
                    order = want_order
                live = lists[order]
                if wrapper is None and live:
                    # Same-order hit, inlined (the dominant case: a
                    # large request peels off order-max blocks).  Pop as
                    # many blocks of this order as the request and the
                    # live set allow in one batch: between same-order
                    # takes nothing is freed and no split-down runs, so
                    # higher lists stay as they are and a block-at-a-time
                    # loop would pick this same order every time while
                    # remaining >= 1 << order.
                    heap = self._live_heap(order)
                    count = 1 << order
                    batch = remaining >> order
                    if batch > len(live):
                        batch = len(live)
                    # Blocks pop in ascending start order and are often
                    # contiguous (a freshly coalesced region re-split),
                    # so adjacent mask clears merge into one run.
                    run_offset = -1
                    run_length = 0
                    for _ in range(batch):
                        while heap[0] not in live:
                            _heappop(heap)
                        start = _heappop(heap)
                        live.discard(start)
                        offset = start - base
                        if offset == run_offset + run_length:
                            run_length += count
                        else:
                            if run_length:
                                mask[run_offset:run_offset + run_length] = (
                                    _ZERO_RUN[order]
                                    if run_length == count and order <= MAX_ORDER
                                    else bytes(run_length)
                                )
                            run_offset = offset
                            run_length = count
                        append(_unchecked(start, count))
                    if run_length:
                        mask[run_offset:run_offset + run_length] = (
                            _ZERO_RUN[order]
                            if run_length == count and order <= MAX_ORDER
                            else bytes(run_length)
                        )
                    taken = batch * count
                    self._free_frames -= taken
                    remaining -= taken
                else:
                    block = take(order)
                    append(block)
                    remaining -= block.count
        except OutOfMemoryError:
            for block in granted:
                self.free_span(block.start, block.count)
            raise
        return granted

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
        if self._mask.find(1, offset, offset + count) != -1:
            raise AllocationError(
                f"double free within span [{start}, {start + count})"
            )
        self._insert_span(start, count)

    def free_range(self, frame_range: FrameRange) -> None:
        """Convenience wrapper over :meth:`free_span`."""
        self.free_span(frame_range.start, frame_range.count)

    def _free_spans(self, ranges: list[FrameRange], first: int) -> int:
        """Sequential ``free_span`` over ``ranges[first:]``, stopping at
        the first range that starts outside the span; returns that
        range's index (``len(ranges)`` when every range was freed).

        The per-range validation and the dominant single-aligned-block
        insert are inlined (identical state transitions and identical
        error points; the general shape falls through to
        :meth:`_insert_span`).  Stopping rather than raising at a
        foreign start lets a NUMA node hand the rest of the batch to the
        zone that owns it, or raise its own foreign-frame error."""
        base = self.base
        total = self.total_frames
        mask = self._mask
        lists = self._free_lists
        heaps = self._heaps
        max_order = self.max_order
        # The free-frame count is flushed lazily: before every raise or
        # return and before delegating to _insert_span (which counts its
        # own span), so partial failures leave the same state as
        # sequential free_span calls would.
        freed = 0
        for index in range(first, len(ranges)):
            frame_range = ranges[index]
            start = frame_range.start
            offset = start - base
            if not 0 <= offset < total:
                self._free_frames += freed
                return index
            count = frame_range.count
            if count <= 0:
                self._free_frames += freed
                raise AllocationError("free count must be positive")
            if offset + count > total:
                self._free_frames += freed
                raise AllocationError(
                    f"span [{start}, {start + count}) outside allocator"
                )
            if mask.find(1, offset, offset + count) != -1:
                self._free_frames += freed
                raise AllocationError(
                    f"double free within span [{start}, {start + count})"
                )
            order = count.bit_length() - 1
            if (
                count == 1 << order
                and order <= max_order
                and not offset & (count - 1)
            ):
                # One naturally aligned block: set the mask run and
                # coalesce upward, exactly as _insert_span would.
                mask[offset:offset + count] = (
                    _ONE_RUN[order] if order <= MAX_ORDER else b"\x01" * count
                )
                freed += count
                block = start
                while order < max_order:
                    bucket = lists[order]
                    buddy = base + ((block - base) ^ (1 << order))
                    if buddy not in bucket:
                        break
                    bucket.remove(buddy)
                    if buddy < block:
                        block = buddy
                    order += 1
                lists[order].add(block)
                _heappush(heaps[order], block)
            else:
                self._free_frames += freed
                freed = 0
                self._insert_span(start, count)
        self._free_frames += freed
        return len(ranges)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert_span(self, start: int, count: int) -> None:
        """Mark a span free and insert it as maximal aligned blocks."""
        offset = start - self.base
        self._mask[offset:offset + count] = b"\x01" * count
        self._free_frames += count
        self._insert_blocks(start, count)

    def _insert_blocks(self, start: int, count: int) -> None:
        """Insert an already-marked free span as maximal aligned blocks,
        each coalescing upward with its free buddies."""
        base = self.base
        lists = self._free_lists
        heaps = self._heaps
        max_order = self.max_order
        cursor = start
        remaining = count
        while remaining > 0:
            cursor_offset = cursor - base
            align_order = (
                (cursor_offset & -cursor_offset).bit_length() - 1
                if cursor_offset
                else max_order
            )
            size_order = remaining.bit_length() - 1
            order = min(max_order, align_order, size_order)
            taken = 1 << order
            block = cursor
            while order < max_order:
                buddy = base + ((block - base) ^ (1 << order))
                if buddy not in lists[order]:
                    break
                lists[order].discard(buddy)
                if buddy < block:
                    block = buddy
                order += 1
            lists[order].add(block)
            _heappush(heaps[order], block)
            cursor += taken
            remaining -= taken

    def check_invariants(self) -> None:
        """Free lists must be aligned, disjoint, mask-consistent."""
        total_free = 0
        seen: list[tuple[int, int]] = []
        mask = self._mask
        for order, starts in enumerate(self._free_lists):
            size = 1 << order
            for block_start in starts:
                if (block_start - self.base) % size != 0:
                    raise AllocationError(
                        f"misaligned free block at {block_start} order {order}"
                    )
                offset = block_start - self.base
                if mask.find(0, offset, offset + size) != -1:
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
        if mask.count(1) != self._free_frames:
            raise AllocationError("mask population does not match free count")
