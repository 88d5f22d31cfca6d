"""Binary buddy allocator over a frame span.

The Linux page allocator HeteroOS extends.  Blocks are power-of-two sized
and naturally aligned relative to the span base; freeing coalesces with
the buddy block recursively.

Two entry points matter to callers:

* :meth:`allocate_pages` — decompose an arbitrary page count into buddy
  blocks, largest first.  Each block comes from the smallest free order
  that holds it, splitting a larger block when its own order's list is
  empty, as Linux's ``__rmqueue_smallest`` does; only when nothing that
  large is free does it fall back to smaller orders.  A request that
  cannot be satisfied leaves the allocator unchanged.
* :meth:`free_span` — return *any* previously-allocated range, including
  fragments produced by the per-CPU free lists.  A byte-per-frame free
  map makes double frees and frees of never-allocated frames hard
  errors.

The allocator is the simulator's hottest structure, so each piece of
state is shaped by its traffic.  The frame map holds one byte per
frame (0 = free, 1 = allocated) in a private anonymous ``mmap`` (slice
writes and ``find`` probes run in C; :func:`_free_frame_map` says why
it is not a ``bytearray``).  The top order, which holds most free
memory and serves large requests in contiguous runs, is a second
``bytearray`` with one byte per top-order block: the lowest free block
is ``find(1)``, and a request for k top blocks takes them run by run,
one slice write per run.  A grant lists each such run as one
:class:`FrameRange`, and freeing a range of whole, aligned top-order
blocks is again one write per map: top-order blocks never coalesce, so
a run is allocated and freed whole.  Every lower order is a plain
``set``; those lists stay a few blocks long (at most 29 in all of them
at any grant of a static-placement pass), so ``min(set)`` is cheap, a
one-block list is popped and a list a request covers is taken whole.
What a lower block costs is the interpreter work around it, so the
per-block paths are kept short, and splitting before scattering keeps
their number down: while a top-order block stays free, a grant of r
pages takes exactly one lower block per set bit of r mod 2**max_order,
where taking smaller free blocks first would gather each need from
several.  Blocks are handed out
lowest-start-first; the differential oracle in
``tests/`` pins every allocation against a plain set-and-bitmask
reference allocator.
"""

from __future__ import annotations

import mmap

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.frames import FrameRange
from repro.mem.frames import unchecked as _unchecked

MAX_ORDER = 10  # Linux's default: blocks up to 2^10 = 1024 pages (4 MiB).
#: Pre-built zero/one runs for freeing or allocating one buddy block
#: per order, sparing a fresh ``bytes`` temporary per operation.
_ZERO_RUN = tuple(bytes(1 << order) for order in range(MAX_ORDER + 1))
_ONE_RUN = tuple(b"\x01" * (1 << order) for order in range(MAX_ORDER + 1))


def _free_frame_map(frames: int) -> mmap.mmap:
    """A byte-per-frame map of ``frames`` free frames (byte 0 = free)
    in its own private anonymous mapping rather than on the malloc heap.

    The map is the allocator's one large allocation (2 MiB per 8 GiB
    span).  A fresh anonymous mapping reads as zeros, so it already is
    the all-free state and costs no memory until a frame on one of its
    pages is first allocated: a guest pays only for the frames it
    touches.  Off the heap, a finished guest's map is unmapped by
    :meth:`BuddyAllocator.close` (or when the cycle collector frees
    it) instead of leaving a multi-MiB hole that one later small
    allocation near the heap top keeps from being returned to the OS."""
    return mmap.mmap(-1, frames, access=mmap.ACCESS_COPY)


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
        #: order -> set of free block start frames (absolute), for every
        #: order below ``max_order``.
        self._free_lists: list[set[int]] = [set() for _ in range(max_order)]
        #: Byte i is 1 iff the top-order block at ``base + (i <<
        #: max_order)`` is free as a whole; ``_top_free`` counts them.
        #: Top-order blocks never coalesce, so the whole span up to its
        #: non-power-of-two tail starts free in one step.
        self._top = bytearray(b"\x01") * (frames >> max_order)
        self._top_free = len(self._top)
        #: Byte i is 0 iff frame ``base + i`` is free.  Exact double-free
        #: guard.  The whole span starts free: the fresh map's zeros.
        self._mask = _free_frame_map(frames)
        self._free_frames = frames
        # Only the tail goes through the block-at-a-time insert.
        bulk = self._top_free << max_order
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
        if 1 in self._top:
            return self.max_order
        for order in range(self.max_order - 1, -1, -1):
            if self._free_lists[order]:
                return order
        return -1

    def is_free(self, frame: int) -> bool:
        """Whether a single frame is currently free."""
        offset = frame - self.base
        if not 0 <= offset < self.total_frames:
            raise AllocationError(f"frame {frame} outside span")
        return not self._mask[offset]

    def close(self) -> None:
        """Unmap the frame map.  Idempotent.  The allocator is unusable
        afterwards: any allocation, free or ``is_free`` that reaches the
        map raises ``ValueError``."""
        self._mask.close()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        """Allocate one block of exactly ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        return self._take_block(order)

    def _take_block(self, order: int) -> FrameRange:
        """Take the lowest free block of ``order``, splitting the lowest
        block of the smallest larger order when none is free."""
        lists = self._free_lists
        max_order = self.max_order
        source = order
        while source < max_order and not lists[source]:
            source += 1
        if source < max_order:
            live = lists[source]
            if len(live) == 1:
                start = live.pop()
            else:
                start = min(live)
                live.remove(start)
        elif self._top_free:
            index = self._top.find(1)
            self._top[index] = 0
            self._top_free -= 1
            start = self.base + (index << max_order)
        else:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        # Split down to the requested order, freeing the upper halves.
        while source > order:
            source -= 1
            lists[source].add(start + (1 << source))
        count = 1 << order
        self._free_frames -= count
        offset = start - self.base
        self._mask[offset:offset + count] = (
            _ONE_RUN[order] if order <= MAX_ORDER else b"\x01" * count
        )
        return _unchecked((start, count))

    def _take_top_runs(self, blocks: int, append) -> int:
        """Take the ``blocks`` lowest free top-order blocks (at most as
        many as are free), ``append`` one range per contiguous run of
        them in ascending order, and return the frames taken.  Each run
        costs one slice write to the top-order map, one to the frame
        mask and one range, whatever its length."""
        top = self._top
        mask = self._mask
        max_order = self.max_order
        if blocks > self._top_free:
            blocks = self._top_free
        left = blocks
        index = 0
        while left:
            index = top.find(1, index)
            end = top.find(0, index, index + left)
            if end == -1:
                end = index + left
            run = end - index
            top[index:end] = bytes(run)
            offset = index << max_order
            frames = run << max_order
            mask[offset:offset + frames] = b"\x01" * frames
            append(_unchecked((self.base + offset, frames)))
            left -= run
            index = end
        self._top_free -= blocks
        taken = blocks << max_order
        self._free_frames -= taken
        return taken

    def allocate_pages(self, pages: int) -> list[FrameRange]:
        """Allocate ``pages`` frames as buddy blocks (largest-first).

        The grant lists each run of contiguous top-order blocks as one
        range of ``k << max_order`` frames, so its ranges are not all
        power-of-two blocks; every lower-order block is its own range.
        The top-order runs come first, then the lower blocks in the
        order they were taken.  Each lower need, the largest power of
        two in what is left (capped below the top order), is served as
        Linux's ``__rmqueue_smallest`` serves it: by the lowest block of
        the smallest free order that holds it, split down when that
        order is larger.  Only when no block that large is free does the
        grant fall back to the largest smaller order, taking its lowest
        blocks.  On failure the partial allocation is rolled back and
        the allocator is unchanged.
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
        # per-instance allocate_block wrapper; honour it when present
        # (one block per call, no run takes), otherwise go straight to
        # the implementation (the wrapper's range check is vacuous for
        # internally computed orders).
        wrapper = self.__dict__.get("allocate_block")
        take = wrapper if wrapper is not None else self._take_block
        try:
            # Top-order blocks first: largest-first takes every one the
            # request can use before any lower block, and no lower take
            # refills the top order.
            if remaining >> max_order and self._top_free:
                if wrapper is None:
                    # The dominant case: a large request peels off
                    # top-order blocks, often contiguous ones.
                    remaining -= self._take_top_runs(
                        remaining >> max_order, append
                    )
                else:
                    # Sanitized: one wrapped block per call, joined to
                    # the run before it when contiguous, so the grant
                    # has the shape _take_top_runs gives it.
                    while remaining >> max_order and self._top_free:
                        block = wrapper(max_order)
                        remaining -= block.count
                        if granted and granted[-1].end == block.start:
                            run = granted[-1]
                            granted[-1] = _unchecked(
                                (run.start, run.count + block.count)
                            )
                        else:
                            append(block)
            mask = self._mask
            base = self.base
            while remaining:
                # The need's order, below the top order (which is
                # exhausted for whatever top-sized need is left).  As
                # Linux's __rmqueue_smallest does, the block comes from
                # the smallest free order that holds the need: its own
                # list, or else one _take_block split of the lowest
                # block of the smallest larger order.
                order = remaining.bit_length() - 1
                if order >= max_order:
                    order = max_order - 1
                live = lists[order]
                if not live and not (self._top_free or any(lists[order + 1:])):
                    # Nothing that large is free: fall back to the
                    # largest smaller order.  One exists, because a
                    # grant never takes more than it still needs, so
                    # remaining <= free frames throughout.
                    order -= 1
                    while not lists[order]:
                        order -= 1
                    live = lists[order]
                if not live or wrapper is not None:
                    # The split, or any take while the sanitizer's
                    # per-block wrapper is attached.
                    block = take(order)
                    append(block)
                    remaining -= block.count
                    continue
                # Same-order hit, inlined.  Take as many blocks of this
                # order as the request and the list allow in one batch:
                # between same-order takes nothing is freed and no
                # split-down runs, so higher lists stay empty and a
                # block-at-a-time loop would pick this same order every
                # time while remaining >= 1 << order (only a capped
                # need or a fallback asks for more than one).  The lists
                # hold a few blocks, so a one-block list or a whole-list
                # batch is the common case.
                count = 1 << order
                ones = (
                    _ONE_RUN[order] if order <= MAX_ORDER else b"\x01" * count
                )
                batch = remaining >> order
                if len(live) == 1:
                    start = live.pop()
                elif batch == 1:
                    start = min(live)
                    live.remove(start)
                else:
                    starts = sorted(live)
                    if batch < len(starts):
                        del starts[batch:]
                        live.difference_update(starts)
                    else:
                        live.clear()
                    for start in starts:
                        offset = start - base
                        mask[offset:offset + count] = ones
                        append(_unchecked((start, count)))
                    taken = len(starts) << order
                    self._free_frames -= taken
                    remaining -= taken
                    continue
                offset = start - base
                mask[offset:offset + count] = ones
                append(_unchecked((start, count)))
                self._free_frames -= count
                remaining -= count
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
        if self._mask.find(b"\x00", offset, offset + count) != -1:
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

        The per-range validation and the two dominant shapes are inlined
        (identical state transitions and identical error points; the
        general shape falls through to :meth:`_insert_span`): a run of
        whole, aligned top-order blocks, which never coalesce, costs one
        mask write and one top-map write whatever its length; a single
        aligned lower-order block clears its mask run and coalesces
        upward.  Stopping rather than raising at a foreign start lets a
        NUMA node hand the rest of the batch to the zone that owns it,
        or raise its own foreign-frame error."""
        base = self.base
        total = self.total_frames
        mask = self._mask
        lists = self._free_lists
        top = self._top
        max_order = self.max_order
        top_mask = (1 << max_order) - 1
        # The free-frame count is flushed lazily: before every raise or
        # return and before delegating to _insert_span (which counts its
        # own span), so partial failures leave the same state as
        # sequential free_span calls would.
        freed = 0
        index = first
        for frame_range in ranges[first:] if first else ranges:
            start = frame_range.start
            offset = start - base
            if not 0 <= offset < total:
                self._free_frames += freed
                return index
            index += 1
            count = frame_range.count
            if count <= 0:
                self._free_frames += freed
                raise AllocationError("free count must be positive")
            end = offset + count
            if end > total:
                self._free_frames += freed
                raise AllocationError(
                    f"span [{start}, {start + count}) outside allocator"
                )
            if mask.find(b"\x00", offset, end) != -1:
                self._free_frames += freed
                raise AllocationError(
                    f"double free within span [{start}, {start + count})"
                )
            if not (offset | count) & top_mask:
                # Whole, aligned top-order blocks: a run of a grant.
                mask[offset:end] = bytes(count)
                blocks = count >> max_order
                first_block = offset >> max_order
                top[first_block:first_block + blocks] = b"\x01" * blocks
                self._top_free += blocks
                freed += count
                continue
            order = count.bit_length() - 1
            if count == 1 << order and not offset & (count - 1):
                # One naturally aligned block, below the top order (a
                # top-sized one is a run above): clear the mask run and
                # coalesce upward, exactly as _insert_span would.
                mask[offset:end] = (
                    _ZERO_RUN[order] if order <= MAX_ORDER else bytes(count)
                )
                freed += count
                bucket = lists[order]
                buddy = base + (offset ^ count)
                if buddy not in bucket:
                    # Most frees: the buddy is in use, nothing merges.
                    bucket.add(start)
                    continue
                block = start
                while True:
                    bucket.remove(buddy)
                    if buddy < block:
                        block = buddy
                    order += 1
                    if order == max_order:
                        top[(block - base) >> max_order] = 1
                        self._top_free += 1
                        break
                    bucket = lists[order]
                    buddy = base + ((block - base) ^ (1 << order))
                    if buddy not in bucket:
                        bucket.add(block)
                        break
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
        self._mask[offset:offset + count] = bytes(count)
        self._free_frames += count
        self._insert_blocks(start, count)

    def _insert_blocks(self, start: int, count: int) -> None:
        """Insert an already-marked free span as maximal aligned blocks,
        each coalescing upward with its free buddies; a stretch of whole
        top-order blocks inside it is inserted in one step."""
        base = self.base
        lists = self._free_lists
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
            if order == max_order:
                # A stretch of whole top-order blocks: they never
                # coalesce, so it is marked free in one top-map write.
                index = cursor_offset >> max_order
                blocks = remaining >> max_order
                self._top[index:index + blocks] = b"\x01" * blocks
                self._top_free += blocks
                taken = blocks << max_order
            else:
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
                if order < max_order:
                    lists[order].add(block)
                else:
                    self._top[(block - base) >> max_order] = 1
                    self._top_free += 1
            cursor += taken
            remaining -= taken

    def check_invariants(self) -> None:
        """Free lists must be aligned, disjoint, mask-consistent, and
        the top-order map must agree with its count."""
        base = self.base
        mask = self._mask
        top = self._top
        max_order = self.max_order
        blocks = [
            (order, block_start)
            for order, starts in enumerate(self._free_lists)
            for block_start in starts
        ]
        index = top.find(1)
        while index != -1:
            blocks.append((max_order, base + (index << max_order)))
            index = top.find(1, index + 1)
        total_free = 0
        seen: list[tuple[int, int]] = []
        for order, block_start in blocks:
            size = 1 << order
            offset = block_start - base
            if offset % size != 0:
                raise AllocationError(
                    f"misaligned free block at {block_start} order {order}"
                )
            if mask.find(b"\x01", offset, offset + size) != -1:
                raise AllocationError("free list and mask disagree")
            seen.append((block_start, block_start + size))
            total_free += size
        seen.sort()
        for (_, end_a), (start_b, _) in zip(seen, seen[1:]):
            if end_a > start_b:
                raise AllocationError("overlapping free blocks")
        if top.count(1) != self._top_free:
            raise AllocationError(
                f"free top-block count mismatch: "
                f"{top.count(1)} != {self._top_free}"
            )
        if total_free != self._free_frames:
            raise AllocationError(
                f"free accounting mismatch: {total_free} != {self._free_frames}"
            )
        if mask[:].count(0) != self._free_frames:
            raise AllocationError("mask population does not match free count")
