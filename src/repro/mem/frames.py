"""Machine frame ranges and per-device frame pools.

The VMM owns all machine frames.  Each memory device (FastMem, SlowMem)
contributes one contiguous machine-frame span managed by a
:class:`FramePool` — a first-fit range allocator with coalescing on free.
Guest-visible allocation refinement (buddy orders, per-CPU lists) happens
inside the guest OS on top of frames granted by these pools.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from repro.errors import AllocationError, OutOfMemoryError
from repro.units import Pages


class FrameRange(tuple):
    """A contiguous run of machine frames ``[start, start + count)``.

    An immutable ``(start, count)`` pair: a tuple subclass with no
    instance dict, whose fields are read-only views of its two items,
    so equality and hashing are the tuple's and the buddy can build one
    in C (:data:`unchecked`).
    """

    __slots__ = ()

    start = property(itemgetter(0), doc="First frame of the range.")
    count = property(itemgetter(1), doc="Frames in the range.")

    def __new__(cls, start: int, count: Pages) -> "FrameRange":
        if start < 0 or count <= 0:
            raise AllocationError(
                f"invalid frame range start={start} count={count}"
            )
        return tuple.__new__(cls, (start, count))

    def __getnewargs__(self) -> tuple[int, Pages]:
        # Pickle and copy rebuild through the validating __new__.
        return tuple(self)

    def __repr__(self) -> str:
        return f"FrameRange(start={self[0]}, count={self[1]})"

    @property
    def end(self) -> int:
        return self.start + self.count

    def overlaps(self, other: "FrameRange") -> bool:
        return self.start < other.end and other.start < self.end

    def split(self, count: Pages) -> tuple["FrameRange", "FrameRange"]:
        """Split into a prefix of ``count`` frames and the remainder."""
        if not 0 < count < self.count:
            raise AllocationError(
                f"cannot split range of {self.count} frames at {count}"
            )
        return (
            FrameRange(self.start, count),
            FrameRange(self.start + count, self.count - count),
        )


#: ``unchecked((start, count))`` builds a :class:`FrameRange` without
#: ``__new__``'s validation, entirely in C (no Python frame).  Reserved
#: for allocators whose own invariants already guarantee ``start >= 0``
#: and ``count > 0`` (the buddy split arithmetic in
#: ``repro.guestos.buddy`` produces only such pairs); the type, equality
#: and hashing are a validated range's.
unchecked = partial(tuple.__new__, FrameRange)


class FramePool:
    """First-fit range allocator over one device's machine-frame span."""

    def __init__(self, base: int, frames: int, name: str = "pool") -> None:
        if frames <= 0:
            raise AllocationError(f"pool {name!r} needs at least one frame")
        self.name = name
        self.base = base
        self.total_frames = frames
        #: Sorted, disjoint, non-adjacent free ranges.
        self._free: list[FrameRange] = [FrameRange(base, frames)]
        self._allocated_frames = 0

    @property
    def free_frames(self) -> Pages:
        return self.total_frames - self._allocated_frames

    @property
    def allocated_frames(self) -> Pages:
        return self._allocated_frames

    def allocate(self, count: Pages) -> FrameRange:
        """Allocate ``count`` contiguous frames (first fit).

        Raises :class:`OutOfMemoryError` when no single free range is large
        enough — callers that can tolerate discontiguity should use
        :meth:`allocate_scattered`.
        """
        if count <= 0:
            raise AllocationError(f"allocation count must be positive: {count}")
        for index, free_range in enumerate(self._free):
            if free_range.count >= count:
                if free_range.count == count:
                    taken = self._free.pop(index)
                else:
                    taken, rest = free_range.split(count)
                    self._free[index] = rest
                self._allocated_frames += count
                return taken
        raise OutOfMemoryError(
            f"pool {self.name!r}: no contiguous run of {count} frames "
            f"({self.free_frames} free total)"
        )

    def allocate_scattered(self, count: Pages) -> list[FrameRange]:
        """Allocate ``count`` frames as one or more ranges.

        Raises :class:`OutOfMemoryError` (leaving the pool untouched) when
        fewer than ``count`` frames are free in total.
        """
        if count <= 0:
            raise AllocationError(f"allocation count must be positive: {count}")
        if count > self.free_frames:
            raise OutOfMemoryError(
                f"pool {self.name!r}: requested {count} frames, "
                f"only {self.free_frames} free"
            )
        taken: list[FrameRange] = []
        remaining = count
        while remaining > 0:
            grab = min(remaining, self._free[0].count)
            taken.append(self.allocate(grab))
            remaining -= grab
        return taken

    def free(self, frame_range: FrameRange) -> None:
        """Return a previously-allocated range; coalesces neighbours."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].start < frame_range.start:
                lo = mid + 1
            else:
                hi = mid
        # Validate: must not overlap neighbours and must be inside the span.
        if frame_range.start < self.base or frame_range.end > self.base + self.total_frames:
            raise AllocationError(
                f"pool {self.name!r}: range {frame_range} outside pool span"
            )
        if lo > 0 and self._free[lo - 1].overlaps(frame_range):
            raise AllocationError(f"double free of {frame_range} in {self.name!r}")
        if lo < len(self._free) and self._free[lo].overlaps(frame_range):
            raise AllocationError(f"double free of {frame_range} in {self.name!r}")

        merged = frame_range
        # Coalesce with predecessor.
        if lo > 0 and self._free[lo - 1].end == merged.start:
            prev = self._free.pop(lo - 1)
            merged = FrameRange(prev.start, prev.count + merged.count)
            lo -= 1
        # Coalesce with successor.
        if lo < len(self._free) and merged.end == self._free[lo].start:
            nxt = self._free.pop(lo)
            merged = FrameRange(merged.start, merged.count + nxt.count)
        self._free.insert(lo, merged)
        self._allocated_frames -= frame_range.count
        if self._allocated_frames < 0:
            raise AllocationError(f"pool {self.name!r}: negative allocation count")

    def check_invariants(self) -> None:
        """Free list must stay sorted, disjoint, non-adjacent, in-span."""
        total_free = 0
        previous: FrameRange | None = None
        for free_range in self._free:
            total_free += free_range.count
            if free_range.start < self.base or free_range.end > self.base + self.total_frames:
                raise AllocationError("free range escaped the pool span")
            if previous is not None and previous.end >= free_range.start:
                raise AllocationError("free list not sorted/disjoint/coalesced")
            previous = free_range
        if total_free != self.free_frames:
            raise AllocationError("free accounting mismatch")
