"""Machine memory mechanics: frames and extents.

No page table or reverse map is simulated: an extent's accessed and
dirty bits stand in for its PTEs' bits, and PTE scans and walks are
charged per page (``repro.vmm.hotness``, ``repro.vmm.migration``).
"""

from repro.mem.frames import FramePool, FrameRange
from repro.mem.extent import ExtentState, PageExtent, PageType

__all__ = [
    "FramePool",
    "FrameRange",
    "PageExtent",
    "PageType",
    "ExtentState",
]
