"""Page extents: the unit of placement and accounting.

Simulating five million individual page structs per application (Figure 4's
totals) is neither necessary nor tractable in Python.  The OS in this
reproduction manages pages in *extents* — groups of same-typed pages from
one logical workload region that live on one memory node.  All per-page
costs (PTE scans, TLB flushes, migration copies) are still charged per
page; only the bookkeeping is grouped.

:class:`PageType` mirrors the kernel page classes the paper's placement
logic distinguishes (Figure 4 and Section 3.2): anonymous heap, I/O page
cache, buffer cache, slab, network (skbuff) slab, page-table, and DMA
pages.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.mem.frames import FrameRange
from repro.units import PAGE_SIZE, Bytes, Epochs, Pages


class PageType(enum.Enum):
    """Kernel page classes distinguished by HeteroOS placement."""

    HEAP = "heap"
    PAGE_CACHE = "page-cache"
    BUFFER_CACHE = "buffer-cache"
    SLAB = "slab"
    NETWORK_BUFFER = "nw-buff"
    PAGE_TABLE = "pagetable"
    DMA = "dma"

    # Page-type-keyed dicts sit on the allocation hot path, and
    # ``Enum.__hash__`` hashes the member's name in Python code.  Identity
    # hashing is exact: members are singletons and ``Enum`` compares them
    # by identity, so equal members still hash equal.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # Constants set once per member, not properties: the policies
        # read them per extent, and a property is a Python call.
        #: Short-lived I/O pages released once the request completes.
        self.is_io = value in ("page-cache", "buffer-cache")
        #: Linearly-mapped page-table and DMA pages cannot migrate
        #: (Section 4.1's exception list).
        self.is_migratable = value not in ("pagetable", "dma")


#: Every page type, in declaration order: iterating the ``Enum`` class
#: runs its metaclass iterator, which a per-epoch loop should not pay.
PAGE_TYPES = tuple(PageType)


class ExtentState(enum.Enum):
    """Split-LRU state (Linux active/inactive lists)."""

    ACTIVE = "active"
    INACTIVE = "inactive"
    UNEVICTABLE = "unevictable"

    # Identity hashing, as for PageType.
    __hash__ = object.__hash__


_extent_ids = itertools.count(1)


@dataclass
class PageExtent:
    """A group of pages of one type on one node.

    Attributes
    ----------
    region_id:
        The workload region these pages back (access accounting key).
    node_id:
        Guest NUMA node currently holding the pages.
    frames:
        Machine frame ranges backing the extent.
    temperature:
        EWMA of per-epoch access counts; the hotness signal trackers read.
    state:
        LRU list membership.
    accessed / dirty:
        Sticky per-epoch hardware bits (cleared by scans, like PTE bits).
    """

    region_id: str
    page_type: PageType
    pages: Pages
    node_id: int
    frames: list[FrameRange] = field(default_factory=list)
    extent_id: int = field(default_factory=_extent_ids.__next__)
    state: ExtentState = ExtentState.ACTIVE
    temperature: float = 0.0
    #: EWMA of per-epoch *write* counts (PAGE_RW-bit tracking, §4.3).
    write_temperature: float = 0.0
    accessed: bool = False
    dirty: bool = False
    #: True while the extent's pages live on the swap device (reclaimed).
    swapped: bool = False
    birth_epoch: Epochs = 0
    last_access_epoch: Epochs = -1

    def __post_init__(self) -> None:
        if self.pages <= 0:
            raise AllocationError("extent must contain at least one page")

    @property
    def bytes(self) -> Bytes:
        return self.pages * PAGE_SIZE

    def record_access(
        self,
        epoch: int,
        accesses: float,
        decay: float = 0.5,
        writes: float = 0.0,
    ) -> None:
        """Fold one epoch's access count into the hotness EWMA and set the
        hardware-visible accessed bit when any access occurred.

        ``writes`` feeds a separate write-temperature EWMA — the signal
        the Section 4.3 write-aware NVM extension tracks by periodically
        resetting the PAGE_RW bit.
        """
        self.temperature = self.temperature * decay + accesses
        self.write_temperature = self.write_temperature * decay + writes
        if accesses > 0:
            self.accessed = True
            self.last_access_epoch = epoch

    def clear_hardware_bits(self) -> tuple[bool, bool]:
        """Read-and-clear the (accessed, dirty) bits, as a PTE scan does."""
        bits = (self.accessed, self.dirty)
        self.accessed = False
        self.dirty = False
        return bits
