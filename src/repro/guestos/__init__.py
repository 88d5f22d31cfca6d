"""Guest operating system substrate.

A functional model of the Linux memory-management machinery HeteroOS
extends: NUMA nodes with a memory-type flag, zones (single unified zone on
FastMem nodes), a buddy allocator, multi-dimensional per-CPU free lists,
slab caches, the I/O page cache, the split active/inactive LRU, swap,
and the on-demand balloon front-end.  :class:`repro.guestos.kernel.
GuestKernel` ties them together and keeps the per-subsystem allocation
statistics Section 3.2's demand-based prioritization consumes.  A
kernel region (``GuestKernel.regions``) stands in for a VMA: no
virtual address space is simulated.
"""

from repro.guestos.numa import MemoryNode, NodeTier
from repro.guestos.zone import Zone, ZoneKind
from repro.guestos.buddy import BuddyAllocator
from repro.guestos.percpu import PerCpuFreeLists
from repro.guestos.slab import SlabAllocator, SlabCache
from repro.guestos.pagecache import PageCache
from repro.guestos.lru import SplitLru
from repro.guestos.swap import SwapDevice
from repro.guestos.balloon import BalloonFrontend
from repro.guestos.kernel import AllocStats, GuestKernel

__all__ = [
    "MemoryNode",
    "NodeTier",
    "Zone",
    "ZoneKind",
    "BuddyAllocator",
    "PerCpuFreeLists",
    "SlabAllocator",
    "SlabCache",
    "PageCache",
    "SplitLru",
    "SwapDevice",
    "BalloonFrontend",
    "GuestKernel",
    "AllocStats",
]
