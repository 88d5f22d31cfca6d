"""Virtual memory areas and the per-process address space.

The guest's VMA list is the source of the *tracking list* — "address
ranges of contiguous memory regions that the VMM should track for
hotness ... extract[ed] using the virtual memory area (VMA) structure"
(Section 4.1).  An unmap ("several continuous pages in a VMA region are
released", Section 3.3) needs no demotion hook here: the kernel's
``free_region`` unmaps the VMA and returns its pages to the allocator
in the same call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError
from repro.mem.extent import PageType


@dataclass(frozen=True)
class Vma:
    """One mapped virtual region."""

    start_vpn: int
    pages: int
    page_type: PageType
    region_id: str

    @classmethod
    def unchecked(
        cls, start_vpn: int, pages: int, page_type: PageType, region_id: str
    ) -> "Vma":
        """Construct without the frozen-dataclass ``__init__``.

        Every region allocation maps one VMA, and that ``__init__`` (a
        guarded setattr per field) is most of its cost.  Direct
        instance-dict writes bypass it; equality, hashing and
        immutability stay the dataclass's.
        Sets every field, so keep it in step with the list above.
        """
        made = object.__new__(cls)
        attrs = made.__dict__
        attrs["start_vpn"] = start_vpn
        attrs["pages"] = pages
        attrs["page_type"] = page_type
        attrs["region_id"] = region_id
        return made

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.pages


@dataclass
class AddressSpace:
    """A process's mm: bump-pointer mmap, VMA registry, tracking export."""

    # heterolint: disable-next-line=magic-number — VPN base, not bytes
    next_vpn: int = 0x1000
    vmas: dict[str, Vma] = field(default_factory=dict)

    @property
    def mapped_pages(self) -> int:
        return sum(vma.pages for vma in self.vmas.values())

    def mmap(self, region_id: str, pages: int, page_type: PageType) -> Vma:
        """Map a new region; virtual addresses are bump-allocated."""
        if pages <= 0:
            raise AllocationError("mmap of zero pages")
        if region_id in self.vmas:
            raise AllocationError(f"region {region_id!r} already mapped")
        vma = Vma.unchecked(self.next_vpn, pages, page_type, region_id)
        self.next_vpn += pages
        self.vmas[region_id] = vma
        return vma

    def munmap(self, region_id: str) -> Vma:
        """Unmap a region; returns its VMA."""
        vma = self.vmas.pop(region_id, None)
        if vma is None:
            raise AllocationError(f"munmap of unmapped region {region_id!r}")
        return vma

    def find(self, vpn: int) -> Vma | None:
        """VMA containing virtual page ``vpn``, or ``None``."""
        for vma in self.vmas.values():
            if vma.start_vpn <= vpn < vma.end_vpn:
                return vma
        return None

    def tracking_list(self) -> list[tuple[int, int]]:
        """Heap VMA (start, pages) ranges worth tracking for hotness.

        I/O cache and kernel-buffer regions are excluded — they go on the
        exception list instead (Section 4.1).
        """
        return [
            (vma.start_vpn, vma.pages)
            for vma in self.vmas.values()
            if vma.page_type is PageType.HEAP
        ]
