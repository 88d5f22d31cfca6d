"""Byte, page, and time unit helpers shared by every subsystem.

The simulator works in three currencies:

* **bytes** for device capacities and cache sizes,
* **pages** (4 KiB) for everything the OS manages,
* **nanoseconds** of virtual time for every cost the timing model charges.

Keeping the conversions in one module avoids the classic off-by-1024 bug
class and makes capacity arithmetic greppable.  :func:`plain_sum` is the
one float total every result path uses.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Annotated, Iterable

# ----------------------------------------------------------------------
# Dimension aliases
# ----------------------------------------------------------------------
#
# Lightweight ``Annotated`` aliases naming the simulator's five
# currencies.  They cost nothing at runtime (``Annotated[float, ...]``
# behaves exactly like ``float``); they document which unit a
# signature or field carries.  A unit slip on a result path moves the
# golden corpus's cell and figure digests, which is what catches it.

Ns = Annotated[float, "ns"]
Bytes = Annotated[int, "bytes"]
Pages = Annotated[int, "pages"]
Instructions = Annotated[float, "instructions"]
Epochs = Annotated[int, "epochs"]

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Base page size used throughout (x86-64 small page).
PAGE_SIZE: int = 4 * KIB

#: Cache line size; the unit of traffic the LLC model emits per miss.
CACHE_LINE: int = 64

NS_PER_US: float = 1_000.0
NS_PER_MS: float = 1_000_000.0
NS_PER_SEC: float = 1_000_000_000.0


def pages_of_bytes(num_bytes: Bytes) -> Pages:
    """Number of whole pages needed to hold ``num_bytes`` (rounds up)."""
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    return -(-num_bytes // PAGE_SIZE)


def bytes_of_pages(pages: Pages) -> Bytes:
    """Byte size of ``pages`` whole pages."""
    if pages < 0:
        raise ValueError(f"page count must be non-negative, got {pages}")
    return pages * PAGE_SIZE


def gib(amount: float) -> Bytes:
    """Whole bytes in ``amount`` GiB (accepts fractional amounts)."""
    return int(amount * GIB)


def mib(amount: float) -> Bytes:
    """Whole bytes in ``amount`` MiB (accepts fractional amounts)."""
    return int(amount * MIB)


def ns_to_ms(ns: Ns) -> float:
    """Nanoseconds to milliseconds."""
    return ns / NS_PER_MS


def ns_to_sec(ns: Ns) -> float:
    """Nanoseconds to seconds."""
    return ns / NS_PER_SEC


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Device bandwidth in GB/s (decimal, as vendors quote) to bytes/ns."""
    return gbps  # 1 GB/s == 1e9 B / 1e9 ns == 1 byte per ns ... scaled below


# NOTE: 1 GB/s = 1e9 bytes / 1e9 ns = exactly 1 byte/ns, so the conversion is
# the identity.  The function exists so call sites state their intent.


def plain_sum(values: Iterable[float]) -> float:
    """Total ``values`` left to right with plain float addition.

    Any float total that reaches a result uses this, not ``sum()``: from
    Python 3.12 on, ``sum()`` of floats is compensated (Neumaier), which
    moves the total's last bits, and with them the golden digests, on
    that interpreter only.  Up to 3.11 the two agree bit for bit.
    """
    return reduce(add, values, 0)
