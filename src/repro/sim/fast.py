"""Epoch demand accounting: LLC misses split across memory devices.

Each epoch :meth:`SimulationEngine._memory_demands
<repro.sim.engine.SimulationEngine._memory_demands>` calls
:func:`fast_memory_demands`, which feeds the epoch's region accesses
through the LLC model, splits each region's misses across devices by
extent placement, and records device wear.  Two choices keep it cheap:

* :class:`DemandAccumulator` — flat per-device float columns, one per
  :data:`DEVICE_DEMAND_FIELDS` entry, instead of a chain of frozen
  ``DeviceDemand`` merges;
* :func:`_fast_apportion` — a tuple-returning twin of
  ``LastLevelCache.apportion`` with the same float expressions in the
  same order.

Results are pinned **bit-identical** to the ``DeviceDemand``-merging
reference kept in ``tests/`` — the same float addition order and the
same dict insertion order.  The differential oracle
(``tests/test_fast_equivalence.py``) enforces this across all
policies, fault plans, and telemetry modes.  See
``docs/performance.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.cache import RegionAccess
from repro.hw.timing import DeviceDemand
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EpochDemand, SimulationEngine

__all__ = [
    "DEVICE_DEMAND_FIELDS",
    "DemandAccumulator",
    "fast_memory_demands",
]


#: heterocontract anchor (``contract-fast-mirror``): the accumulator
#: columns of :class:`DemandAccumulator`, one per
#: :class:`~repro.hw.timing.DeviceDemand` field.  Must stay a pure
#: literal (it is read with ``ast.literal_eval``) and mirror the
#: dataclass exactly — a DeviceDemand field without a column here would
#: be silently dropped from every epoch's demand.
DEVICE_DEMAND_FIELDS = ("read_misses", "write_misses", "traffic_bytes")

_new_instance = object.__new__


def _region_access(region_id, footprint_bytes, reads, writes, reuse,
                   bytes_per_miss):
    """:class:`RegionAccess` without the ``__init__``/``__post_init__``
    round trip (same trick as ``FrameRange.unchecked``).  Valid only for
    arguments the reference constructor would accept: ``reuse`` and
    ``bytes_per_miss`` come from an already-validated region spec, and
    the kernel guarantees non-negative page counts and access counts."""
    access = _new_instance(RegionAccess)
    attrs = access.__dict__
    attrs["region_id"] = region_id
    attrs["footprint_bytes"] = footprint_bytes
    attrs["reads"] = reads
    attrs["writes"] = writes
    attrs["reuse"] = reuse
    attrs["bytes_per_miss"] = bytes_per_miss
    return access


_INF = float("inf")


def _fast_apportion(cache, regions):
    """Tuple-returning twin of ``LastLevelCache.apportion`` plus the
    ``RegionMisses.misses``/``traffic_bytes`` properties: the same float
    expressions evaluated in the same order, minus one frozen dataclass
    and two property calls per region per epoch.  Yields
    ``(region_id, read_misses, write_misses, traffic_bytes,
    bytes_per_miss, misses)`` in input order.  Pinned against the
    reference by the differential oracle."""
    remaining = float(cache.config.capacity_bytes)
    cached_frac = {}
    ranked = sorted(
        (r for r in regions if r.reads + r.writes > 0),
        key=lambda r: (
            (r.reads + r.writes) / r.footprint_bytes
            if r.footprint_bytes
            else _INF
        ),
        reverse=True,
    )
    for region in ranked:
        footprint = region.footprint_bytes
        if footprint == 0:
            cached_frac[region.region_id] = 1.0
            continue
        take = min(remaining, float(footprint))
        cached_frac[region.region_id] = take / footprint
        remaining -= take
    results = []
    append = results.append
    frac_of = cached_frac.get
    for region in regions:
        frac = frac_of(region.region_id, 0.0)
        hit_rate = region.reuse * frac
        miss_rate = 1.0 - hit_rate
        read_misses = region.reads * miss_rate
        write_misses = region.writes * miss_rate
        bytes_per_miss = region.bytes_per_miss
        append((
            region.region_id,
            read_misses,
            write_misses,
            read_misses * bytes_per_miss + write_misses * bytes_per_miss * 2.0,
            bytes_per_miss,
            read_misses + write_misses,
        ))
    return results


class DemandAccumulator:
    """Flat per-device demand columns, indexed by first-touch order.

    One list per :data:`DEVICE_DEMAND_FIELDS` entry replaces the
    reference chain of frozen ``DeviceDemand`` merges.  In-place ``+=``
    in the same visit order produces the same left-associated float
    sums, and first-touch indexing reproduces the reference dict's
    insertion order, so :meth:`demands` materialises a bit-identical
    mapping.
    """

    __slots__ = ("devices", "index", "reads", "writes", "traffic")

    def __init__(self) -> None:
        self.devices = []
        self.index = {}
        self.reads = []
        self.writes = []
        self.traffic = []

    def add(self, device, read_misses, write_misses, traffic_bytes) -> None:
        # Indexed by identity, not value: a MemoryDevice dataclass hash
        # walks every field, and callers (fast_memory_demands) already
        # canonicalise equal devices to one instance.
        position = self.index.get(id(device))
        if position is None:
            self.index[id(device)] = len(self.devices)
            self.devices.append(device)
            self.reads.append(read_misses)
            self.writes.append(write_misses)
            self.traffic.append(traffic_bytes)
        else:
            self.reads[position] += read_misses
            self.writes[position] += write_misses
            self.traffic[position] += traffic_bytes

    def demands(self) -> "dict":
        columns = (self.reads, self.writes, self.traffic)
        return {
            device: DeviceDemand(
                **dict(
                    zip(
                        DEVICE_DEMAND_FIELDS,
                        (column[position] for column in columns),
                    )
                )
            )
            for position, device in enumerate(self.devices)
        }


def fast_memory_demands(engine: "SimulationEngine", demand: "EpochDemand"):
    """The epoch's per-device :class:`DeviceDemand` map and LLC misses.

    Regions are visited in access order; each region's misses are split
    across devices by the fraction of its pages on each (swapped
    extents count against the slowest device), and each device's wear
    records its dirty-line writebacks.  Misses accumulate as in-place
    column adds in a :class:`DemandAccumulator`, and device dicts are
    keyed by identity over a canonicalised device set instead of by the
    field-walking dataclass hash.  Float additions are left-associated
    in visit order, as a ``DeviceDemand.merged`` chain would be.
    Pinned by tests/test_fast_equivalence.py.
    """
    kernel = engine.kernel
    nodes = kernel.nodes
    slowest = engine._slowest_device
    region_specs = engine.region_specs
    # Canonicalise the device universe once so the per-extent and
    # per-miss bookkeeping can key dicts by id() instead of the
    # field-walking dataclass hash.  Distinct-but-equal instances (which
    # the reference dict would merge) collapse to one representative
    # here, keeping the merge semantics identical.
    canonical = {}
    by_value = {}
    for node in nodes.values():
        device = node.device
        canonical[id(device)] = by_value.setdefault(device, device)
    canonical[id(slowest)] = by_value.setdefault(slowest, slowest)
    region_ids = kernel.regions
    extent_map = kernel.extents
    region_accesses: "list[RegionAccess]" = []
    placements = {}
    for region_id, (reads, writes) in demand.accesses.items():
        # Inlined kernel.has_region + kernel.region_extents (the maps
        # are plain dicts; the method round trips dominate at this
        # call rate).
        extent_ids = region_ids.get(region_id)
        if extent_ids is None:
            continue
        spec = region_specs.get(region_id)
        if spec is None:
            continue
        extents = [extent_map[eid] for eid in extent_ids]
        if len(extents) == 1:
            pages = extents[0].pages
        else:
            pages = sum(extent.pages for extent in extents)
        if pages == 0:
            continue
        region_accesses.append(
            _region_access(
                region_id,
                pages * PAGE_SIZE,
                reads,
                writes,
                spec.reuse,
                spec.bytes_per_miss,
            )
        )
        fractions = {}
        for extent in extents:
            device = canonical[
                id(slowest if extent.swapped else nodes[extent.node_id].device)
            ]
            entry = fractions.get(id(device))
            if entry is None:
                fractions[id(device)] = [device, extent.pages / pages]
            else:
                entry[1] = entry[1] + (extent.pages / pages)
        placements[region_id] = list(fractions.values())

    accumulator = DemandAccumulator()
    add = accumulator.add
    wear_record = engine.wear.record
    llc_misses = 0.0
    for (
        misses_region_id,
        read_misses,
        write_misses,
        traffic_bytes,
        bytes_per_miss,
        misses_total,
    ) in _fast_apportion(engine.cache, region_accesses):
        llc_misses += misses_total
        for device, fraction in placements[misses_region_id]:
            add(
                device,
                read_misses * fraction,
                write_misses * fraction,
                traffic_bytes * fraction,
            )
            # Endurance accounting: dirty-line writebacks are the
            # device's wear (2x per write miss: fill + writeback).
            wear_record(
                device,
                write_misses * fraction * bytes_per_miss * 2.0,
            )
    return accumulator.demands(), llc_misses
