"""Epoch demand accounting: LLC misses split across memory devices.

Each epoch :meth:`SimulationEngine._memory_demands
<repro.sim.engine.SimulationEngine._memory_demands>` calls
:func:`fast_memory_demands`, which feeds the epoch's region accesses
through the LLC model, splits each region's misses across devices by
extent placement, and records device wear.  It builds little within an
epoch:

* node devices are canonicalised once per engine
  (``SimulationEngine._node_devices``), so per-device state is keyed by
  identity instead of the field-walking dataclass hash;
* each accessed region is one tuple row (footprint, reads, writes,
  reuse, bytes per miss, and its placement as ``(device, fraction)``
  pairs), which :func:`_fast_apportion` — a twin of
  ``LastLevelCache.apportion`` with the same float expressions in the
  same order — ranks and apportions in place of
  ``RegionAccess``/``RegionMisses`` objects;
* misses accumulate in per-device columns, one per
  :data:`DEVICE_DEMAND_FIELDS` entry, and each device's
  ``DeviceDemand`` is built once per epoch from them.

A steady-state epoch reuses the previous epoch's accounting.  The
statistical workloads run at constant per-epoch intensity and a row
names no region, so once every churn flow reaches its lifetime most
epochs hand the LLC the rows of the epoch before (86% of a
static-placement pass).  The engine keeps its last epoch's rows, demand
map, LLC-miss total and wear increments (``SimulationEngine._demand_memo``);
when an epoch's rows equal them, the increments are recorded again in
their original order and the stored demands and total are returned
without apportioning.  That gives the bits a recomputation would:

* the key is the whole row list, because the apportionment ranks every
  row against one LLC capacity, fixed per engine;
* every device in a row is one of the engine's canonical instances, so
  equal rows name the same devices, and the replay adds each device's
  wear in the order the computation would;
* equal values give equal results through every expression here (an
  int and a float that compare equal do too, below 2**53), and a
  float's bits follow from its value except for the sign of a zero.
  ``0.0`` and ``-0.0`` compare equal.  The sign of a zero read or
  write count can reach a demand field that comes out zero, so an
  epoch whose rows hold a negative zero there neither reuses nor
  stores the memo.  Footprints are ints, fractions are never ``-0.0``,
  bytes per miss are positive (``RegionSpec`` rejects anything else),
  and a zero reuse's sign changes no result.  A NaN equals only
  itself, the same object, which gives the same NaN.

Results are pinned **bit-identical** to the ``DeviceDemand``-merging
reference kept in ``tests/`` — the same float addition order and the
same dict insertion order.  The differential oracle
(``tests/test_fast_equivalence.py``) enforces this across all
policies, fault plans, and telemetry modes.  See
``docs/performance.md``.
"""

from __future__ import annotations

from math import copysign
from typing import TYPE_CHECKING

from repro.hw.timing import DeviceDemand
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EpochDemand, SimulationEngine

__all__ = [
    "DEVICE_DEMAND_FIELDS",
    "fast_memory_demands",
]


#: The per-device demand columns :func:`fast_memory_demands`
#: accumulates, one per :class:`~repro.hw.timing.DeviceDemand` field, in
#: the order each ``DeviceDemand`` is built from.  It must mirror the
#: dataclass exactly — a DeviceDemand field without a column here would
#: be silently dropped from every epoch's demand;
#: ``tests/test_timing.py::test_demand_columns_follow_the_field_order``
#: pins the names and their order.
DEVICE_DEMAND_FIELDS = ("read_misses", "write_misses", "traffic_bytes")


def _fast_apportion(cache, rows):
    """Tuple-based twin of ``LastLevelCache.apportion`` plus the
    ``RegionMisses.misses``/``traffic_bytes`` properties: the same float
    expressions evaluated in the same order, over the rows
    :func:`fast_memory_demands` collects (``(footprint_bytes, reads,
    writes, reuse, bytes_per_miss, placement)``; every footprint is
    positive, as regions without pages are skipped).  Returns
    ``(read_misses, write_misses, traffic_bytes, misses)`` per row in
    row order.  Pinned against the reference by the differential
    oracle."""
    remaining = float(cache.config.capacity_bytes)
    cached_frac = [0.0] * len(rows)
    # Each accessed row's density, once, keyed by row index in access
    # order; densest first, and sorted() is stable, so ties keep access
    # order.
    density = {}
    for index, row in enumerate(rows):
        accesses = row[1] + row[2]
        if accesses > 0:
            density[index] = accesses / row[0]
    for index in sorted(density, key=density.__getitem__, reverse=True):
        footprint = rows[index][0]
        take = min(remaining, float(footprint))
        cached_frac[index] = take / footprint
        remaining -= take
    results = []
    append = results.append
    for (_, reads, writes, reuse, bytes_per_miss, _), frac in zip(
        rows, cached_frac
    ):
        hit_rate = reuse * frac
        miss_rate = 1.0 - hit_rate
        read_misses = reads * miss_rate
        write_misses = writes * miss_rate
        append((
            read_misses,
            write_misses,
            read_misses * bytes_per_miss + write_misses * bytes_per_miss * 2.0,
            read_misses + write_misses,
        ))
    return results


def fast_memory_demands(engine: "SimulationEngine", demand: "EpochDemand"):
    """The epoch's per-device :class:`DeviceDemand` map and LLC misses.

    Regions are visited in access order; each region's misses are split
    across devices by the fraction of its pages on each (swapped
    extents count against the slowest device), and each device's wear
    records its dirty-line writebacks.  Misses accumulate as in-place
    column adds keyed by device identity, over the engine's
    canonicalised devices; distinct-but-equal devices, which the
    reference dict would merge, are one instance there.  Float
    additions are left-associated in visit order, as a
    ``DeviceDemand.merged`` chain would be.

    When the epoch's rows equal the previous epoch's, the engine's
    one-epoch memo (``SimulationEngine._demand_memo``) answers instead:
    its wear increments are recorded again in their original order and
    its demands and LLC-miss total are returned (see the module
    docstring for why that is exact).  Pinned by
    tests/test_fast_equivalence.py.
    """
    kernel = engine.kernel
    node_devices = engine._node_devices
    slowest = engine._slowest_device
    region_specs = engine.region_specs
    region_ids = kernel.regions
    extent_map = kernel.extents
    rows = []
    negative_zero = False
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
        if len(extent_ids) == 1:
            extent = extent_map[extent_ids[0]]
            pages = extent.pages
            if pages == 0:
                continue
            # One extent holds every page: its fraction is exactly 1.0.
            placement = ((
                slowest if extent.swapped else node_devices[extent.node_id],
                1.0,
            ),)
        else:
            extents = [extent_map[eid] for eid in extent_ids]
            pages = 0
            for extent in extents:
                pages += extent.pages
            if pages == 0:
                continue
            fractions = {}
            for extent in extents:
                device = (
                    slowest if extent.swapped
                    else node_devices[extent.node_id]
                )
                entry = fractions.get(id(device))
                if entry is None:
                    fractions[id(device)] = [device, extent.pages / pages]
                else:
                    entry[1] = entry[1] + (extent.pages / pages)
            placement = tuple(map(tuple, fractions.values()))
        # -0.0 == 0.0, but its sign can reach a result: such rows must
        # not match the memo (see the module docstring).
        if not (reads and writes) and (
            copysign(1.0, reads) < 0 or copysign(1.0, writes) < 0
        ):
            negative_zero = True
        rows.append((
            pages * PAGE_SIZE,
            reads,
            writes,
            spec.reuse,
            spec.bytes_per_miss,
            placement,
        ))

    wear_record = engine.wear.record
    memo = engine._demand_memo
    if memo is not None and not negative_zero and memo[0] == rows:
        _, demands, llc_misses, wear = memo
        for device, write_bytes in wear:
            wear_record(device, write_bytes)
        return dict(demands), llc_misses

    # id(device) -> [device, *one value per DEVICE_DEMAND_FIELDS entry]
    columns = {}
    wear = []
    llc_misses = 0.0
    for row, (read_misses, write_misses, traffic_bytes, misses) in zip(
        rows, _fast_apportion(engine.cache, rows)
    ):
        llc_misses += misses
        bytes_per_miss = row[4]
        for device, fraction in row[5]:
            column = columns.get(id(device))
            if column is None:
                columns[id(device)] = [
                    device,
                    read_misses * fraction,
                    write_misses * fraction,
                    traffic_bytes * fraction,
                ]
            else:
                column[1] += read_misses * fraction
                column[2] += write_misses * fraction
                column[3] += traffic_bytes * fraction
            # Endurance accounting: dirty-line writebacks are the
            # device's wear (2x per write miss: fill + writeback).
            write_bytes = write_misses * fraction * bytes_per_miss * 2.0
            wear_record(device, write_bytes)
            wear.append((device, write_bytes))
    # Positional, in DEVICE_DEMAND_FIELDS order, which a tier-1 test
    # pins to the dataclass's fields, names and order.
    demands = {
        column[0]: DeviceDemand(column[1], column[2], column[3])
        for column in columns.values()
    }
    engine._demand_memo = (
        None if negative_zero else (rows, demands, llc_misses, wear)
    )
    return dict(demands), llc_misses
