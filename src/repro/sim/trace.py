"""Workload trace capture and replay.

The simulator is trace-driven: a workload is fully described by its
epoch demand stream.  This module serialises that stream to JSON so a
demand trace can be captured once (from a statistical model — or, in
principle, converted from real allocator/access logs) and replayed
bit-for-bit later:

    >>> from repro.sim.trace import record_trace, TraceWorkload
    >>> trace = record_trace(make_workload("redis"), epochs=50)
    >>> replay = TraceWorkload.from_dict(trace)

Replaying a trace through the engine produces *identical* results to
running the original workload — asserted by the test suite — which
makes traces a stable artifact for regression comparisons across
library versions.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict
from typing import Iterator

from repro.errors import WorkloadError
from repro.mem.extent import PageType
from repro.workloads.base import EpochDemand, RegionSpec, Workload

TRACE_FORMAT_VERSION = 1


def _spec_to_dict(spec: RegionSpec) -> dict:
    data = asdict(spec)
    data["page_type"] = spec.page_type.value
    return data


def _spec_from_dict(data: dict) -> RegionSpec:
    """A trace's region fields as a spec; a malformed one raises
    :class:`WorkloadError` naming the region's label."""
    try:
        fields = dict(data)
        fields["page_type"] = PageType(fields["page_type"])
        return RegionSpec(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        label = data.get("label") if isinstance(data, dict) else None
        raise WorkloadError(
            f"trace region {label!r} is malformed "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def demand_to_dict(demand: EpochDemand) -> dict:
    return {
        "epoch": demand.epoch,
        "instructions": demand.instructions,
        "io_wait_ns": demand.io_wait_ns,
        "allocs": [
            [region_id, _spec_to_dict(spec)]
            for region_id, spec in demand.allocs
        ],
        "frees": list(demand.frees),
        "accesses": {
            region_id: [reads, writes]
            for region_id, (reads, writes) in demand.accesses.items()
        },
    }


def demand_from_dict(data: dict) -> EpochDemand:
    return EpochDemand(
        epoch=data["epoch"],
        instructions=data["instructions"],
        io_wait_ns=data.get("io_wait_ns", 0.0),
        allocs=[
            (region_id, _spec_from_dict(spec))
            for region_id, spec in data["allocs"]
        ],
        frees=list(data["frees"]),
        accesses={
            region_id: (reads, writes)
            for region_id, (reads, writes) in data["accesses"].items()
        },
    )


def record_trace(workload: Workload, epochs: int | None = None) -> dict:
    """Capture ``epochs`` of a workload's demand stream as a plain dict."""
    count = epochs if epochs is not None else workload.default_epochs()
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "name": workload.name,
        "mlp": workload.mlp,
        "metric": workload.metric,
        "work_units_per_epoch": workload.work_units_per_epoch,
        "epochs": [
            demand_to_dict(demand) for demand in workload.epochs(count)
        ],
    }


def save_trace(
    path: str | pathlib.Path, workload: Workload, epochs: int | None = None
) -> None:
    """Record a trace and write it as JSON."""
    pathlib.Path(path).write_text(json.dumps(record_trace(workload, epochs)))


def load_trace(path: str | pathlib.Path) -> "TraceWorkload":
    """Load a saved trace as a replayable workload."""
    return TraceWorkload.from_dict(
        json.loads(pathlib.Path(path).read_text())
    )


class TraceWorkload(Workload):
    """A workload that replays a recorded demand stream."""

    def __init__(
        self,
        name: str,
        mlp: float,
        metric: str,
        work_units_per_epoch: float,
        demands: list[EpochDemand],
    ) -> None:
        if not demands:
            raise WorkloadError("a trace needs at least one epoch")
        self.name = name
        self.mlp = mlp
        self.metric = metric
        self.work_units_per_epoch = work_units_per_epoch
        self._demands = list(demands)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceWorkload":
        version = data.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            raise WorkloadError(
                f"unsupported trace format version {version!r}"
            )
        return cls(
            name=data["name"],
            mlp=data["mlp"],
            metric=data["metric"],
            work_units_per_epoch=data.get("work_units_per_epoch", 0.0),
            demands=[demand_from_dict(d) for d in data["epochs"]],
        )

    def default_epochs(self) -> int:
        return len(self._demands)

    def epochs(self, count: int) -> Iterator[EpochDemand]:
        if count > len(self._demands):
            raise WorkloadError(
                f"trace holds {len(self._demands)} epochs, {count} requested"
            )
        yield from self._demands[:count]
