"""Deterministic fault injection (the resilience plane).

HeteroOS assumes its mechanisms — access-bit scans, migration passes,
balloon transfers, coordination-channel messages — always succeed; a
datacenter cannot.  This package schedules component faults against the
simulator so every degraded path the paper glosses over is exercised:

* :class:`FaultSpec` — one scheduled fault: a kind, an epoch window, a
  per-opportunity probability, and (for device derating) throttle
  factors.
* :class:`FaultPlan` — a frozen, hashable, pure-literal collection of
  fault specs plus its own seed.  Plans ride inside
  :class:`~repro.config.SimConfig` and
  :class:`~repro.sim.parallel.ExperimentSpec`, and their canonical JSON
  form enters sweep cache keys.
* :class:`FaultInjector` — the runtime: one seeded RNG stream *per
  fault kind* (streams never interleave, so adding a fault of one kind
  cannot shift another kind's draws), per-epoch windowing, fault
  counting, and buffered event records the engine drains into the
  telemetry bus.

Determinism contract: every draw comes from a stream derived from
``FaultPlan.seed`` and the fault kind, so a fixed ``(plan, seed)`` pair
reproduces the same :class:`~repro.sim.stats.RunResult` bit-for-bit.
No-perturbation contract: an empty plan (``FaultPlan.none()``) never
constructs an injector at all — the simulator takes the exact seed code
path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "KIND_SOURCES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "merge_fault_counts",
]

#: Every fault kind the simulator knows how to inject.
FAULT_KINDS: tuple[str, ...] = (
    "channel-drop",
    "channel-duplicate",
    "migration-abort",
    "balloon-refuse",
    "device-derate",
    "scan-stale",
    "scan-lost",
    "swap-write-error",
)

#: Which component each kind degrades (telemetry event ``source``).
#: Keys mirror FAULT_KINDS exactly and every value names a real project
#: module; ``tests/test_faults.py`` pins both, and makes every kind fire
#: in a small run.
KIND_SOURCES: dict[str, str] = {
    "channel-drop": "vmm.channel",
    "channel-duplicate": "vmm.channel",
    "migration-abort": "vmm.migration",
    "balloon-refuse": "vmm.balloon_backend",
    "device-derate": "hw.timing",
    "scan-stale": "vmm.hotness",
    "scan-lost": "vmm.hotness",
    "swap-write-error": "guestos.swap",
}

#: Kinds whose throttle factors are meaningful.
_DERATE_KINDS = frozenset({"device-derate"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``probability`` is drawn once per injection *opportunity* (a channel
    publish, a migration call, a swap write, ...; one draw per epoch for
    device derating) while the epoch window ``[start_epoch, end_epoch)``
    is active; ``end_epoch=None`` leaves the window open-ended.  The
    throttle factors only apply to ``device-derate`` and must be >= 1
    (a derate never speeds a device up).
    """

    kind: str
    probability: float = 1.0
    start_epoch: int = 0
    end_epoch: "int | None" = None
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in (0, 1], got {self.probability}"
            )
        if self.start_epoch < 0:
            raise ConfigurationError("fault start epoch must be >= 0")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ConfigurationError(
                "fault window must be non-empty (end_epoch > start_epoch)"
            )
        if self.latency_factor < 1.0 or self.bandwidth_factor < 1.0:
            raise ConfigurationError("derate factors must be >= 1")
        if (
            self.kind not in _DERATE_KINDS
            and (self.latency_factor != 1.0 or self.bandwidth_factor != 1.0)
        ):
            raise ConfigurationError(
                f"throttle factors only apply to device-derate, "
                f"not {self.kind!r}"
            )

    def active_at(self, epoch: int) -> bool:
        """Whether the fault's window covers ``epoch``."""
        if epoch < self.start_epoch:
            return False
        return self.end_epoch is None or epoch < self.end_epoch

    def canonical(self) -> dict:
        """JSON-safe ordered mapping (the hashing/serialization form)."""
        return {
            "kind": self.kind,
            "probability": self.probability,
            "start_epoch": self.start_epoch,
            "end_epoch": self.end_epoch,
            "latency_factor": self.latency_factor,
            "bandwidth_factor": self.bandwidth_factor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault spec must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "kind",
            "probability",
            "start_epoch",
            "end_epoch",
            "latency_factor",
            "bandwidth_factor",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec fields: {sorted(unknown)}"
            )
        if "kind" not in data:
            raise ConfigurationError("fault spec needs a 'kind'")
        end = data.get("end_epoch")
        return cls(
            kind=str(data["kind"]),
            probability=float(data.get("probability", 1.0)),
            start_epoch=int(data.get("start_epoch", 0)),
            end_epoch=int(end) if end is not None else None,
            latency_factor=float(data.get("latency_factor", 1.0)),
            bandwidth_factor=float(data.get("bandwidth_factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A frozen schedule of faults plus the seed for their RNG streams.

    Pure-literal and hashable so plans can live inside frozen
    experiment specs; :meth:`canonical` is the JSON form used for cache
    keys and the ``repro run --faults PLAN.json`` CLI.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: by contract, running with it is *identical*
        (field-by-field) to running with no plan at all."""
        return cls()

    @property
    def empty(self) -> bool:
        return not self.faults

    def kinds(self) -> tuple[str, ...]:
        """Distinct fault kinds in the plan, in first-occurrence order."""
        seen: list[str] = []
        for spec in self.faults:
            if spec.kind not in seen:
                seen.append(spec.kind)
        return tuple(seen)

    def canonical(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.canonical() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan fields: {sorted(unknown)}"
            )
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, (list, tuple)):
            raise ConfigurationError("fault plan 'faults' must be a list")
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(FaultSpec.from_dict(item) for item in raw_faults),
        )


def merge_fault_counts(
    into: "dict[str, int]", counts: "dict[str, int]"
) -> "dict[str, int]":
    """Accumulate per-kind fault counts into ``into`` (returned).

    The roll-up primitive behind sweep-level fault accounting: each
    ``RunResult.fault_counts`` mapping folds into a sweep-wide total,
    kind by kind.  Unknown kinds are accepted (a newer worker may know
    kinds this process does not) — accounting must never drop data.
    """
    for kind, count in counts.items():
        into[str(kind)] = into.get(str(kind), 0) + int(count)
    return into


def _stream_seed(plan_seed: int, kind: str, domain_id: int = 1) -> int:
    """A stable per-kind stream seed (version/platform independent).

    Domain 1, the only guest of a single-VM run, seeds from the plan and
    the kind alone; every later guest of a multi-VM run mixes its domain
    id in, so guests sharing one plan draw different fault sequences.
    """
    text = f"{plan_seed}:{kind}"
    if domain_id != 1:
        text += f":{domain_id}"
    digest = hashlib.sha256(text.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


@dataclass
class FaultInjector:
    """Runtime fault scheduler: one seeded RNG stream per fault kind.

    Components hold a duck-typed ``faults`` attribute (``None`` by
    default) that the simulation engine points here when the run's plan
    is non-empty; each injection opportunity calls :meth:`fires` and
    degrades gracefully when a spec comes back.  Events buffer until the
    engine drains them into the telemetry bus at epoch end.
    """

    plan: FaultPlan
    #: The guest this injector serves (``Domain.domain_id``).
    domain_id: int = 1
    epoch: int = 0
    #: kind -> times the fault actually fired.
    counts: dict[str, int] = field(default_factory=dict)
    _streams: dict[str, random.Random] = field(default_factory=dict)
    _by_kind: dict[str, "list[FaultSpec]"] = field(default_factory=dict)
    _events: list = field(default_factory=list)

    def __post_init__(self) -> None:
        for spec in self.plan.faults:
            self._by_kind.setdefault(spec.kind, []).append(spec)
        for kind in self._by_kind:
            self._streams[kind] = random.Random(
                _stream_seed(self.plan.seed, kind, self.domain_id)
            )

    def advance_epoch(self, epoch: int) -> None:
        """Move the window clock; called once per epoch by the engine."""
        self.epoch = epoch

    def fires(self, kind: str) -> "FaultSpec | None":
        """Draw for one injection opportunity of ``kind``.

        Returns the first scheduled spec of that kind whose window is
        active and whose probability draw succeeds, recording the fault;
        ``None`` otherwise.  Draws only advance the *kind's* stream, and
        only for window-active specs, so plans compose without
        perturbing each other's schedules.
        """
        specs = self._by_kind.get(kind)
        if not specs:
            return None
        stream = self._streams[kind]
        for spec in specs:
            if not spec.active_at(self.epoch):
                continue
            if stream.random() < spec.probability:
                self.counts[kind] = self.counts.get(kind, 0) + 1
                self._events.append(
                    {
                        "name": "fault-" + kind,
                        "source": KIND_SOURCES[kind],
                        "epoch": self.epoch,
                    }
                )
                return spec
        return None

    def drain_events(self) -> list:
        """Return and clear fault events buffered since the last drain."""
        events = self._events
        self._events = []
        return events
