"""Placement policy interface and registry.

A :class:`PlacementPolicy` makes three kinds of decisions:

* **allocation-time**: the node preference order for each page type
  (:meth:`node_preference`), consulted by the engine for every region
  allocation;
* **epoch-time**: reclamation, hotness tracking, and migration work in
  :meth:`on_epoch_end`, whose returned nanoseconds are charged to the
  guest's virtual time as software-management overhead;
* **event-time**: reactions to I/O completion (HeteroOS-LRU's eager
  trigger), wired into the kernel's hooks by :meth:`bind`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.guestos.kernel import GuestKernel
from repro.mem.extent import PageType
from repro.vmm.channel import CoordinationChannel
from repro.vmm.domain import Domain
from repro.vmm.hotness import HotnessTracker
from repro.units import Ns
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.migration import MigrationEngine


@dataclass
class PolicyBinding:
    """Everything a policy may touch, wired up by the engine."""

    kernel: GuestKernel
    hypervisor: Hypervisor | None = None
    domain: Domain | None = None
    rng: random.Random | None = None
    #: Telemetry bus (duck-typed ``repro.obs.Telemetry``; untyped here so
    #: core stays below obs in the layering).  ``None`` when telemetry is
    #: off — policies report via :meth:`PlacementPolicy.record_decision`
    #: which no-ops in that case.
    telemetry: object | None = None

    @property
    def channel(self) -> CoordinationChannel | None:
        if self.hypervisor is None or self.domain is None:
            return None
        return self.hypervisor.channel(self.domain.domain_id)

    @property
    def tracker(self) -> HotnessTracker | None:
        if self.hypervisor is None or self.domain is None:
            return None
        return self.hypervisor.tracker(self.domain.domain_id)

    @property
    def migration_engine(self) -> MigrationEngine | None:
        if self.hypervisor is None:
            return None
        return self.hypervisor.migration_engine


class PlacementPolicy(abc.ABC):
    """Base class for all placement policies."""

    #: Registry key; subclasses must override.
    name: str = ""
    #: FastMem-only needs the runner to provision unlimited FastMem.
    requires_unlimited_fast: bool = False

    def __init__(self) -> None:
        self.binding: PolicyBinding | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, binding: PolicyBinding) -> None:
        """Attach to a guest; subclasses extend to install kernel hooks."""
        self.binding = binding

    @property
    def kernel(self) -> GuestKernel:
        if self.binding is None:
            raise ConfigurationError(f"policy {self.name!r} is not bound")
        return self.binding.kernel

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def node_preference(self, page_type: PageType) -> list[int]:
        """Node ids to try, in order, for an allocation of ``page_type``."""

    def on_epoch_start(self, epoch: int) -> Ns:
        """Per-epoch setup; returns overhead nanoseconds."""
        return 0.0

    def on_epoch_end(self, epoch: int) -> Ns:
        """Reclaim/track/migrate work; returns overhead nanoseconds."""
        return 0.0

    def on_allocated(
        self, page_type: PageType, pages: int, fast_pages: int
    ) -> None:
        """Engine callback after each region allocation (budget hooks)."""

    def on_llc_sample(self, llc_misses: float, instructions: float) -> None:
        """Engine callback with each epoch's LLC-miss counter sample
        (bare-metal policies keep their own counters; virtualized ones
        read the VMM-exported channel instead)."""

    def record_decision(self, decision: str, **data: object) -> None:
        """Report a policy decision to the telemetry bus, if attached.

        Free when telemetry is off (unbound or ``binding.telemetry`` is
        ``None``); data must be JSON-safe scalars.  The event lands in
        the current epoch's sample under source ``core.policy``.
        """
        if self.binding is None or self.binding.telemetry is None:
            return
        self.binding.telemetry.policy_event(decision, policy=self.name, **data)

    # Convenience node lookups ------------------------------------------

    def fast_first(self) -> list[int]:
        kernel = self.kernel
        return kernel.fast_node_ids + kernel.slow_node_ids

    def slow_first(self) -> list[int]:
        kernel = self.kernel
        return kernel.slow_node_ids + kernel.fast_node_ids

    def slow_only(self) -> list[int]:
        return list(self.kernel.slow_node_ids)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], PlacementPolicy]] = {}


def register_policy(
    name: str, factory: Callable[[], PlacementPolicy] | None = None
):
    """Register a policy factory; usable as a decorator on the class."""

    def _register(target: Callable[[], PlacementPolicy]):
        if name in _REGISTRY:
            raise ConfigurationError(f"policy {name!r} already registered")
        _REGISTRY[name] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def make_policy(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)  # type: ignore[call-arg]


def available_policies() -> list[str]:
    return sorted(_REGISTRY)
