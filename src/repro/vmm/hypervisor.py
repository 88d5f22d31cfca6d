"""The hypervisor facade.

Owns the machine memory, guest domains, the balloon back-end with its
sharing policy, the hotness tracker, the migration engine, and one
coordination channel per domain.  The simulation engines
(:mod:`repro.sim.engine`, :mod:`repro.sim.multi_vm`) and the placement
policies interact with the VMM exclusively through this class.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SharingError
from repro.guestos.balloon import BalloonFrontend, TierReservation
from repro.guestos.numa import MemoryNode, NodeTier, build_node
from repro.hw.memdevice import MemoryDevice
from repro.hw.tlb import Tlb
from repro.units import bytes_of_pages
from repro.vmm.balloon_backend import BalloonBackend
from repro.vmm.channel import CoordinationChannel
from repro.vmm.domain import Domain
from repro.vmm.hotness import HotnessConfig, HotnessTracker
from repro.vmm.machine import MachineMemory
from repro.vmm.migration import MigrationEngine
from repro.vmm.sharing import MaxMinSharing, SharingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guestos.kernel import GuestKernel


class Hypervisor:
    """Machine-wide VMM state and services."""

    def __init__(
        self,
        devices: dict[NodeTier, MemoryDevice],
        sharing_policy: SharingPolicy | None = None,
        hotness_config: HotnessConfig | None = None,
    ) -> None:
        self.machine = MachineMemory(devices)
        self.sharing_policy = sharing_policy or MaxMinSharing()
        self.balloon_backend = BalloonBackend(self.machine, self.sharing_policy)
        self.tlb = Tlb()
        self.migration_engine = MigrationEngine(tlb=self.tlb)
        self.channels: dict[int, CoordinationChannel] = {}
        self.trackers: dict[int, HotnessTracker] = {}
        self._hotness_config = hotness_config or HotnessConfig()
        self._domain_ids = itertools.count(1)
        self.domains: dict[int, Domain] = {}
        self.kernels: dict[int, "GuestKernel"] = {}

    # ------------------------------------------------------------------
    # Domain lifecycle
    # ------------------------------------------------------------------

    def create_domain(
        self,
        name: str,
        reservations: dict[NodeTier, TierReservation],
        weights: dict[NodeTier, float] | None = None,
    ) -> Domain:
        """Create a domain and grant its boot (minimum) reservations."""
        domain_id = next(self._domain_ids)
        domain = Domain(
            domain_id=domain_id,
            name=name,
            reservations=dict(reservations),
        )
        if weights:
            domain.weights.update(weights)
        for tier, reservation in reservations.items():
            if reservation.min_pages > 0:
                ranges = self.machine.allocate_exact_or_raise(
                    tier, reservation.min_pages
                )
                domain.record_grant(tier, ranges)
        self.domains[domain_id] = domain
        self.balloon_backend.register_domain(domain)
        self.channels[domain_id] = CoordinationChannel(domain_id=domain_id)
        self.trackers[domain_id] = HotnessTracker(
            config=self._hotness_config, tlb=self.tlb
        )
        return domain

    def build_guest_nodes(self, domain: Domain) -> dict[int, MemoryNode]:
        """Build the guest's NUMA nodes sized at each tier's *maximum*
        (balloonable) capacity; the kernel hides the unreserved part."""
        nodes: dict[int, MemoryNode] = {}
        base_frame = 0
        node_id = 0
        for tier in sorted(domain.reservations, key=lambda t: t.rank):
            reservation = domain.reservations[tier]
            if reservation.max_pages <= 0:
                continue
            device = self.machine.devices[tier].with_capacity(
                bytes_of_pages(reservation.max_pages)
            )
            nodes[node_id] = build_node(node_id, tier, device, base_frame)
            base_frame += reservation.max_pages
            node_id += 1
        if not nodes:
            raise ConfigurationError(f"domain {domain.name!r} has no memory")
        return nodes

    def attach_kernel(self, domain: Domain, kernel: "GuestKernel") -> None:
        """Register a booted guest kernel and hide its unreserved span."""
        if domain.domain_id in self.kernels:
            raise SharingError(f"domain {domain.domain_id} already attached")
        self.kernels[domain.domain_id] = kernel
        self.balloon_backend.attach_kernel(domain.domain_id, kernel)
        for node in kernel.nodes.values():
            reservation = domain.reservations.get(node.tier)
            if reservation is None:
                continue
            beyond_min = node.total_pages - reservation.min_pages
            if beyond_min > 0:
                hidden = kernel.hide_pages(node.node_id, beyond_min)
                if hidden < beyond_min:
                    raise ConfigurationError(
                        f"could not hide unreserved span on node {node.node_id}"
                    )

    def make_balloon_frontend(self, domain: Domain) -> BalloonFrontend:
        return BalloonFrontend(
            domain_id=domain.domain_id,
            backend=self.balloon_backend,
            reservations=dict(domain.reservations),
        )

    # ------------------------------------------------------------------
    # Per-domain services
    # ------------------------------------------------------------------

    def channel(self, domain_id: int) -> CoordinationChannel:
        try:
            return self.channels[domain_id]
        except KeyError:
            raise SharingError(f"unknown domain {domain_id}") from None

    def tracker(self, domain_id: int) -> HotnessTracker:
        try:
            return self.trackers[domain_id]
        except KeyError:
            raise SharingError(f"unknown domain {domain_id}") from None

    def kernel(self, domain_id: int) -> "GuestKernel":
        try:
            return self.kernels[domain_id]
        except KeyError:
            raise SharingError(f"domain {domain_id} has no kernel") from None
