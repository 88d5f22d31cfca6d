"""On-demand allocation balloon — VMM back-end (Figure 5, steps 1-3).

"The back-end in the VMM handles the node-specific requests and also
maintains the per-node (memory type) machine page number (MFN) mapping
for each of the guests.  The front-end can also specify a fallback
strategy when pages from a particular memory type cannot be provided."

Every grant is arbitrated by the configured sharing policy (max-min or
weighted DRF); reclaims the policy orders are executed against the victim
guests' kernels (balloon-out: hide free pages, swap out cold extents).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SharingError
from repro.guestos.numa import NodeTier
from repro.units import Pages
from repro.vmm.domain import Domain
from repro.vmm.machine import MachineMemory
from repro.vmm.sharing import Reclaim, SharingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guestos.kernel import GuestKernel


class BalloonBackend:
    """Implements :class:`repro.guestos.balloon.BalloonBackendProtocol`."""

    def __init__(self, machine: MachineMemory, policy: SharingPolicy) -> None:
        self.machine = machine
        self.policy = policy
        self.domains: dict[int, Domain] = {}
        self._kernels: dict[int, "GuestKernel"] = {}
        self.reclaimed_pages = 0
        self.granted_pages = 0
        #: Duck-typed :class:`repro.faults.FaultInjector` per guest, keyed
        #: by domain id: one back-end serves every guest, and each guest
        #: draws from its own plan.  Empty (the default) keeps the exact
        #: fault-free code path.
        self.faults: dict[int, object] = {}

    def register_domain(self, domain: Domain) -> None:
        if domain.domain_id in self.domains:
            raise SharingError(f"domain {domain.domain_id} already registered")
        self.domains[domain.domain_id] = domain

    def attach_kernel(self, domain_id: int, kernel: "GuestKernel") -> None:
        if domain_id not in self.domains:
            raise SharingError(f"unknown domain {domain_id}")
        self._kernels[domain_id] = kernel

    # ------------------------------------------------------------------
    # BalloonBackendProtocol
    # ------------------------------------------------------------------

    def request_pages(
        self, domain_id: int, tier: NodeTier, pages: Pages, allow_fallback: bool
    ) -> dict[NodeTier, int]:
        requester = self._domain(domain_id)
        faults = self.faults.get(domain_id) if self.faults else None
        if faults is not None and faults.fires("balloon-refuse") is not None:
            # Transient refusal: the back-end answers with an empty
            # grant, exactly what a dry machine pool produces — the
            # front-end's shortfall handling (reclaim, swap, drop)
            # degrades the request instead of failing it.
            return {}
        granted: dict[NodeTier, int] = {}
        got = self._grant_tier(requester, tier, pages)
        if got:
            granted[tier] = got
        shortfall = pages - got
        if shortfall > 0 and allow_fallback:
            for other in self._fallback_order(tier):
                if shortfall <= 0:
                    break
                extra = self._grant_tier(requester, other, shortfall)
                if extra:
                    granted[other] = granted.get(other, 0) + extra
                    shortfall -= extra
        return granted

    def return_pages(self, domain_id: int, tier: NodeTier, pages: Pages) -> None:
        domain = self._domain(domain_id)
        ranges = domain.surrender(tier, pages)
        self.machine.free(tier, ranges)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grant_tier(
        self, requester: Domain, tier: NodeTier, pages: Pages
    ) -> Pages:
        decision = self.policy.arbitrate(
            requester, tier, pages, self.machine, list(self.domains.values())
        )
        total = 0
        if decision.granted_from_pool > 0:
            ranges = self.machine.allocate(tier, decision.granted_from_pool)
            requester.record_grant(tier, ranges)
            total += decision.granted_from_pool
        for reclaim in decision.reclaims:
            recovered = self._execute_reclaim(reclaim)
            if recovered > 0:
                ranges = self.machine.allocate(tier, recovered)
                requester.record_grant(tier, ranges)
                total += recovered
        self.granted_pages += total
        return total

    def _execute_reclaim(self, reclaim: Reclaim) -> int:
        """Balloon pages out of the victim; returns pages recovered.

        Only the victim's *idle* (free) pages are taken — ballooning
        cannot forcibly swap out a neighbour's in-use data.  This is
        precisely why a VM that grows late loses under max-min: its
        reserved-but-idle pages are gone, and the pages cannot be pulled
        back once the thief is using them (Section 5.5).
        """
        kernel = self._kernels.get(reclaim.victim.domain_id)
        if kernel is None:
            return 0
        node = kernel.node_for_tier(reclaim.tier)
        hidden = kernel.hide_pages(
            node.node_id, min(reclaim.pages, node.free_pages)
        )
        if hidden <= 0:
            return 0
        ranges = reclaim.victim.surrender(reclaim.tier, hidden)
        self.machine.free(reclaim.tier, ranges)
        self.reclaimed_pages += hidden
        return hidden

    def _fallback_order(self, tier: NodeTier) -> list[NodeTier]:
        """Other tiers by increasing distance in speed rank."""
        others = [t for t in self.machine.pools if t is not tier]
        return sorted(others, key=lambda t: abs(t.rank - tier.rank))

    def _domain(self, domain_id: int) -> Domain:
        domain = self.domains.get(domain_id)
        if domain is None:
            raise SharingError(f"unknown domain {domain_id}")
        return domain
