"""Single-VM epoch-driven simulation engine.

Each epoch the engine:

1. resets the kernel's per-epoch statistics and runs the policy's
   epoch-start hook (budget computation);
2. applies the workload's frees and allocations, routing every region
   through the policy's node preference and reporting grants back via
   ``on_allocated``;
3. records the accesses (LRU recency, extent temperatures, access bits,
   swap-ins);
4. feeds the epoch's region accesses through the LLC model, splits the
   resulting misses across memory devices by extent placement, and
   exports the LLC-miss count over the coordination channel (Eq. 1);
5. runs the policy's epoch-end hook (LRU demotions, hotness scans,
   migrations) whose cost — plus kernel-internal swap costs — is charged
   as software-management overhead;
6. advances virtual time: CPU + I/O wait + per-device stalls + overhead.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.config import SimConfig
from repro.core.policy import PlacementPolicy, PolicyBinding
from repro.errors import OutOfMemoryError
from repro.faults import FaultInjector
from repro.guestos.balloon import TierReservation
from repro.guestos.kernel import GuestKernel
from repro.guestos.numa import NodeTier
from repro.hw.cache import LastLevelCache
from repro.hw.endurance import WearTracker
from repro.hw.memdevice import MemoryDevice, topology_sort_key
from repro.hw.throttle import ThrottleConfig, throttled_device
from repro.hw.timing import DeviceDemand, MemoryTimingModel
from repro.mem.extent import PageType
from repro.obs.bus import Telemetry
from repro.obs.sample import SAMPLE_FORMAT_VERSION, EpochSample
from repro.sim import fast
from repro.sim.stats import RunResult, RunStats
from repro.vmm.domain import Domain
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.sharing import MaxMinSharing
from repro.workloads.base import EpochDemand, RegionSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.sanitizer import FrameSanitizer

#: Effect contract for every ``SimulationEngine.step`` phase, consumed
#: statically by the heteroeffect certifier (``repro certify``) — it is
#: read with ``ast.literal_eval``, never imported, so it must stay a
#: pure literal.  Per phase: ``roots`` are the methods the phase
#: executes; ``writes`` are the attribute locations the phase owns and
#: may mutate (trailing ``*`` is a wildcard); ``assume`` accepts
#: opaque/polymorphic call patterns on trust, each with its
#: justification.  Phases whose ledger entry lists violations (demand,
#: cache, policy) are impure by design — they mutate kernel, wear and
#: policy state, partly through dynamic dispatch.  The certified phases
#: (timing, sample) must stay certified.
STEP_PHASES = {
    "demand": {
        "roots": ["SimulationEngine._demand_phase"],
        "writes": ["SimulationEngine.region_specs"],
        "assume": {},
    },
    "cache": {
        "roots": ["SimulationEngine._memory_demands"],
        "writes": [],
        "assume": {},
    },
    "policy": {
        "roots": ["SimulationEngine._policy_phase"],
        "writes": [],
        "assume": {},
    },
    "timing": {
        "roots": ["SimulationEngine._timing_phase"],
        "writes": ["RunStats.stall_ns_by_device"],
        "assume": {},
    },
    "sample": {
        "roots": ["SimulationEngine._sample_epoch"],
        "writes": [
            "SimulationEngine._prev_*",
            "SimulationEngine._run_opened",
            "Telemetry._pending_events",
        ],
        "assume": {
            "?.on_start": (
                "sink fan-out; sinks only observe (no-perturbation "
                "contract, pinned by the obs test suite)"
            ),
            "?.on_sample": (
                "sink fan-out; sinks only observe (no-perturbation "
                "contract, pinned by the obs test suite)"
            ),
        },
    },
}


def _profiled(profiler, name: str, method):
    """``method``, timed under ``name`` by ``profiler.phase``."""

    def timed(*args, **kwargs):
        with profiler.phase(name):
            return method(*args, **kwargs)

    return timed


def build_single_vm(
    config: SimConfig,
) -> tuple[Hypervisor, Domain, GuestKernel]:
    """Construct a hypervisor hosting exactly one fully-reserved guest."""
    devices: dict[NodeTier, MemoryDevice] = {
        NodeTier.SLOW: config.resolved_slow_device()
    }
    if config.fast_pages > 0:
        devices[NodeTier.FAST] = config.resolved_fast_device()
    return build_custom_vm(devices, config)


def build_custom_vm(
    devices: dict[NodeTier, MemoryDevice],
    config: SimConfig | None = None,
) -> tuple[Hypervisor, Domain, GuestKernel]:
    """Construct a single fully-reserved guest over arbitrary tiers.

    Useful for multi-level-memory experiments (FAST + MEDIUM + SLOW
    nodes, Section 4.3) where :class:`SimConfig`'s two-tier shorthand
    does not apply; each device's capacity becomes its tier's
    reservation.
    """
    config = config or SimConfig()
    from repro.units import pages_of_bytes

    reservations: dict[NodeTier, TierReservation] = {
        tier: TierReservation(
            pages_of_bytes(device.capacity_bytes),
            pages_of_bytes(device.capacity_bytes),
        )
        for tier, device in devices.items()
    }
    hypervisor = Hypervisor(
        devices,
        sharing_policy=MaxMinSharing(),
        hotness_config=config.hotness_config,  # type: ignore[arg-type]
    )
    domain = hypervisor.create_domain("vm0", reservations)
    nodes = hypervisor.build_guest_nodes(domain)
    kernel = GuestKernel(
        nodes,
        cpus=config.cpus,
        balloon=hypervisor.make_balloon_frontend(domain),
    )
    hypervisor.attach_kernel(domain, kernel)
    return hypervisor, domain, kernel


class SimulationEngine:
    """Drives one workload over one guest under one placement policy."""

    def __init__(
        self,
        config: SimConfig,
        workload: Workload,
        policy: PlacementPolicy,
        hypervisor: Hypervisor | None = None,
        domain: Domain | None = None,
        kernel: GuestKernel | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.workload = workload
        self.policy = policy
        if hypervisor is None or domain is None or kernel is None:
            hypervisor, domain, kernel = build_single_vm(config)
        self.hypervisor = hypervisor
        self.domain = domain
        self.kernel = kernel
        self.cache = LastLevelCache(config.llc)
        self.timing = MemoryTimingModel(config.cpu)
        self.wear = WearTracker()
        self.rng = random.Random(config.seed)
        #: Frame-ownership shadow checker (SimConfig(sanitize=True)).
        self.sanitizer: FrameSanitizer | None = None
        if config.sanitize:
            from repro.devtools.sanitizer import FrameSanitizer

            self.sanitizer = FrameSanitizer()
            self.sanitizer.attach_kernel(kernel)
        #: Fault injector (repro.faults); ``None`` — the overwhelmingly
        #: common case — means no plan was configured and every injection
        #: site short-circuits on its ``faults is None`` check, keeping
        #: the exact seed code path (the no-perturbation contract).
        self.faults: FaultInjector | None = None
        if config.fault_plan is not None and not config.fault_plan.empty:
            self.faults = FaultInjector(config.fault_plan)
            kernel.swap.faults = self.faults
            hypervisor.migration_engine.faults = self.faults
            hypervisor.balloon_backend.faults = self.faults
            hypervisor.channel(domain.domain_id).faults = self.faults
            hypervisor.tracker(domain.domain_id).faults = self.faults
        self.region_specs: dict[str, RegionSpec] = {}
        self.stats = RunStats()
        #: Telemetry bus; sampling happens only when one is attached and
        #: enabled — otherwise step() takes the exact untelemetered path.
        self.telemetry = telemetry
        self._sampling = telemetry is not None and telemetry.enabled
        if self._sampling and telemetry.profiler is not None:
            self._profile_phases(telemetry.profiler)
        policy.bind(
            PolicyBinding(
                kernel=kernel, hypervisor=hypervisor, domain=domain,
                rng=self.rng,
                telemetry=telemetry if self._sampling else None,
            )
        )
        #: node id -> the node's device, with equal devices collapsed to
        #: one instance so the demand pass can key per-device columns by
        #: identity instead of the field-walking dataclass hash.  Built
        #: once: nothing reassigns a node's device after ``build_node``.
        canonical: dict[MemoryDevice, MemoryDevice] = {}
        self._node_devices = {
            node_id: canonical.setdefault(node.device, node.device)
            for node_id, node in kernel.nodes.items()
        }
        #: The slowest device, used to account swapped extents' misses
        #: (one of the canonical instances).
        self._slowest_device = min(
            self._node_devices.values(), key=lambda d: d.bandwidth_gbps
        )
        if self._sampling:
            assert telemetry is not None
            hypervisor.migration_engine.observer = telemetry.migration_event
            # Baselines for cumulative counters sampled as per-epoch
            # deltas (policy/kernel state may be reused across engines).
            self._prev_tlb = hypervisor.tlb.snapshot()
            self._prev_migrated = int(getattr(policy, "pages_migrated", 0))
            self._prev_demoted = int(getattr(policy, "pages_demoted", 0))
            self._prev_scan_cost = float(getattr(policy, "scan_cost_ns", 0.0))
            self._prev_migration_cost = float(
                getattr(policy, "migration_cost_ns", 0.0)
            )
            self._prev_swap_out = kernel.swap.stats.pages_out
            self._prev_swap_in = kernel.swap.stats.pages_in
            self._run_opened = False

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, epochs: int | None = None) -> RunResult:
        count = epochs if epochs is not None else self.workload.default_epochs()
        for demand in self.workload.epochs(count):
            self.step(demand)
        return self.result()

    def _profile_phases(self, profiler) -> None:
        """Time each ``STEP_PHASES`` phase under its name: the phase's
        root method is wrapped, on this instance only, in
        ``profiler.phase(name)``.  An engine built without a profiler
        keeps the plain class methods, so ``step`` pays nothing for the
        bracket."""
        for name, phase in STEP_PHASES.items():
            for root in phase["roots"]:
                attribute = root.split(".")[1]
                setattr(self, attribute, _profiled(
                    profiler, name, getattr(self, attribute)
                ))

    def step(self, demand: EpochDemand) -> None:
        """Advance one epoch."""
        epoch = demand.epoch
        kernel = self.kernel
        derate = None
        if self.faults is not None:
            self.faults.advance_epoch(epoch)
            # One derate draw per epoch: while it holds, every device
            # serves this epoch's misses through a throttled shadow.
            derate = self.faults.fires("device-derate")
        kernel.begin_epoch(epoch)
        overhead_ns = self.policy.on_epoch_start(epoch)

        self._demand_phase(demand)
        device_demands, llc_misses = self._memory_demands(demand)
        channel = self.hypervisor.channel(self.domain.domain_id)
        channel.vmm_record_epoch(llc_misses, demand.instructions)
        self.policy.on_llc_sample(llc_misses, demand.instructions)

        overhead_ns += self._policy_phase(epoch)
        kernel_cost_ns = kernel.drain_pending_cost()

        cpu_ns, stall_total, epoch_stalls = self._timing_phase(
            demand, device_demands, derate
        )

        # Both totals add from 0, left to right, as units.plain_sum
        # does (never sum(): 3.12's is compensated); loops, as this
        # runs every epoch.
        epoch_traffic = 0
        for device_demand in device_demands.values():
            epoch_traffic += device_demand.traffic_bytes
        epoch_accesses = 0
        for reads, writes in demand.accesses.values():
            epoch_accesses += reads + writes
        self.stats.epochs += 1
        self.stats.cpu_ns += cpu_ns
        self.stats.io_wait_ns += demand.io_wait_ns
        self.stats.policy_overhead_ns += overhead_ns
        self.stats.kernel_cost_ns += kernel_cost_ns
        self.stats.instructions += demand.instructions
        self.stats.llc_misses += llc_misses
        self.stats.traffic_bytes += epoch_traffic
        self.stats.total_accesses += epoch_accesses
        epoch_runtime_ns = (
            cpu_ns + demand.io_wait_ns + stall_total + overhead_ns
            + kernel_cost_ns
        )
        self.stats.runtime_ns += epoch_runtime_ns

        if self.faults is not None:
            # Forward the epoch's fault records to the bus (they land in
            # this epoch's sample); drained unconditionally so an
            # untelemetered run cannot accumulate them.
            for event in self.faults.drain_events():
                if self._sampling:
                    self.telemetry.event(
                        event["name"], event["source"], epoch=event["epoch"]
                    )

        if self._sampling:
            self._sample_epoch(
                demand=demand,
                device_demands=device_demands,
                epoch_stalls=epoch_stalls,
                llc_misses=llc_misses,
                cpu_ns=cpu_ns,
                overhead_ns=overhead_ns,
                kernel_cost_ns=kernel_cost_ns,
                epoch_runtime_ns=epoch_runtime_ns,
                epoch_traffic=epoch_traffic,
                epoch_accesses=epoch_accesses,
            )

    # ------------------------------------------------------------------
    # Phase bodies (the units STEP_PHASES certifies)
    # ------------------------------------------------------------------

    def _demand_phase(self, demand: EpochDemand) -> None:
        """The workload's frees, then its allocations, then its
        accesses."""
        self._apply_frees(demand)
        self._apply_allocs(demand)
        self._apply_touches(demand)

    def _policy_phase(self, epoch: int) -> float:
        """Policy epoch-end hook (LRU demotions, hotness scans,
        migrations); dynamic dispatch into the bound policy, so this
        phase is impure by design and never certified."""
        return self.policy.on_epoch_end(epoch)

    def _timing_phase(
        self,
        demand: EpochDemand,
        device_demands: dict[MemoryDevice, DeviceDemand],
        derate,
    ) -> tuple[float, float, dict[str, float]]:
        """Charge this epoch's CPU time and per-device stalls.

        Pure but for the declared ``RunStats.stall_ns_by_device``
        accumulation — certified in the heteroeffect ledger, which
        makes it the first candidate for the vectorized fast path.
        """
        cpu_ns = self.timing.cpu.cpu_ns(demand.instructions)
        # Deterministic topology order (fastest first) so per-device
        # accumulators and timelines are byte-stable across runs.
        stall_total = 0.0
        epoch_stalls: dict[str, float] = {}
        for device, device_demand in sorted(
            device_demands.items(), key=lambda item: topology_sort_key(item[0])
        ):
            timed = device
            if derate is not None:
                # Transient degradation: stalls are computed against
                # a derated shadow device; demand routing, wear, and
                # accounting keys keep the real device.
                timed = throttled_device(
                    ThrottleConfig(
                        derate.latency_factor, derate.bandwidth_factor
                    ),
                    base=device,
                    name=device.name,
                    capacity_bytes=device.capacity_bytes,
                )
            stall = self.timing.stall_ns(
                timed, device_demand, self.workload.mlp
            )
            self.stats.add_stall(device.name, stall)
            epoch_stalls[device.name] = stall
            stall_total += stall
        return cpu_ns, stall_total, epoch_stalls

    # ------------------------------------------------------------------
    # Telemetry sampling
    # ------------------------------------------------------------------

    def _sample_epoch(
        self,
        *,
        demand: EpochDemand,
        device_demands: dict[MemoryDevice, DeviceDemand],
        epoch_stalls: dict[str, float],
        llc_misses: float,
        cpu_ns: float,
        overhead_ns: float,
        kernel_cost_ns: float,
        epoch_runtime_ns: float,
        epoch_traffic: float,
        epoch_accesses: float,
    ) -> None:
        """Publish this epoch's :class:`EpochSample` to the bus.

        Additive fields carry the *exact* values just added to the
        ``RunStats`` accumulators, so re-summing a timeline in epoch
        order reproduces the final aggregates bit-for-bit.  Cumulative
        policy/TLB/swap counters are sampled as deltas against the
        previous epoch's snapshot.
        """
        telemetry = self.telemetry
        assert telemetry is not None
        if not self._run_opened:
            self._run_opened = True
            telemetry.open_run(
                {
                    "format_version": SAMPLE_FORMAT_VERSION,
                    "workload": self.workload.name,
                    "policy": self.policy.name,
                    "metric": self.workload.metric,
                    "seed": self.config.seed,
                }
            )
        kernel = self.kernel
        policy = self.policy
        tlb_now = self.hypervisor.tlb.snapshot()
        tlb_delta = tlb_now.delta(self._prev_tlb)
        self._prev_tlb = tlb_now
        migrated = int(getattr(policy, "pages_migrated", 0))
        demoted = int(getattr(policy, "pages_demoted", 0))
        scan_cost = float(getattr(policy, "scan_cost_ns", 0.0))
        migration_cost = float(getattr(policy, "migration_cost_ns", 0.0))
        swap_out = kernel.swap.stats.pages_out
        swap_in = kernel.swap.stats.pages_in
        fast_used = sum(
            kernel.nodes[nid].used_pages for nid in kernel.fast_node_ids
        )
        fast_free = sum(
            kernel.nodes[nid].free_pages for nid in kernel.fast_node_ids
        )
        traffic_by_device = {
            device.name: device_demands[device].traffic_bytes
            for device in sorted(device_demands, key=topology_sort_key)
        }
        alloc_by_type: dict[str, list] = {}
        requested = 0
        granted = 0
        for page_type in sorted(kernel.epoch_stats, key=lambda pt: pt.value):
            type_stats = kernel.epoch_stats[page_type]
            if type_stats.requested_pages == 0:
                continue
            alloc_by_type[page_type.value] = [
                type_stats.requested_pages,
                type_stats.fast_granted_pages,
            ]
            requested += type_stats.requested_pages
            granted += type_stats.fast_granted_pages
        sample = EpochSample(
            epoch=demand.epoch,
            runtime_ns=epoch_runtime_ns,
            cpu_ns=cpu_ns,
            io_wait_ns=demand.io_wait_ns,
            policy_overhead_ns=overhead_ns,
            kernel_cost_ns=kernel_cost_ns,
            instructions=demand.instructions,
            llc_misses=llc_misses,
            llc_misses_cumulative=self.stats.llc_misses,
            traffic_bytes=epoch_traffic,
            total_accesses=epoch_accesses,
            tlb_flushes=tlb_delta.flushes,
            tlb_shootdowns=tlb_delta.shootdowns,
            pages_migrated=migrated - self._prev_migrated,
            pages_demoted=demoted - self._prev_demoted,
            scan_cost_ns=scan_cost - self._prev_scan_cost,
            migration_cost_ns=migration_cost - self._prev_migration_cost,
            swap_pages_out=swap_out - self._prev_swap_out,
            swap_pages_in=swap_in - self._prev_swap_in,
            fast_used_pages=fast_used,
            fast_free_pages=fast_free,
            alloc_requested_pages=requested,
            alloc_fast_granted_pages=granted,
            stall_ns_by_device=epoch_stalls,
            traffic_by_device=traffic_by_device,
            alloc_by_type=alloc_by_type,
            occupancy=kernel.occupancy_snapshot(),
            events=telemetry.drain_events(),
        )
        self._prev_migrated = migrated
        self._prev_demoted = demoted
        self._prev_scan_cost = scan_cost
        self._prev_migration_cost = migration_cost
        self._prev_swap_out = swap_out
        self._prev_swap_in = swap_in
        telemetry.publish(sample)

    # ------------------------------------------------------------------
    # Demand application
    # ------------------------------------------------------------------

    def _apply_frees(self, demand: EpochDemand) -> None:
        kernel = self.kernel
        regions = kernel.regions
        for region_id in demand.frees:
            if region_id in regions:
                kernel.free_region(region_id)
            self.region_specs.pop(region_id, None)

    def _apply_allocs(self, demand: EpochDemand) -> None:
        kernel = self.kernel
        fast_nodes = kernel._fast_node_set
        for region_id, spec in demand.allocs:
            preference = self.policy.node_preference(spec.page_type)
            try:
                extents = kernel.allocate_region(
                    region_id, spec.page_type, spec.pages, preference
                )
            except OutOfMemoryError:
                extents = self._allocate_under_pressure(
                    region_id, spec, preference
                )
                if extents is None:
                    self.stats.dropped_allocation_pages += spec.pages
                    continue
            fast_pages = 0
            for extent in extents:
                if extent.node_id in fast_nodes:
                    fast_pages += extent.pages
            self.policy.on_allocated(spec.page_type, spec.pages, fast_pages)
            self.region_specs[region_id] = spec

    def _allocate_under_pressure(
        self, region_id: str, spec: RegionSpec, preference: list[int]
    ):
        """Genuine OOM path: reclaim (swap out cold pages) and retry once
        — what a real guest's direct reclaim does.  Returns ``None`` when
        even reclaim cannot make room."""
        kernel = self.kernel
        for node_id in kernel.slow_node_ids or list(kernel.nodes):
            kernel.shrink_node(node_id, spec.pages)
        try:
            return kernel.allocate_region(
                region_id, spec.page_type, spec.pages, preference
            )
        except OutOfMemoryError:
            return None

    def _apply_touches(self, demand: EpochDemand) -> None:
        kernel = self.kernel
        regions = kernel.regions
        for region_id, (reads, writes) in demand.accesses.items():
            if region_id in regions:
                kernel.touch_region(region_id, reads + writes, writes=writes)

    # ------------------------------------------------------------------
    # Cache + placement accounting
    # ------------------------------------------------------------------

    def _memory_demands(
        self, demand: EpochDemand
    ) -> tuple[dict[MemoryDevice, DeviceDemand], float]:
        """Per-device demand and the epoch's LLC misses
        (:func:`repro.sim.fast.fast_memory_demands`).  Looked up on the
        module at call time, so a wrapper installed there is honoured."""
        return fast.fast_memory_demands(self, demand)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def result(self) -> RunResult:
        kernel = self.kernel
        policy = self.policy
        sanitizer_reports: list = []
        if self.sanitizer is not None:
            self.sanitizer.reconcile(kernel)
            sanitizer_reports = list(self.sanitizer.reports)
        # Deterministic topology order for the per-device stall map:
        # insertion order depends on which epoch first touched a device,
        # so normalise before the dict reaches timelines or caches.
        devices_by_name = {
            node.device.name: node.device for node in kernel.nodes.values()
        }
        self.stats.stall_ns_by_device = {
            name: self.stats.stall_ns_by_device[name]
            for name in sorted(
                self.stats.stall_ns_by_device,
                key=lambda n: (
                    topology_sort_key(devices_by_name[n])
                    if n in devices_by_name
                    else (float("inf"), 0.0, n)
                ),
            )
        }
        timeline = None
        if self._sampling:
            assert self.telemetry is not None
            self.telemetry.close_run(self._summary())
            timeline = self.telemetry.timeline()
        return RunResult(
            workload_name=self.workload.name,
            policy_name=policy.name,
            metric=self.workload.metric,
            work_units_per_epoch=self.workload.work_units_per_epoch,
            stats=self.stats,
            alloc_stats=dict(kernel.cumulative_stats),
            page_distribution=dict(kernel.distribution.allocated),
            pages_migrated=getattr(policy, "pages_migrated", 0),
            pages_demoted=getattr(policy, "pages_demoted", 0),
            scan_cost_ns=getattr(policy, "scan_cost_ns", 0.0),
            migration_cost_ns=getattr(policy, "migration_cost_ns", 0.0),
            swap_pages_out=kernel.swap.stats.pages_out,
            swap_pages_in=kernel.swap.stats.pages_in,
            device_write_bytes=dict(self.wear.write_bytes),
            device_lifetime_years={
                name: self.wear.lifetime_years(name, self.stats.runtime_ns)
                for name in self.wear.write_bytes
            },
            sanitizer_reports=sanitizer_reports,
            fault_counts=(
                {
                    kind: self.faults.counts[kind]
                    for kind in sorted(self.faults.counts)
                }
                if self.faults is not None
                else {}
            ),
            timeline=timeline,
        )

    def close(self) -> None:
        """Release the guest's frame maps (every zone's
        :meth:`~repro.guestos.buddy.BuddyAllocator.close`).  Idempotent;
        call it after :meth:`result`.  The engine is unusable afterwards:
        any allocation or free in its guest raises ``ValueError``."""
        for node in self.kernel.nodes.values():
            for zone in node.zones:
                zone.buddy.close()

    def _summary(self) -> dict:
        """Final JSON-safe aggregates for the telemetry summary record."""
        policy = self.policy
        kernel = self.kernel
        return {
            "format_version": SAMPLE_FORMAT_VERSION,
            "workload": self.workload.name,
            "policy": policy.name,
            "epochs": self.stats.epochs,
            "runtime_ns": self.stats.runtime_ns,
            "cpu_ns": self.stats.cpu_ns,
            "io_wait_ns": self.stats.io_wait_ns,
            "stall_ns_by_device": dict(self.stats.stall_ns_by_device),
            "policy_overhead_ns": self.stats.policy_overhead_ns,
            "kernel_cost_ns": self.stats.kernel_cost_ns,
            "instructions": self.stats.instructions,
            "llc_misses": self.stats.llc_misses,
            "mpki": self.stats.mpki,
            "traffic_bytes": self.stats.traffic_bytes,
            "total_accesses": self.stats.total_accesses,
            "pages_migrated": int(getattr(policy, "pages_migrated", 0)),
            "pages_demoted": int(getattr(policy, "pages_demoted", 0)),
            "scan_cost_ns": float(getattr(policy, "scan_cost_ns", 0.0)),
            "migration_cost_ns": float(
                getattr(policy, "migration_cost_ns", 0.0)
            ),
            "swap_pages_out": kernel.swap.stats.pages_out,
            "swap_pages_in": kernel.swap.stats.pages_in,
        }
