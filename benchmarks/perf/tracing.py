"""Outside-in layer tracing for the benchmark's traced runs.

The simulator is not instrumented: :func:`install` replaces each layer
boundary named in :data:`BOUNDARIES` (a class attribute, or a module
function) with a wrapper that records a span around the original, and
:meth:`Tracer.uninstall` puts the originals back.  Methods are wrapped
on the named class *and* on every loaded subclass that defines its own
override, all under one span name, so a ``super()`` chain through the
same boundary is re-entrant; re-entry folds into the span already open
instead of opening a child (see :meth:`Tracer.enter`).

A span's self time is its duration minus the durations of its direct
children.  Root spans are the benchmark's own ops (``bench.*`` and
``figure.<name>``), so the self time of the roots is the host time no
layer boundary claims: the explicit unattributed bucket.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter_ns

#: Span name -> (module, attribute path).  A dotted attribute path is a
#: class attribute; a bare name is a module function.  The span names
#: are the per-layer metric names (``<name>.calls``, ``<name>.self_pct``).
BOUNDARIES: "dict[str, tuple[str, str]]" = {
    "guestos.buddy.allocate_pages":
        ("repro.guestos.buddy", "BuddyAllocator.allocate_pages"),
    "guestos.buddy.free_span":
        ("repro.guestos.buddy", "BuddyAllocator.free_span"),
    "guestos.kernel.allocate_region":
        ("repro.guestos.kernel", "GuestKernel.allocate_region"),
    "guestos.kernel.free_region":
        ("repro.guestos.kernel", "GuestKernel.free_region"),
    "guestos.kernel.touch_region":
        ("repro.guestos.kernel", "GuestKernel.touch_region"),
    "guestos.kernel.move_extent":
        ("repro.guestos.kernel", "GuestKernel.move_extent"),
    "guestos.kernel.split_extent":
        ("repro.guestos.kernel", "GuestKernel.split_extent"),
    "guestos.kernel.drop_io_extent":
        ("repro.guestos.kernel", "GuestKernel.drop_io_extent"),
    "guestos.lru.scan":
        ("repro.guestos.lru", "SplitLru.scan"),
    "guestos.balloon.request":
        ("repro.guestos.balloon", "BalloonFrontend.request"),
    "guestos.swap.swap_out":
        ("repro.guestos.swap", "SwapDevice.swap_out"),
    "guestos.swap.swap_in":
        ("repro.guestos.swap", "SwapDevice.swap_in"),
    "guestos.pagecache.insert":
        ("repro.guestos.pagecache", "PageCache.insert"),
    "guestos.pagecache.writeback":
        ("repro.guestos.pagecache", "PageCache.writeback"),
    "core.policy.node_preference":
        ("repro.core.policy", "PlacementPolicy.node_preference"),
    "core.policy.on_allocated":
        ("repro.core.policy", "PlacementPolicy.on_allocated"),
    "core.policy.on_epoch_start":
        ("repro.core.policy", "PlacementPolicy.on_epoch_start"),
    "core.policy.on_epoch_end":
        ("repro.core.policy", "PlacementPolicy.on_epoch_end"),
    "vmm.hotness.scan":
        ("repro.vmm.hotness", "HotnessTracker.scan"),
    "vmm.migration.migrate":
        ("repro.vmm.migration", "MigrationEngine.migrate"),
    "vmm.sharing.arbitrate":
        ("repro.vmm.sharing", "SharingPolicy.arbitrate"),
    "hw.cache.apportion":
        ("repro.hw.cache", "LastLevelCache.apportion"),
    "hw.timing.stall_ns":
        ("repro.hw.timing", "MemoryTimingModel.stall_ns"),
    "workloads.epochs":
        ("repro.workloads.base", "Workload.epochs"),
    "sim.fast.fast_memory_demands":
        ("repro.sim.fast", "fast_memory_demands"),
    "sim.engine.__init__":
        ("repro.sim.engine", "SimulationEngine.__init__"),
    "sim.engine.step":
        ("repro.sim.engine", "SimulationEngine.step"),
    "sim.engine.result":
        ("repro.sim.engine", "SimulationEngine.result"),
    "sim.multi_vm.run":
        ("repro.sim.multi_vm", "MultiVmSimulation.run"),
    "sim.parallel.run_specs":
        ("repro.sim.parallel", "run_specs"),
    "sim.parallel.source_fingerprint":
        ("repro.sim.parallel", "source_fingerprint"),
    "sim.parallel.ResultCache.lookup":
        ("repro.sim.parallel", "ResultCache.lookup"),
    "sim.parallel.ResultCache.store":
        ("repro.sim.parallel", "ResultCache.store"),
    "serve.client.submit":
        ("repro.serve.client", "ServeClient.submit"),
    "serve.client.wait":
        ("repro.serve.client", "ServeClient.wait"),
}

#: Boundaries whose wrapped callable is a generator function: the span
#: covers each ``next()`` (one epoch's demand), not the generator call.
GENERATORS = frozenset({"workloads.epochs"})

#: Modules imported before wrapping so every subclass override of a
#: wrapped method is loaded and found (policy, workload and sharing
#: registries, and the array-backed fast path's subclasses).
_PRELOAD = (
    "repro.core",
    "repro.workloads.registry",
    "repro.workloads.fig13",
    "repro.vmm.drf",
    "repro.sim.fast",
    "repro.sim.multi_vm",
    "repro.sim.parallel",
    "repro.serve.client",
)

# Positions in an open-span frame (a list, mutated in place).
_NAME, _START, _CHILD_NS, _ID, _PARENT = range(5)


class Tracer:
    """In-memory span recorder: per-name aggregates, optional raw spans."""

    def __init__(self) -> None:
        self.calls: "dict[str, int]" = {}
        self.self_ns: "dict[str, int]" = {}
        #: Raw spans ``(name, start_ns, end_ns, id, parent_id, request)``,
        #: kept while fewer than :attr:`raw_limit` (0: none kept).
        self.raw: "list[tuple]" = []
        self.raw_limit = 0
        #: The op (cell, figure, job) spans are attributed to.
        self.request: "str | None" = None
        self._stack: "list[list]" = []
        self._next_id = 1
        self._undo: "list[tuple[object, str, object]]" = []
        self._pid = os.getpid()
        self._active = True
        # A forked worker (sweep pool, serve daemon) inherits the
        # wrappers but nobody collects its spans: stop recording there.
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self._active = False

    # -- span bookkeeping ----------------------------------------------

    def enter(self, name: str) -> "list | None":
        """Open a span; ``None`` when it folds into the open span of the
        same name (a re-entrant ``super()`` chain) or runs in a forked
        child whose spans nobody collects."""
        stack = self._stack
        if not self._active or (stack and stack[-1][_NAME] == name):
            return None
        parent = stack[-1][_ID] if stack else 0
        frame = [name, perf_counter_ns(), 0, self._next_id, parent]
        self._next_id += 1
        stack.append(frame)
        return frame

    def exit(self, frame: "list | None") -> None:
        if frame is None:
            return
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - frame[_START]
        name = frame[_NAME]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = (
            self.self_ns.get(name, 0) + duration - frame[_CHILD_NS]
        )
        if stack:
            stack[-1][_CHILD_NS] += duration
        if len(self.raw) < self.raw_limit:
            self.raw.append(
                (name, frame[_START], end, frame[_ID], frame[_PARENT],
                 self.request)
            )

    @contextmanager
    def span(self, name: str):
        """Context manager form, for the benchmark's own root spans."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn, generator: bool = False):
        tracer = self
        if generator:
            def traced_generator(*args, **kwargs):
                return _TracedIterator(tracer, name, fn(*args, **kwargs))

            return traced_generator

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute,
                self.wrap(name, original, name in GENERATORS))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The raw spans as a Chrome trace (``chrome://tracing``).

        Timestamps stay on the monotonic clock, which every process on
        the host shares, so traces from several processes merge."""
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": self._pid,
                    "tid": 0,
                    "args": {"id": span_id, "parent": parent,
                             "request": request},
                }
                for name, start, end, span_id, parent, request in self.raw
            ],
            "displayTimeUnit": "ms",
        }

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns)}

    def merge(self, aggregates: dict) -> None:
        """Add another process's :meth:`aggregates` to this tracer's."""
        for name, calls in aggregates["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + calls
        for name, ns in aggregates["self_ns"].items():
            self.self_ns[name] = self.self_ns.get(name, 0) + ns


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit(frame)


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> Tracer:
    """Wrap every boundary in :data:`BOUNDARIES`; call before engines
    are built (the engine binds some module functions at construction)."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for name, (module_name, path) in BOUNDARIES.items():
        module = importlib.import_module(module_name)
        if "." not in path:
            tracer.patch(module, path, name)
            continue
        class_name, attribute = path.split(".")
        seen = set()
        for cls in _subclasses(getattr(module, class_name)):
            if cls in seen or attribute not in cls.__dict__:
                continue
            seen.add(cls)
            tracer.patch(cls, attribute, name)
    return tracer
