"""repro.obs — per-epoch telemetry bus, counter timelines, run tracing.

The simulator's evaluation evidence is *time-series* evidence: per-epoch
hardware-counter samples, hotness/migration activity, per-device stall
breakdowns (the paper's Figures 9, 10, 12, 13).  This package makes that
intra-run behaviour observable without perturbing it:

* :class:`~repro.obs.sample.EpochSample` — one epoch's snapshot of the
  whole stack: counters, per-device stalls/traffic, TLB costs, zone/LRU/
  balloon occupancy, policy counters, and discrete events (migration
  passes, policy decisions).
* :class:`~repro.obs.bus.Telemetry` — the event bus the engine publishes
  to.  Zero-cost when absent: a run built without a bus executes exactly
  the seed code path.
* Sinks (:mod:`repro.obs.sinks`) — in-memory timeline (attached to
  ``RunResult.timeline``), streaming JSONL, and Chrome ``trace_event``
  JSON that opens in Perfetto / ``chrome://tracing``.
* :class:`~repro.obs.profiler.PhaseProfiler` — host wall-clock per
  simulator phase, reported alongside virtual time to find simulator
  hot paths.
* :mod:`repro.obs.diff` — timeline diffing: pinpoint the first epoch at
  which two runs diverge.
* :mod:`repro.obs.metrics` + :mod:`repro.obs.flight` — *host-side* sweep
  observability: a deterministic Counter/Gauge/Histogram registry
  (canonical JSON + Prometheus text exposition) and the
  :class:`~repro.obs.flight.SweepRecorder` that ``run_specs`` notifies
  (cache traffic, retries, per-spec wall-clock lanes, fault roll-ups),
  behind ``repro sweep --metrics/--trace-sweep/--live`` and
  ``repro report``.  The package does not re-export these two: import
  them from their submodules, so a single run never loads them.

Determinism contract: telemetry observes, never steers.  A run with any
combination of sinks produces a field-by-field identical
:class:`~repro.sim.stats.RunResult` (timeline aside) to the same run
with no telemetry — asserted by ``tests/test_obs_telemetry.py``.
"""

#: heterocontract anchor (``contract-obs-pure``): attribute owners the
#: observability plane may write even though they are not defined in
#: ``repro.obs``.  Classes defined inside this package are always
#: allowed; anything else must be listed here (``Class.attr`` idents,
#: trailing ``*`` wildcards) with a justification in the surrounding
#: comment.  Empty on purpose: telemetry observes, never steers.
OBS_WRITE_ALLOWLIST: "tuple[str, ...]" = ()

from repro.obs.bus import Telemetry
from repro.obs.diff import (
    TimelineDiff,
    diff_timelines,
    load_timeline,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.sample import EpochSample
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    Sink,
    TimelineSink,
    json_line,
)

__all__ = [
    "ChromeTraceSink",
    "EpochSample",
    "JsonlSink",
    "PhaseProfiler",
    "Sink",
    "Telemetry",
    "TimelineDiff",
    "TimelineSink",
    "diff_timelines",
    "json_line",
    "load_timeline",
]
