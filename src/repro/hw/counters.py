"""Hardware performance counters exported by the VMM to the guest.

Section 4.1: "HeteroOS monitors the LLC misses exported by the VMM in each
epoch and dynamically varies the hotness-tracking and migration interval"
— Equation 1.  :class:`PerfCounters` is the per-domain counter file: the
engine records each epoch's LLC misses, and the coordinated policy reads
the latest delta.

Only the per-epoch miss history is kept, because Equation 1 reads
nothing else: no cumulative perf(1)-style totals, instruction counts or
snapshots are simulated.  Whole-run MPKI is a result field
(:attr:`repro.sim.stats.RunResult.mpki`), not a counter read.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PerfCounters:
    """Per-epoch LLC miss history."""

    llc_miss_history: list[float] = field(default_factory=list)

    def record_epoch(self, llc_misses: float) -> None:
        self.llc_miss_history.append(llc_misses)

    def llc_miss_delta(self) -> float:
        """Relative change in LLC misses between the last two epochs.

        This is the ``(LLCMiss_i - LLCMiss_{i-1}) / LLCMiss_{i-1}`` term of
        Equation 1.  Returns 0 when fewer than two epochs were recorded or
        the previous epoch had no misses.
        """
        if len(self.llc_miss_history) < 2:
            return 0.0
        previous = self.llc_miss_history[-2]
        if previous <= 0:
            return 0.0
        return (self.llc_miss_history[-1] - previous) / previous
