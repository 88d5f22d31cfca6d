"""Host speed, sampled on each CPU while an op runs, to scale its time.

On a shared host other tenants change how fast each vCPU runs: by up to
~2x, from one tenth of a second to the next, and independently on each
vCPU (README, "Host speed").  That swamps the changes the gate must
catch.  So while an op runs, a :class:`Meter` times a fixed pure-Python
loop, a *reading*, every :data:`PERIOD_S`, in turn on each CPU the op
may use, and reports the op's *reference seconds*::

    ref = work * mean over CPUs of mean(REFERENCE_READING_S / reading)

the op's time on a host whose CPUs all take
:data:`REFERENCE_READING_S` per reading.  ``work`` is the op's wall
time less the time spent reading.  A change to the simulator moves the
op's work and not the loop, which lives here, in the benchmark.

Readings interrupt the op on ``SIGALRM``; a reading on another CPU
pins the calling thread there for its duration.  A single-process
workload pins itself to one CPU (:func:`pin_one_cpu`), so its readings
are taken where it runs.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter

#: Seconds one reading takes on a quiet host (2-vCPU VM, CPython 3.11,
#: where the fastest readings took 0.30-0.34 ms), so that reference
#: seconds read about as wall seconds there.
REFERENCE_READING_S = 0.00034

LOOP_ITERATIONS = 2_500

#: Wall time between readings while an op runs (~2% of it is reading).
PERIOD_S = 0.02


def _loop() -> int:
    table: "dict[int, int]" = {}
    total = 0
    for index in range(LOOP_ITERATIONS):
        table[index & 511] = index
        total += table.get((index * 7) & 511, 0)
    return total


def pin_one_cpu() -> int:
    """Pin this process (and the processes it starts) to the first CPU
    it may use; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_seconds(work: float, readings: "dict[int, list[float]]"
                      ) -> float:
    """``work`` seconds scaled by each CPU's readings during them."""
    speed = statistics.fmean(
        statistics.fmean(REFERENCE_READING_S / seconds for seconds in taken)
        for taken in readings.values()
    )
    return work * speed


class Meter:
    """Times ops in work seconds and reference seconds.

    ``cpus`` are the CPUs an op may run on (default: every CPU this
    process may use).  Only one op is timed at a time.
    """

    def __init__(self, cpus=None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
        self._turn = 0
        self._spent = 0.0
        self._readings: "dict[int, list[float]]" = {}
        self._active = False
        # Installed once and left in place, so a late timer signal never
        # meets the default action (which ends the process).
        signal.signal(signal.SIGALRM, self._on_alarm)

    def now(self) -> float:
        """The work clock: wall seconds, less those spent reading."""
        return perf_counter() - self._spent

    def _read(self) -> None:
        cpu = self.cpus[self._turn % len(self.cpus)]
        self._turn += 1
        start = perf_counter()
        pinned = len(self.cpus) > 1
        if pinned:
            os.sched_setaffinity(0, {cpu})
        loop_start = perf_counter()
        _loop()
        self._readings[cpu].append(perf_counter() - loop_start)
        if pinned:
            os.sched_setaffinity(0, self.cpus)
        self._spent += perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            # A reading slower than the period is not interrupted by
            # the next one, whose time it would count twice.
            self._active = False
            try:
                self._read()
            finally:
                self._active = True

    def time(self, call):
        """``(call(), work seconds, reference seconds)``: readings on
        every CPU just before and just after ``call``, and every
        :data:`PERIOD_S` while it runs."""
        self._readings = {cpu: [] for cpu in self.cpus}
        for _ in self.cpus:
            self._read()
        start = self.now()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            value = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._active = False
        work = self.now() - start
        for _ in self.cpus:
            self._read()
        return value, work, reference_seconds(work, self._readings)
