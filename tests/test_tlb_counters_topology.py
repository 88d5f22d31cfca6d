"""TLB cost meter, perf counters, the remote-NUMA device."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.hw.counters import PerfCounters
from repro.hw.memdevice import DRAM, NVM_PCM, topology_sort_key
from repro.hw.tlb import Tlb, TlbConfig
from repro.hw.topology import (
    REMOTE_BANDWIDTH_FACTOR,
    REMOTE_LATENCY_FACTOR,
    remote_dram,
)


# ----------------------------------------------------------------------
# TLB
# ----------------------------------------------------------------------

def test_tlb_flush_and_shootdown_costs_accumulate():
    tlb = Tlb()
    cost = tlb.flush() + tlb.shootdown() + tlb.flush()
    assert tlb.flushes == 2
    assert tlb.shootdowns == 1
    assert tlb.total_cost_ns == pytest.approx(cost)


def test_tlb_reset():
    tlb = Tlb()
    tlb.flush()
    tlb.reset()
    assert tlb.flushes == 0
    assert tlb.total_cost_ns == 0.0


def test_tlb_config_validation():
    with pytest.raises(ConfigurationError):
        TlbConfig(full_flush_ns=-1)
    with pytest.raises(ConfigurationError):
        TlbConfig(entries=0)


def test_tlb_snapshot_delta():
    tlb = Tlb()
    tlb.flush()
    before = tlb.snapshot()
    tlb.flush()
    tlb.shootdown()
    interval = tlb.snapshot().delta(before)
    assert interval.flushes == 1
    assert interval.shootdowns == 1


# ----------------------------------------------------------------------
# Perf counters (Equation 1 input)
# ----------------------------------------------------------------------

def test_llc_delta_needs_two_epochs():
    counters = PerfCounters()
    assert counters.llc_miss_delta() == 0.0
    counters.record_epoch(100.0)
    assert counters.llc_miss_delta() == 0.0


def test_llc_delta_relative_change():
    counters = PerfCounters()
    counters.record_epoch(100.0)
    counters.record_epoch(150.0)
    assert counters.llc_miss_delta() == pytest.approx(0.5)
    counters.record_epoch(75.0)
    assert counters.llc_miss_delta() == pytest.approx(-0.5)


def test_llc_delta_zero_previous_is_safe():
    counters = PerfCounters()
    counters.record_epoch(0.0)
    counters.record_epoch(50.0)
    assert counters.llc_miss_delta() == 0.0


# ----------------------------------------------------------------------
# Deterministic device ordering
# ----------------------------------------------------------------------

def test_topology_sort_key_orders_fastest_first():
    devices = [NVM_PCM, DRAM, remote_dram()]
    ordered = sorted(devices, key=topology_sort_key)
    assert ordered[0] is DRAM
    assert ordered[-1] is NVM_PCM


def test_topology_sort_key_breaks_latency_ties_by_bandwidth():
    slow_twin = dataclasses.replace(
        DRAM, name="dram-narrow", bandwidth_gbps=DRAM.bandwidth_gbps / 2
    )
    ordered = sorted([slow_twin, DRAM], key=topology_sort_key)
    assert ordered[0] is DRAM  # higher bandwidth wins the tie


# ----------------------------------------------------------------------
# Remote NUMA
# ----------------------------------------------------------------------

def test_remote_dram_penalties():
    remote = remote_dram()
    assert remote.load_latency_ns == pytest.approx(
        DRAM.load_latency_ns * REMOTE_LATENCY_FACTOR
    )
    assert remote.bandwidth_gbps == pytest.approx(
        DRAM.bandwidth_gbps * REMOTE_BANDWIDTH_FACTOR
    )
    # Observation 2: the remote penalty is a fraction of heterogeneity's.
    assert remote.load_latency_ns < 2 * DRAM.load_latency_ns
