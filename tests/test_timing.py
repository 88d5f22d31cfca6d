"""Roofline memory timing model."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.hw.memdevice import DRAM
from repro.hw.throttle import ThrottleConfig, throttled_device
from repro.hw.timing import CpuConfig, DeviceDemand, MemoryTimingModel
from repro.sim.fast import DEVICE_DEMAND_FIELDS


def test_cpu_time():
    cpu = CpuConfig(frequency_ghz=2.0, ipc=2.0)
    # 4 instructions per ns.
    assert cpu.cpu_ns(4e9) == pytest.approx(1e9)


def test_cpu_validation():
    with pytest.raises(ConfigurationError):
        CpuConfig(frequency_ghz=0)
    with pytest.raises(ConfigurationError):
        CpuConfig(ipc=-1)


def test_latency_bound_regime():
    model = MemoryTimingModel()
    demand = DeviceDemand(read_misses=1000, traffic_bytes=64_000)
    # Few bytes, low MLP: latency term dominates.
    stall = model.stall_ns(DRAM, demand, mlp=1.0)
    assert stall == pytest.approx(1000 * DRAM.load_latency_ns)


def test_bandwidth_bound_regime():
    model = MemoryTimingModel()
    demand = DeviceDemand(read_misses=1000, traffic_bytes=10_000_000)
    # Huge traffic, deep MLP: bandwidth floor dominates.
    stall = model.stall_ns(DRAM, demand, mlp=64.0)
    assert stall == pytest.approx(10_000_000 / DRAM.bytes_per_ns)


def test_mlp_divides_latency_term():
    model = MemoryTimingModel()
    demand = DeviceDemand(read_misses=1000, traffic_bytes=0)
    assert model.stall_ns(DRAM, demand, mlp=4.0) == pytest.approx(
        model.stall_ns(DRAM, demand, mlp=1.0) / 4
    )


def test_writes_use_store_latency():
    from repro.hw.memdevice import NVM_PCM

    model = MemoryTimingModel()
    reads = DeviceDemand(read_misses=100, traffic_bytes=0)
    writes = DeviceDemand(write_misses=100, traffic_bytes=0)
    assert model.stall_ns(NVM_PCM, writes, 1.0) > model.stall_ns(
        NVM_PCM, reads, 1.0
    )


def test_slower_device_stalls_longer():
    model = MemoryTimingModel()
    slow = throttled_device(ThrottleConfig(5, 9))
    demand = DeviceDemand(read_misses=10_000, traffic_bytes=640_000)
    assert model.stall_ns(slow, demand, 4.0) > model.stall_ns(
        DRAM, demand, 4.0
    )


def test_invalid_mlp_rejected():
    model = MemoryTimingModel()
    with pytest.raises(ConfigurationError):
        model.stall_ns(DRAM, DeviceDemand(), mlp=0.0)


def test_epoch_time_sums_cpu_and_stalls():
    model = MemoryTimingModel(CpuConfig(frequency_ghz=1.0, ipc=1.0))
    demand = DeviceDemand(read_misses=100, traffic_bytes=0)
    total = model.epoch_ns(1000.0, {DRAM: demand}, mlp=1.0)
    assert total == pytest.approx(1000.0 + 100 * DRAM.load_latency_ns)


def test_demand_merge():
    a = DeviceDemand(read_misses=1, write_misses=2, traffic_bytes=3)
    b = DeviceDemand(read_misses=10, write_misses=20, traffic_bytes=30)
    merged = a.merged(b)
    assert merged.read_misses == 11
    assert merged.write_misses == 22
    assert merged.traffic_bytes == 33


def test_demand_columns_follow_the_field_order():
    """The demand pass builds each ``DeviceDemand`` positionally from its
    ``DEVICE_DEMAND_FIELDS`` columns, so the column tuple must list the
    dataclass's fields in declaration order, not just the same names."""
    assert DEVICE_DEMAND_FIELDS == tuple(
        field.name for field in dataclasses.fields(DeviceDemand)
    )
