"""Guest/VMM coordination channel."""

import pytest

from repro.errors import ChannelError
from repro.mem.extent import PageType
from repro.vmm.channel import CoordinationChannel


def test_default_exception_list_has_unmigratable_types():
    channel = CoordinationChannel(domain_id=1)
    assert PageType.PAGE_TABLE in channel.exception_types
    assert PageType.DMA in channel.exception_types


def test_tracking_publish_and_read():
    channel = CoordinationChannel(domain_id=1)
    channel.guest_publish_tracking(
        ["heap-a", "heap-b"],
        exception_types={PageType.PAGE_CACHE, PageType.DMA},
    )
    regions, exceptions = channel.vmm_read_tracking()
    assert regions == ["heap-a", "heap-b"]
    assert exceptions == {PageType.PAGE_CACHE, PageType.DMA}


def test_tracking_publish_without_exceptions_keeps_old():
    channel = CoordinationChannel(domain_id=1)
    old = set(channel.exception_types)
    channel.guest_publish_tracking(["r"])
    assert channel.exception_types == old


def test_hot_report_consumed_once():
    channel = CoordinationChannel(domain_id=1)
    channel.vmm_publish_hot([3, 1, 2])
    assert channel.guest_read_hot_report() == [3, 1, 2]
    assert channel.guest_read_hot_report() == []


def test_llc_delta_through_channel():
    channel = CoordinationChannel(domain_id=1)
    channel.vmm_record_epoch(100.0)
    channel.vmm_record_epoch(200.0)
    assert channel.guest_read_llc_delta() == pytest.approx(1.0)


def test_reads_return_copies():
    channel = CoordinationChannel(domain_id=1)
    channel.guest_publish_tracking(["a"])
    regions, exceptions = channel.vmm_read_tracking()
    regions.append("tampered")
    exceptions.add(PageType.HEAP)
    assert channel.tracking_regions == ["a"]
    assert PageType.HEAP not in channel.exception_types
