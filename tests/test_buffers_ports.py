"""Input buffers, input ports and output units."""

import pytest

from repro.network.buffers import InputPort, VCBuffer
from repro.network.packet import Packet, flitize
from repro.network.ports import OutputUnit
from repro.topology import PortKind


def flits(n=3, size=8):
    p = Packet(1, 0, 9, size * n, 0, 0, 0, 4, 1)
    return flitize(p, size)


def test_vcbuffer_fifo_and_occupancy():
    b = VCBuffer(capacity=32, vc_index=1)
    fs = flits(3, 8)
    assert b.head() is None and len(b) == 0
    for f in fs:
        b.push(f)
    assert b.occupancy == 24 and len(b) == 3
    assert b.head() is fs[0]
    assert b.pop() is fs[0]
    assert b.occupancy == 16
    assert b.head() is fs[1]


def test_input_port_layout():
    ip = InputPort(3, 32, index=5)
    assert len(ip.vcs) == 3
    assert [v.vc_index for v in ip.vcs] == [0, 1, 2]
    assert ip.busy_until == 0 and not ip.is_injection
    ip.vcs[1].push(flits(1)[0])
    assert ip.total_flits() == 1


def test_output_unit_credits_and_occupancy():
    o = OutputUnit(PortKind.LOCAL, 2, num_vcs=3, capacity=32, latency=10,
                   dest_router=7, dest_port=4)
    assert o.credits == [32, 32, 32]
    assert o.occupancy(0) == 0
    o.credits[0] -= 8
    assert o.occupancy(0) == 8
    assert o.occupancy_fraction(0) == pytest.approx(0.25)
    assert o.mean_occupancy_fraction() == pytest.approx(8 / 96)


def test_output_unit_eject_degenerate():
    o = OutputUnit(PortKind.EJECT, 0, num_vcs=1, capacity=0, latency=0,
                   dest_router=None, dest_port=None)
    assert o.occupancy_fraction(0) == 0.0
    assert o.mean_occupancy_fraction() == 0.0
