"""Packet/flit and flow-control unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flowcontrol import (
    VirtualCutThrough,
    Wormhole,
)
from repro.network.packet import Packet, flitize


def make_packet(size=8) -> Packet:
    return Packet(0, 0, 9, size, 0, 0, 0, 4, 1)


def test_flitize_single():
    p = make_packet(8)
    flits = flitize(p, 8)
    assert len(flits) == 1
    assert flits[0].is_head and flits[0].is_tail
    assert flits[0].size == 8


def test_flitize_exact_division():
    p = make_packet(80)
    flits = flitize(p, 10)
    assert len(flits) == 8
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head
    assert all(not f.is_head and not f.is_tail for f in flits[1:-1])
    assert sum(f.size for f in flits) == 80
    assert [f.index for f in flits] == list(range(8))


def test_flitize_remainder():
    p = make_packet(25)
    flits = flitize(p, 10)
    assert [f.size for f in flits] == [10, 10, 5]
    assert flits[-1].is_tail


def test_flitize_rejects_bad_size():
    with pytest.raises(ValueError):
        flitize(make_packet(8), 0)


@given(size=st.integers(1, 300), flit=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_flitize_properties(size, flit):
    p = make_packet(size)
    flits = flitize(p, flit)
    assert sum(f.size for f in flits) == size
    assert flits[0].is_head
    assert flits[-1].is_tail
    assert sum(f.is_head for f in flits) == 1
    assert sum(f.is_tail for f in flits) == 1
    assert all(f.size > 0 for f in flits)
    assert all(f.size <= flit for f in flits)


def test_vct_semantics():
    fc = VirtualCutThrough()
    p = make_packet(8)
    (flit,) = fc.flits_of(p)
    assert fc.required_space(flit) == 8  # whole packet
    assert fc.arrival_delay(10, flit) == 11  # cut-through: head routable fast
    assert fc.whole_packet_reservation


def test_wh_semantics():
    fc = Wormhole(10)
    p = make_packet(80)
    flits = fc.flits_of(p)
    assert len(flits) == 8
    assert fc.required_space(flits[0]) == 10  # one flit only
    assert fc.arrival_delay(10, flits[0]) == 20  # store-and-forward per flit
    assert not fc.whole_packet_reservation
    with pytest.raises(ValueError):
        Wormhole(0)


def test_both_policies_build_from_config():
    from repro.network.config import paper_vct_config, paper_wh_config
    from repro.registry import FLOW_CONTROL_REGISTRY

    vct_cfg, wh_cfg = paper_vct_config(), paper_wh_config()
    vct = FLOW_CONTROL_REGISTRY.get(vct_cfg.flow_control).from_config(vct_cfg)
    assert isinstance(vct, VirtualCutThrough)
    wh = FLOW_CONTROL_REGISTRY.get(wh_cfg.flow_control).from_config(wh_cfg)
    assert isinstance(wh, Wormhole) and wh.flit_size == wh_cfg.flit_phits
    p = make_packet(wh_cfg.packet_phits)
    assert sum(f.size for f in wh.flits_of(p)) == wh_cfg.packet_phits
    (vf,) = vct.flits_of(make_packet(vct_cfg.packet_phits))
    assert vf.is_head and vf.is_tail


def test_packet_initial_routing_state():
    p = make_packet()
    assert p.valiant_group is None
    assert not p.committed
    assert p.g_hops == 0 and p.local_hops_group == 0 and p.local_hops_total == 0
    assert not p.misrouted_group and p.prev_local_type is None
    assert p.local_misroutes == 0 and not p.global_misrouted
    assert p.delivered_cycle is None
