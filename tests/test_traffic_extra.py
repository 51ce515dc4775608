"""Extended traffic patterns and trace replay."""

import random

import pytest

from repro.topology import Dragonfly
from repro.traffic.extra import (
    BitComplement,
    GroupTornado,
    Hotspot,
    NodeShift,
    RandomPermutation,
    TraceReplay,
)

from tests.helpers import build_sim

TOPO = Dragonfly(2)
RNG = random.Random(1)


def test_shift_wraps():
    p = NodeShift(5)
    assert p.dest(0, TOPO, RNG) == 5
    assert p.dest(TOPO.num_nodes - 1, TOPO, RNG) == 4
    with pytest.raises(ValueError):
        NodeShift(0)


def test_bitcomplement_involution():
    p = BitComplement()
    for src in range(0, TOPO.num_nodes, 7):
        d = p.dest(src, TOPO, RNG)
        assert d != src
        if d == TOPO.num_nodes - 1 - src:  # regular case
            assert p.dest(d, TOPO, RNG) == src


def test_tornado_targets_far_group():
    p = GroupTornado()
    for src in (0, 33):
        d = p.dest(src, TOPO, RNG)
        sg = TOPO.group_of(TOPO.router_of_node(src))
        dg = TOPO.group_of(TOPO.router_of_node(d))
        assert dg == (sg + TOPO.num_groups // 2) % TOPO.num_groups


def test_hotspot_mixes():
    p = Hotspot(hot_node=3, fraction=0.5)
    hits = sum(p.dest(10, TOPO, RNG) == 3 for _ in range(2000))
    assert 800 < hits < 1300
    assert all(p.dest(3, TOPO, RNG) != 3 for _ in range(50))
    with pytest.raises(ValueError):
        Hotspot(0, 1.5)


def test_permutation_fixed_and_derangement():
    p = RandomPermutation(seed=4)
    dests = [p.dest(i, TOPO, RNG) for i in range(TOPO.num_nodes)]
    assert sorted(dests) == list(range(TOPO.num_nodes))  # a bijection
    assert all(d != i for i, d in enumerate(dests))       # no self-traffic
    assert dests == [p.dest(i, TOPO, RNG) for i in range(TOPO.num_nodes)]
    other = RandomPermutation(seed=5)
    assert [other.dest(i, TOPO, RNG) for i in range(TOPO.num_nodes)] != dests


def test_trace_replay_injection_order():
    sim = build_sim("minimal", record_hops=False)
    trace = TraceReplay([(0, 0, 9), (0, 1, 12), (5, 2, 30), (100, 3, 40)])
    sim.traffic = trace
    sim.run(1)
    assert sim.ledger().generated == 2
    sim.run(5)
    assert sim.ledger().generated == 3
    sim.run(100)
    assert sim.ledger().generated == 4
    assert trace.exhausted
    sim.traffic = None
    sim.run_until_drained(50000)
    assert sim.delivered == 4


def test_trace_replay_skips_self_traffic_and_comments(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# demo trace\n0 0 9\n\n2 5 5\n3 7 20\n")
    trace = TraceReplay.from_file(path)
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = trace
    sim.run(10)
    assert sim.ledger().generated == 2  # the 5->5 record is dropped


def test_trace_drain_waits_for_future_phases():
    """run_until_drained must not exit between trace phases."""
    sim = build_sim("minimal", record_hops=False)
    trace = TraceReplay([(0, 0, 9), (500, 1, 12)])
    sim.traffic = trace
    cycles = sim.run_until_drained(50000)
    assert cycles > 500  # waited for the second phase
    assert sim.delivered == 2
    assert trace.exhausted


def test_process_exhausted_flags():
    from repro.traffic.processes import BernoulliTraffic, BurstTraffic
    from repro.traffic.patterns import UniformRandom

    assert BernoulliTraffic(UniformRandom(), 0.0).exhausted
    assert not BernoulliTraffic(UniformRandom(), 0.5).exhausted
    burst = BurstTraffic(UniformRandom(), 2)
    assert not burst.exhausted
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = burst
    sim.run(1)
    assert burst.exhausted


def test_extra_patterns_drive_simulation():
    from repro.traffic.processes import BernoulliTraffic

    for pattern in (NodeShift(7), BitComplement(), GroupTornado(),
                    Hotspot(0, 0.3), RandomPermutation(1)):
        sim = build_sim("olm", record_hops=False)
        sim.traffic = BernoulliTraffic(pattern, 0.3)
        sim.run(600)
        sim.traffic = None
        sim.run_until_drained(100000)
        assert sim.delivered == sim.ledger().generated > 0
