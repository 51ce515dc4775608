"""Deadlock-detector progress accounting (PR-3 false-positive fix).

The seed engine only advanced ``_last_progress`` when a flit was
*granted*, so a packet whose flits were all in flight on a link longer
than ``deadlock_window`` (e.g. ``global_latency > deadlock_window``)
tripped a spurious ``DeadlockError`` even though its arrival was
already scheduled.  Scheduled arrivals/credits now count as progress:
the detector only fires when nothing is granted *and* nothing is in
flight on any link.
"""

import pytest

from repro.network.config import SimConfig
from repro.network.reference import ReferenceSimulator
from repro.network.simulator import DeadlockError, Simulator


def high_latency_config(**over) -> SimConfig:
    """Global links far longer than the deadlock window."""
    defaults = dict(h=2, routing="minimal", seed=1,
                    global_latency=2000, deadlock_window=300)
    defaults.update(over)
    return SimConfig(**defaults)


def far_pair(sim):
    """A (src, dst) node pair whose minimal path crosses a global link."""
    topo = sim.topo
    tg = topo.target_group_of(0, 0)
    return topo.node_id(0, 0), topo.node_id(topo.router_id(tg, 0), 0)


def test_long_link_flight_is_not_a_deadlock():
    sim = Simulator(high_latency_config())
    src, dst = far_pair(sim)
    pkt = sim.inject_packet(src, dst)
    drained = sim.run_until_drained(50_000)  # seed engine: spurious DeadlockError
    assert pkt.delivered_cycle is not None
    assert drained > sim.config.global_latency


def test_run_survives_long_link_flight():
    sim = Simulator(high_latency_config())
    src, dst = far_pair(sim)
    sim.inject_packet(src, dst)
    sim.run(10_000)  # window elapses several times while the flit is on the wire
    assert sim.delivered == 1


def test_seed_engine_had_the_false_positive():
    """Pin the bug this PR fixes: the frozen seed hot path still raises."""
    sim = ReferenceSimulator(high_latency_config())
    src, dst = far_pair(sim)
    sim.inject_packet(src, dst)
    with pytest.raises(DeadlockError, match="no flit moved"):
        sim.run_until_drained(50_000)


def test_true_stall_still_raises():
    """A packet that exists but can never move must still be detected."""
    sim = Simulator(high_latency_config(deadlock_window=50))
    src, dst = far_pair(sim)
    sim.inject_packet(src, dst)
    # strand the packet: no algorithm will ever grant it a hop
    sim.algo.decide = lambda router, packet, now, flit: None
    with pytest.raises(DeadlockError, match="no flit moved"):
        sim.run(5_000)
