"""Stall-aware head retry and router sleep on the wheel engine.

A head refused without a random draw, because its only admissible
output serialises until ``busy_until``, is not re-decided before that
cycle; a router whose every buffered flit waits on a serialising port
is not visited until the earliest such cycle — or until a flit arrives
or is injected.  The frozen ``reference`` engine re-decides every
cycle and is the oracle for what the skip may not change.
"""

import pytest

from repro.network.config import SimConfig
from repro.network.reference import ReferenceSimulator
from repro.network.simulator import Simulator

FROZEN_UNTIL = 7


def _count_decides(sim):
    """Record ``(cycle, pid, granted)`` for every ``decide`` call."""
    calls = []
    decide = sim.algo.decide

    def counting(router, packet, now, flit):
        dec = decide(router, packet, now, flit)
        calls.append((now, packet.pid, dec is not None))
        return dec

    sim.algo.decide = counting
    return calls


def _frozen_eject(engine, routing, until=FROZEN_UNTIL):
    """Node 0 -> node 1 on router 0, with ejection port 1 busy until ``until``."""
    sim = engine(SimConfig(h=2, routing=routing, seed=1))
    calls = _count_decides(sim)
    router = sim.routers[0]
    router.outputs[router.out_eject(1)].busy_until = until
    pkt = sim.inject_packet(0, 1)
    return sim, router, pkt, calls


@pytest.mark.parametrize("routing", ["minimal", "valiant", "pb", "olm", "rlm", "par62"])
def test_stalled_head_is_redecided_exactly_at_busy_until(routing):
    sim, router, pkt, calls = _frozen_eject(Simulator, routing)
    sim.run(FROZEN_UNTIL + 1)
    assert calls == [(0, pkt.pid, False), (FROZEN_UNTIL, pkt.pid, True)]
    assert pkt.retry_at == FROZEN_UNTIL

    ref, _, ref_pkt, ref_calls = _frozen_eject(ReferenceSimulator, routing)
    ref.run(FROZEN_UNTIL + 1)
    assert [c[0] for c in ref_calls] == list(range(FROZEN_UNTIL + 1))  # every cycle
    ref.run(20)
    sim.run(20)
    assert pkt.delivered_cycle == ref_pkt.delivered_cycle is not None


def test_sleeping_router_is_not_visited_until_its_wake_cycle():
    sim, router, pkt, _ = _frozen_eject(Simulator, "minimal")
    visits = []
    process = sim._process_router
    sim._process_router = lambda r, t: (visits.append((r.rid, t)), process(r, t))
    sim.run(FROZEN_UNTIL + 1)
    assert router.wake_at == FROZEN_UNTIL
    assert visits == [(0, 0), (0, FROZEN_UNTIL)]


def test_input_serialisation_puts_the_router_to_sleep():
    """After a grant the injection port reads nothing for ``size`` cycles."""
    sim = Simulator(SimConfig(h=2, routing="minimal", seed=1))
    calls = _count_decides(sim)
    first = sim.inject_packet(0, 1)
    second = sim.inject_packet(0, 1)  # queued behind it on the same port
    sim.run(2 * first.size_phits + 1)
    size = first.size_phits
    assert calls == [(0, first.pid, True), (size, second.pid, True)]


def test_injection_wakes_a_sleeping_router_the_same_cycle():
    sim, router, pkt, calls = _frozen_eject(Simulator, "minimal")
    sim.run(3)
    assert router.wake_at == FROZEN_UNTIL  # asleep at cycle 3
    other = sim.inject_packet(1, 0)  # node 1 -> node 0: a free ejection port
    assert router.wake_at == 0
    sim.step()
    assert (3, other.pid, True) in calls
    # the visit re-derived the sleep from what is still blocked
    assert [c for c in calls if c[1] == pkt.pid] == [(0, pkt.pid, False)]
    sim.run(FROZEN_UNTIL)
    assert (FROZEN_UNTIL, pkt.pid, True) in calls


def test_arrival_wakes_a_sleeping_router_the_same_cycle():
    until = 60  # longer than a local link traversal
    sim, router, pkt, calls = _frozen_eject(Simulator, "minimal", until)
    topo = sim.topo
    # a packet from the neighbouring router lands while router 0 sleeps
    neighbour = topo.router_id(0, 1)
    incoming = sim.inject_packet(topo.node_id(neighbour, 0), topo.node_id(0, 0))
    landed = None
    while landed is None:
        assert sim.now < until, "must land while router 0 still sleeps"
        due = [entry for entry in sim.arrivals_due(sim.now)
               if entry[0] is router and entry[3].packet is incoming]
        if due:
            landed = sim.now
            assert router.wake_at == until
        sim.step()
    assert (landed, incoming.pid, True) in calls  # decided the cycle it landed
    assert [c[0] for c in calls if c[1] == pkt.pid] == [0]  # still stalled


def test_redrawn_valiant_source_head_is_never_hinted():
    """Valiant re-rolls its intermediate every blocked cycle: each call
    draws from ``rng_route``, so none may be skipped."""
    sim = Simulator(SimConfig(h=2, routing="valiant", seed=1))
    calls = _count_decides(sim)
    router = sim.routers[0]
    for out in router.outputs:
        out.busy_until = FROZEN_UNTIL
    pkt = sim.inject_packet(0, sim.topo.node_id(sim.topo.router_id(3, 0), 0))
    sim.run(FROZEN_UNTIL + 1)
    assert [c[0] for c in calls] == list(range(FROZEN_UNTIL + 1))
    assert pkt.retry_at == 0
