"""Window arithmetic of ``RunResult`` over the delivery ledger, and the
misrouting trigger."""

import math

import pytest

from repro.core.trigger import MisroutingTrigger
from repro.facade import Session
from repro.network.config import SimConfig


@pytest.fixture
def s():
    """A session over an h=2 wheel with no traffic (72 nodes, 8-phit
    packets): the ledger moves only by hand."""
    session = Session(SimConfig(h=2, routing="minimal"))
    yield session
    session.close()


def _inject(s, *births):
    """One hand-injected packet per birth cycle, left in its source
    queue: the tests book each delivery themselves."""
    return [s.sim.inject_packet(i, 9, now=birth) for i, birth in enumerate(births)]


def test_empty_window_readouts(s):
    empty = s.measure(0)
    assert (empty.window_cycles, empty.delivered, empty.max_latency) == (0, 0, 0)
    assert empty.throughput == 0.0
    s.run(100)
    idle = s.measure(0)
    assert idle.window_cycles == 100 and idle.throughput == 0.0
    for r in (empty, idle):
        for name in ("mean_latency", "mean_hops", "local_misroute_rate",
                     "global_misroute_fraction", "latency_p50", "latency_p99"):
            assert math.isnan(getattr(r, name)), name


def test_window_accumulates(s):
    s.run(100)
    s.reset()
    p1, p2 = _inject(s, 100, 120)
    p1.local_hops_total, p1.g_hops = 2, 1
    p2.global_misrouted = True
    p2.local_misroutes = 2
    s.sim._deliver(p1, 150)  # latency 50
    s.sim._deliver(p2, 200)  # latency 80
    s.sim.now = 200
    r = s.measure(0)
    assert (r.start_cycle, r.end_cycle) == (100, 200)
    assert r.generated == 2 and r.delivered == 2
    assert s.sim.packets_in_flight == 0 and p2.delivered_cycle == 200
    assert r.mean_latency == 65.0
    assert r.max_latency == 80 and r.latency_p50 == 50.0 and r.latency_p99 == 80.0
    assert r.delivered_phits == 16
    # throughput over window [100, 200) with 72 nodes
    assert r.throughput == 16 / (72 * 100)
    assert r.local_misroute_rate == 1.0
    assert r.global_misroute_fraction == 0.5
    assert r.mean_hops == 1.5


def test_reset_opens_an_empty_window(s):
    (pkt,) = _inject(s, 0)
    s.sim._deliver(pkt, 10)
    s.sim.now = 500
    assert s.measure(0).delivered == 1
    s.reset()
    r = s.measure(0)
    assert r.generated == 0 and r.delivered == 0
    assert r.start_cycle == 500 and math.isnan(r.mean_latency)


def test_run_result_keys(s):
    d = s.measure(0).to_dict()
    for key in ("generated", "delivered", "delivered_phits", "mean_latency",
                "max_latency", "throughput", "local_misroute_rate",
                "global_misroute_fraction", "mean_hops"):
        assert key in d


def test_trigger_semantics():
    t = MisroutingTrigger(0.45)
    assert not t.allows(0, 0)       # empty minimal queue: never misroute
    assert t.allows(100, 44)        # candidate clearly emptier
    assert not t.allows(100, 45)    # at the threshold: no
    assert not t.allows(100, 90)
    assert MisroutingTrigger(1.0).allows(10, 9)
    with pytest.raises(ValueError):
        MisroutingTrigger(-0.2)


def test_trigger_threshold_monotonicity():
    lo, hi = MisroutingTrigger(0.3), MisroutingTrigger(0.6)
    for occ in range(0, 100, 7):
        if lo.allows(100, occ):
            assert hi.allows(100, occ)  # higher threshold always allows more
