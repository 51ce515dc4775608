"""Load-1.0 stress runs with tight buffers: the dynamic half of the CDG
table (``tests/test_cdg.py``), on OLM under VCT, RLM under WH and PAR-6/2
under WH (whose static check fails until its VC map is fixed).  Each must
keep making progress (the engine raises DeadlockError otherwise), hold
the wheel's ledgers every 25 cycles and drain once sources stop.
"""

import pytest
from helpers import assert_wheel_ledgers

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal
from repro.traffic.processes import BernoulliTraffic


def stress(routing, flow_control, pattern, seed, *, packet=8, flit=4):
    # Buffers sized to be tight (2 flow-control units locally) while keeping
    # global links usable: far below the ~200-cycle global round trip the
    # drain is merely glacial, which is not what this test is about.
    unit = packet if flow_control == "vct" else flit
    cfg = SimConfig(
        h=2, routing=routing, flow_control=flow_control,
        packet_phits=packet, flit_phits=flit,
        local_buffer_phits=2 * unit,
        global_buffer_phits=8 * unit,
        seed=seed, deadlock_window=4000,
    )
    sim = Simulator(cfg, BernoulliTraffic(pattern, 1.0))
    for _ in range(80):
        sim.run(25)  # would raise DeadlockError on a cycle
        assert_wheel_ledgers(sim)
    sim.traffic = None
    sim.run_until_drained(600000)
    assert_wheel_ledgers(sim)
    assert sim.delivered == sim.ledger().generated


@pytest.mark.parametrize("pattern", [AdversarialGlobal(2)], ids=["advg2"])
@pytest.mark.parametrize("routing", ["par62"])
def test_wh_no_deadlock_tight_buffers(routing, pattern):
    """PAR-6/2's explored CDG is cyclic (``test_cdg.KNOWN_CYCLIC``)."""
    stress(routing, "wh", pattern, seed=17, packet=16, flit=4)


@pytest.mark.parametrize("seed", [1])
def test_rlm_wh_seeds(seed):
    """RLM under WH is the paper's headline safety claim."""
    stress("rlm", "wh", AdversarialGlobal(2), seed=seed, packet=16, flit=4)


@pytest.mark.parametrize("seed", [1])
def test_olm_vct_seeds(seed):
    """OLM creates cycles by design; the escape path must always resolve them."""
    stress("olm", "vct", AdversarialGlobal(2), seed=seed)


def test_deadlock_detector_fires_on_artificial_stall():
    """Sanity-check the watchdog itself: strangle a sim and expect the error."""
    from repro.network.simulator import DeadlockError

    cfg = SimConfig(h=2, routing="minimal", deadlock_window=50, seed=1)
    sim = Simulator(cfg)
    pkt_dst = sim.topo.node_id(1, 0)
    sim.inject_packet(0, pkt_dst)
    # freeze every output port forever: no grant can ever happen
    for router in sim.routers:
        for out in router.outputs:
            out.busy_until = 10**9
    with pytest.raises(DeadlockError):
        sim.run(1000)
