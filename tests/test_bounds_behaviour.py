"""Analytical bounds and the simulated behaviour that must respect them."""

import pytest

from repro.analysis import (
    advg_minimal_bound,
    advg_valiant_local_bound,
    advl_minimal_bound,
    uniform_capacity,
)
from repro.facade import Session
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal, AdversarialLocal
from repro.traffic.processes import BernoulliTraffic


def throughput(routing, pattern, load, h=2, warmup=2500, measure=2500, **over):
    cfg = SimConfig(h=h, routing=routing, seed=3, **over)
    sim = Simulator(cfg, BernoulliTraffic(pattern, load))
    sim.run(warmup)
    return Session(sim=sim).measure(measure).throughput


def test_bound_formulas():
    assert advg_minimal_bound(8) == pytest.approx(1 / 129)
    assert advl_minimal_bound(8) == pytest.approx(0.125)
    assert advg_valiant_local_bound(8) == pytest.approx(0.125)
    assert 0.9 < uniform_capacity(8) < 1.0


def test_minimal_advg_capped_by_single_global_link():
    """Minimal under ADVG+1 cannot exceed the 1/(2h^2) per-node share."""
    thr = throughput("minimal", AdversarialGlobal(1), 0.6)
    cap = 1.0 / (2 * 2 * 2)  # h=2: one link shared by 2h^2 = 8 nodes
    assert thr <= cap * 1.15  # small tolerance for measurement noise


def test_minimal_advl_capped_by_single_local_link():
    thr = throughput("minimal", AdversarialLocal(1), 0.9)
    assert thr <= advl_minimal_bound(2) * 1.1


def test_adaptive_beats_minimal_bound_advl():
    """Local misrouting must push past the 1/h wall (the paper's core claim)."""
    for routing in ("rlm", "olm", "par62"):
        thr = throughput(routing, AdversarialLocal(1), 0.9)
        assert thr > advl_minimal_bound(2) * 1.2, routing


def test_valiant_beats_minimal_under_advg():
    tv = throughput("valiant", AdversarialGlobal(1), 0.5)
    tm = throughput("minimal", AdversarialGlobal(1), 0.5)
    assert tv > tm * 2


def test_throughput_never_exceeds_offered_load():
    for routing in ("minimal", "olm", "rlm"):
        thr = throughput(routing, AdversarialGlobal(1), 0.2)
        assert thr <= 0.2 * 1.1


def test_accepted_tracks_offered_below_saturation():
    thr = throughput("olm", AdversarialGlobal(1), 0.15)
    assert thr == pytest.approx(0.15, rel=0.15)
