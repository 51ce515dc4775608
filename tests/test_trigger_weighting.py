"""UGAL-style hop weighting of global misroute candidates."""

from repro.facade import Session
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal, UniformRandom
from repro.traffic.processes import BernoulliTraffic


def misroute_fraction(weight: float, pattern, load: float) -> float:
    cfg = SimConfig(h=2, routing="olm", trigger_global_hop_weight=weight, seed=3)
    sim = Simulator(cfg, BernoulliTraffic(pattern, load))
    sim.run(1200)
    return Session(sim=sim).measure(1200).global_misroute_fraction


def test_default_weight_is_ugal():
    assert SimConfig().trigger_global_hop_weight == 2.0


def test_weight_one_reproduces_verbatim_trigger():
    """weight=1.0 is the paper's raw occupancy comparison: most misrouting."""
    eager = misroute_fraction(1.0, UniformRandom(), 0.9)
    weighted = misroute_fraction(2.0, UniformRandom(), 0.9)
    strict = misroute_fraction(8.0, UniformRandom(), 0.9)
    assert eager > weighted > strict


def test_adversarial_misrouting_survives_weighting():
    """Under ADVG the minimal queue is saturated: Valiant still triggers."""
    gm = misroute_fraction(2.0, AdversarialGlobal(1), 0.6)
    assert gm > 0.5


def test_weighting_helps_uniform_throughput():
    def thr(weight):
        cfg = SimConfig(h=2, routing="olm", trigger_global_hop_weight=weight, seed=3)
        sim = Simulator(cfg, BernoulliTraffic(UniformRandom(), 0.9))
        sim.run(1500)
        return Session(sim=sim).measure(1500).throughput

    assert thr(2.0) >= thr(1.0)
