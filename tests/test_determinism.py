"""Reproducibility: identical seeds give identical simulations."""

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import MixedGlobalLocal, UniformRandom
from repro.traffic.processes import BernoulliTraffic


def snapshot(routing, seed, pattern=None):
    cfg = SimConfig(h=2, routing=routing, seed=seed)
    sim = Simulator(cfg, BernoulliTraffic(pattern or UniformRandom(), 0.5))
    sim.run(1200)
    return sim.ledger(), sim.total_buffered_flits()


@pytest.mark.parametrize("routing", ["minimal", "valiant", "pb", "par62", "rlm", "olm"])
def test_same_seed_same_history(routing):
    assert snapshot(routing, 42) == snapshot(routing, 42)


def test_different_seed_different_history():
    assert snapshot("olm", 1) != snapshot("olm", 2)


def test_mixed_pattern_deterministic():
    p1 = snapshot("rlm", 7, MixedGlobalLocal(0.5, 2))
    p2 = snapshot("rlm", 7, MixedGlobalLocal(0.5, 2))
    assert p1 == p2


def test_traffic_and_routing_rngs_are_independent():
    """Routing rng draws must not perturb the traffic stream."""
    cfg = SimConfig(h=2, routing="minimal", seed=9)
    sim_min = Simulator(cfg, BernoulliTraffic(UniformRandom(), 0.4))
    sim_min.run(600)
    cfg2 = SimConfig(h=2, routing="olm", seed=9)  # same seed, adaptive routing
    sim_olm = Simulator(cfg2, BernoulliTraffic(UniformRandom(), 0.4))
    sim_olm.run(600)
    assert sim_min.ledger().generated == sim_olm.ledger().generated
