"""Traffic patterns and injection processes."""

import random

import pytest

from repro.topology import Dragonfly
from repro.traffic.patterns import (
    AdversarialGlobal,
    AdversarialLocal,
    MixedGlobalLocal,
    UniformRandom,
    pattern_by_name,
)
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

from tests.helpers import build_sim

TOPO = Dragonfly(2)
RNG = random.Random(0)


def draws(pattern, src, n=300):
    return [pattern.dest(src, TOPO, RNG) for _ in range(n)]


def test_uniform_excludes_self_and_covers():
    ds = draws(UniformRandom(), 10, 2000)
    assert 10 not in ds
    assert all(0 <= d < TOPO.num_nodes for d in ds)
    assert len(set(ds)) > TOPO.num_nodes // 2  # covers a broad range


def test_advg_targets_offset_group():
    for src in (0, 17, 55):
        g = TOPO.group_of(TOPO.router_of_node(src))
        for d in draws(AdversarialGlobal(1), src, 50):
            assert TOPO.group_of(TOPO.router_of_node(d)) == (g + 1) % TOPO.num_groups


def test_advg_wraps_modulo():
    src = TOPO.node_id(TOPO.router_id(TOPO.num_groups - 1, 0), 0)
    for d in draws(AdversarialGlobal(2), src, 20):
        assert TOPO.group_of(TOPO.router_of_node(d)) == 1


def test_advl_targets_offset_router_same_group():
    for src in (0, 9, 33):
        r = TOPO.router_of_node(src)
        expect = TOPO.router_id(TOPO.group_of(r), (TOPO.index_in_group(r) + 1) % TOPO.a)
        for d in draws(AdversarialLocal(1), src, 30):
            assert TOPO.router_of_node(d) == expect


def test_adversarial_offset_validation():
    with pytest.raises(ValueError):
        AdversarialGlobal(0)
    with pytest.raises(ValueError):
        AdversarialLocal(0)
    bad = AdversarialLocal(TOPO.a)  # offset wraps to self router
    with pytest.raises(ValueError):
        bad.dest(0, TOPO, RNG)


def test_mixed_proportions():
    m = MixedGlobalLocal(0.7, global_offset=2)
    src = 0
    local_g = TOPO.group_of(TOPO.router_of_node(src))
    n = 3000
    globals_ = sum(
        TOPO.group_of(TOPO.router_of_node(m.dest(src, TOPO, RNG))) != local_g
        for _ in range(n)
    )
    assert 0.64 < globals_ / n < 0.76  # ~Binomial(3000, .7)
    with pytest.raises(ValueError):
        MixedGlobalLocal(1.5, 2)


def test_pattern_by_name_parsing():
    assert isinstance(pattern_by_name("uniform", TOPO), UniformRandom)
    assert pattern_by_name("advg+3", TOPO).offset == 3
    assert pattern_by_name("advg+h", TOPO).offset == TOPO.h
    assert pattern_by_name("advg", TOPO).offset == 1
    assert pattern_by_name("advl+1", TOPO).offset == 1
    mixed = pattern_by_name("mixed:25", TOPO)
    assert mixed.p_global == pytest.approx(0.25)
    assert mixed.advg.offset == TOPO.h
    # registered extras resolve through PATTERN_REGISTRY fallback
    from repro.traffic.extra import GroupTornado

    assert isinstance(pattern_by_name("tornado", TOPO), GroupTornado)
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        pattern_by_name("whirlwind", TOPO)


def test_bernoulli_load_statistics():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.5)
    sim.run(2000)
    expected = 0.5 / sim.config.packet_phits * sim.topo.num_nodes * 2000
    assert abs(sim.ledger().generated - expected) < 0.15 * expected


def test_bernoulli_zero_load_generates_nothing():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.0)
    sim.run(300)
    assert sim.ledger().generated == 0
    with pytest.raises(ValueError):
        BernoulliTraffic(UniformRandom(), -0.1)


def test_burst_injects_once():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BurstTraffic(UniformRandom(), 5)
    sim.run(3)
    assert sim.ledger().generated == 5 * sim.topo.num_nodes
    sim.run(50)
    assert sim.ledger().generated == 5 * sim.topo.num_nodes  # no re-injection
    with pytest.raises(ValueError):
        BurstTraffic(UniformRandom(), 0)


def test_burst_drains_completely():
    sim = build_sim("olm", record_hops=False)
    sim.traffic = BurstTraffic(AdversarialLocal(1), 4)
    cycles = sim.run_until_drained(200000)
    assert sim.delivered == 4 * sim.topo.num_nodes
    assert cycles > 0
