"""Student-t quantiles, steady-state detection and state snapshots."""

import pytest

from repro.metrics.statistics import steady_state_reached, t_quantile_975
from repro.metrics import MetricsHub, injection_backlog, occupancy_snapshot
from repro.traffic.patterns import AdversarialGlobal, UniformRandom
from repro.traffic.processes import BernoulliTraffic

from tests.helpers import build_sim


def test_t_quantiles():
    assert t_quantile_975(1) == pytest.approx(12.706)
    assert t_quantile_975(30) == pytest.approx(2.042)
    assert t_quantile_975(1000) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t_quantile_975(0)


def test_steady_state_reached():
    assert steady_state_reached([0.5, 0.49, 0.51, 0.5, 0.5], window=5)
    assert not steady_state_reached([0.1, 0.2, 0.3, 0.4, 0.5], window=5)
    assert not steady_state_reached([0.5, 0.5], window=5)
    assert steady_state_reached([0.0] * 6, window=5)


def test_hub_throughput_series_converges():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.4)
    hub = MetricsHub(sim, bucket=400)
    sim.run(4800)
    series = hub.series()["throughput"]
    assert len(series) == 12
    # after warm-up the interval throughput approaches the offered load
    assert series[-1] == pytest.approx(0.4, rel=0.3)
    assert steady_state_reached(series, window=4, rel_tolerance=0.3)


def test_occupancy_snapshot_finds_advg_hotspot():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BernoulliTraffic(AdversarialGlobal(1), 0.6)
    sim.run(2500)
    snap = occupancy_snapshot(sim)
    assert snap["hottest_fraction"] > snap["global_mean"]
    assert snap["hottest_link"] is not None
    # ADVG saturates global links: the hotspot must be a global port
    from repro.topology import PortKind

    assert snap["hottest_link"][1] == int(PortKind.GLOBAL)


def test_injection_backlog_grows_past_saturation():
    sim = build_sim("minimal", record_hops=False)
    sim.traffic = BernoulliTraffic(AdversarialGlobal(1), 0.9)
    sim.run(800)
    early = injection_backlog(sim)["total_phits"]
    sim.run(2000)
    late = injection_backlog(sim)["total_phits"]
    assert late > early > 0
