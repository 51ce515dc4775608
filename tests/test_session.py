"""The Session/RunResult facade and the multi-observer delivery hook."""

import dataclasses
import json
import math

import pytest

import repro
from repro import RunResult, Session, SimConfig, session
from repro.traffic import BernoulliTraffic, BurstTraffic, MixedGlobalLocal, UniformRandom


def test_session_measure_returns_frozen_run_result():
    cfg = SimConfig(h=2, routing="olm", seed=3)
    result = session(cfg, pattern="uniform", load=0.4).warmup(800).measure(800)
    assert isinstance(result, RunResult)
    assert result.kind == "measure"
    assert result.delivered > 0
    assert result.window_cycles == 800
    assert result.start_cycle == 800 and result.end_cycle == 1600
    assert 0 < result.throughput <= 1.0
    assert result.mean_latency > 0
    assert result.latency_p50 <= result.latency_p95 <= result.latency_p99
    assert result.latency_p99 <= result.max_latency
    assert result.drain_cycles is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.delivered = 0
    json.dumps(result.to_dict())  # JSON-safe


def test_session_matches_manual_simulator_loop():
    cfg = SimConfig(h=2, routing="rlm", seed=11)
    facade = session(cfg, pattern="advg+1", load=0.2).warmup(600).measure(600)

    sim = repro.build_simulator(cfg)
    from repro.traffic.patterns import pattern_by_name

    sim.traffic = BernoulliTraffic(pattern_by_name("advg+1", sim.topo), 0.2)
    sim.run(600)
    opened = sim.ledger()
    sim.run(600)
    window = sim.ledger().since(opened)
    assert window.cycle == 600
    assert facade.delivered == window.delivered
    assert facade.mean_latency == window.latency_sum / window.delivered
    assert facade.throughput == (window.delivered * cfg.packet_phits
                                 / (sim.topo.num_nodes * window.cycle))


def test_a_session_over_a_run_simulator_opens_its_window_when_built():
    """The window starts at the session's construction: totals, maximum
    and percentiles all cover the same packets, never the cycles the
    simulator ran before."""
    sim = repro.build_simulator(SimConfig(h=2, routing="olm", seed=3),
                                BernoulliTraffic(UniformRandom(), 0.3))
    sim.run(2000)
    injected = sim._next_pid
    s = Session(sim=sim)
    result = s.measure(10)
    assert result.start_cycle == 2000 and result.window_cycles == 10
    assert result.delivered == len(s.hub.latencies()) > 0
    assert result.max_latency == max(s.hub.latencies()) >= result.latency_p99
    assert result.generated == sim._next_pid - injected


def test_session_drain_reports_drain_cycles():
    cfg = SimConfig(h=2, routing="olm", seed=5)
    s = session(cfg, traffic=BurstTraffic(MixedGlobalLocal(0.5, 2), 5))
    result = s.drain(500_000)
    assert result.kind == "drain"
    assert result.drain_cycles and result.drain_cycles > 0
    assert result.delivered == result.generated > 0
    assert s.sim.packets_in_flight == 0


def test_session_chaining_and_accessors():
    cfg = SimConfig(h=2, routing="minimal", seed=1)
    s = session(cfg)
    assert s.config is cfg
    assert isinstance(s, Session)
    assert s.bernoulli("uniform", 0.1) is s
    assert s.run(50) is s and s.now == 50
    assert s.warmup(50) is s and s.now == 100
    assert s.measure(0).start_cycle == 100


def test_session_argument_validation():
    with pytest.raises(ValueError, match="needs a SimConfig"):
        session()
    with pytest.raises(ValueError, match="requires an offered load"):
        session(SimConfig(), pattern="uniform")
    with pytest.raises(ValueError, match="requires a pattern"):
        session(SimConfig(), load=0.5)
    with pytest.raises(ValueError, match="not both"):
        session(SimConfig(), traffic=BurstTraffic(MixedGlobalLocal(0.5, 2), 1),
                pattern="uniform", load=0.5)
    # a prebuilt sim with a *different* config is a loud error, not silence
    sim = repro.build_simulator(SimConfig(routing="minimal"))
    with pytest.raises(ValueError, match="prebuilt sim"):
        session(SimConfig(routing="olm"), sim=sim)
    assert session(sim.config, sim=sim).config is sim.config
    # an equal-but-distinct config is accepted (value equality, not identity)
    clone = SimConfig.from_dict(sim.config.to_dict())
    assert session(clone, sim=sim).sim is sim


def test_empty_window_yields_nan_percentiles():
    result = session(SimConfig(routing="minimal")).measure(10)
    assert result.delivered == 0
    assert math.isnan(result.latency_p50)
    assert math.isnan(result.mean_latency)


# ---------------------------------------------------------------- observers
def test_multiple_delivery_observers_all_fire():
    sim = repro.build_simulator(SimConfig(h=2, routing="minimal", seed=2),
                                BernoulliTraffic(UniformRandom(), 0.3))
    seen_a, seen_b = [], []
    sim.add_delivery_observer(lambda pkt, now: seen_a.append(pkt.pid))

    @sim.add_delivery_observer
    def _record(pkt, now):
        seen_b.append((pkt.pid, now))

    sim.run(600)
    assert seen_a and len(seen_a) == len(seen_b) == sim.delivered
    sim.remove_delivery_observer(_record)
    before = len(seen_b)
    sim.run(200)
    assert len(seen_b) == before  # detached
    assert len(seen_a) == sim.delivered  # still attached


def test_observers_fire_in_registration_order():
    sim = repro.build_simulator(SimConfig(h=2, routing="minimal", seed=8),
                                BernoulliTraffic(UniformRandom(), 0.4))
    order = []
    sim.add_delivery_observer(lambda pkt, now: order.append("a"))
    sim.add_delivery_observer(lambda pkt, now: order.append("b"))
    while not order:
        sim.step()
    assert order[:2] == ["a", "b"]


def test_observer_may_detach_itself_without_skipping_others():
    sim = repro.build_simulator(SimConfig(h=2, routing="minimal", seed=6),
                                BernoulliTraffic(UniformRandom(), 0.3))
    events = []

    def one_shot(pkt, now):
        events.append("one_shot")
        sim.remove_delivery_observer(one_shot)

    after = []
    sim.add_delivery_observer(one_shot)
    sim.add_delivery_observer(lambda pkt, now: after.append(pkt.pid))
    sim.run(400)
    assert events == ["one_shot"]
    # the observer registered after the self-removing one still saw every delivery
    assert len(after) == sim.delivered > 1


def test_session_close_detaches_from_prebuilt_sim():
    sim = repro.build_simulator(SimConfig(h=2, routing="minimal", seed=7),
                                BernoulliTraffic(UniformRandom(), 0.3))
    baseline = len(sim._delivery_observers)
    sessions = [Session(sim=sim) for _ in range(3)]
    assert len(sim._delivery_observers) == baseline + 3
    for s in sessions:
        s.close()
        s.close()  # idempotent
    assert len(sim._delivery_observers) == baseline


def test_a_closed_session_refuses_to_run_or_measure():
    """A closed session's window is gone: every call that would run the
    simulator or restart the window raises, instead of simulating on and
    reporting a window whose totals and latencies disagree."""
    s = session(SimConfig(h=2, routing="minimal", seed=3),
                pattern="uniform", load=0.3)
    s.warmup(500)
    s.close()
    s.close()  # idempotent
    calls = {
        "run": lambda: s.run(10),
        "warmup": lambda: s.warmup(10),
        "warmup_until_steady": lambda: s.warmup_until_steady(max_cycles=10),
        "measure": lambda: s.measure(10),
        "measure_series": lambda: s.measure_series(10),
        "drain": lambda: s.drain(10),
        "reset": s.reset,
    }
    for name, call in calls.items():
        with pytest.raises(RuntimeError, match="session is closed"):
            call()
    assert s.now == 500


def test_latency_tap_observer():
    from repro.metrics import LatencyTap

    sim = repro.build_simulator(SimConfig(h=2, routing="minimal", seed=4),
                                BernoulliTraffic(UniformRandom(), 0.2))
    probe = LatencyTap(sim)
    sim.run(500)
    assert len(probe.latencies) == sim.delivered > 0
    assert sum(probe.latencies) == sim.latency_sum
    probe.detach()
    probe.detach()  # idempotent
    count = len(probe.latencies)
    sim.run(200)
    assert len(probe.latencies) == count
