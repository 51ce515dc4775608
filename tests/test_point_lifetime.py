"""A finished point is garbage the moment its entry returns.

``facade.run_point`` / ``run_drain`` / ``run_transient`` close their
session in a ``finally`` and the session's detached ``MetricsHub`` lets
go of its simulator, so nothing a point built — the simulator, its
routers, an array core's arrays — waits for the cyclic collector: with
``gc.disable()`` every entry below leaves ``gc.collect() == 0`` behind
and the ``Simulator`` it built is already dead.  (At the parent commit
each of them left the whole simulator, 4 000 objects at h=2, in a cycle
through the session's latency observer.)
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

import repro.facade as facade
from repro.analysis.invariants import InvariantViolation
from repro.facade import Cancelled, Session, run_drain, run_point, run_transient
from repro.metrics.hub import MetricsHub
from repro.network.config import SimConfig
from repro.network.simulator import Simulator, build_simulator
from repro.serve import ServeSettings, create_app
from repro.serve.testclient import Client
from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic

WHEEL = SimConfig(h=2, routing="olm", seed=4)
#: minimal routing under ``auto`` with the rule pinned: a core point
CORE = SimConfig(h=2, routing="minimal", seed=4, engine="auto")

pytestmark = pytest.mark.usefixtures("core_wins_everywhere")


@pytest.fixture
def built(monkeypatch):
    """Weak references to every simulator the facade builds."""
    refs = []

    def recording(config, traffic=None):
        sim = build_simulator(config, traffic)
        refs.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(facade, "build_simulator", recording)
    return refs


@pytest.fixture
def no_collector():
    """The cyclic collector parked, with nothing of ours pending."""
    import numpy  # noqa: F401  (its import leaves cycles of its own behind)

    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _cancel_after(polls: int):
    left = [polls]

    def should_cancel() -> bool:
        left[0] -= 1
        return left[0] < 0

    return should_cancel


def _violated(monkeypatch):
    """Make every hub report one injection the engine never queued."""
    verify = MetricsHub.verify

    def lying(self, full=False):
        self.sim._next_pid += 1
        return verify(self, full)

    monkeypatch.setattr(MetricsHub, "verify", lying)


ENTRIES = {
    "wheel point": lambda: run_point(WHEEL, "uniform", 0.4, 60, 60),
    "core point": lambda: run_point(CORE, "uniform", 0.9, 60, 60),
    "wheel point, verify=full": lambda: run_point(
        WHEEL, "uniform", 0.3, 200, 400, verify="full", bucket=50),
    "steady warm-up": lambda: run_point(
        WHEEL, "uniform", 0.3, 2000, 100, steady=True),
    # (a historical name: the session's hub keeps the point on its core)
    "core point left through a hub": lambda: run_point(
        CORE, "uniform", 0.9, 60, 60, verify="flow"),
    "streamed point": lambda: run_point(
        CORE, "advg+1", 0.3, 60, 120, bucket=40, on_row=lambda row: None,
        should_cancel=lambda: False),
    "wheel drain": lambda: run_drain(WHEEL, "advg+1", 2, 100_000),
    "core drain": lambda: run_drain(CORE, "advg+1", 2, 100_000),
    "drain with on_row": lambda: run_drain(
        CORE, "uniform", 2, 100_000, on_row=lambda row: None),
    "transient": lambda: run_transient(
        WHEEL, "uniform", 0.3, 2, 1000, 400, bucket=100),
    "core transient": lambda: run_transient(
        CORE, "uniform", 0.3, 2, 1000, 400, bucket=100, verify="flow"),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_entry_leaves_nothing_for_the_collector(entry, built, no_collector):
    record = ENTRIES[entry]()
    assert record["delivered"] > 0
    assert built and all(ref() is None for ref in built)  # dead on return
    assert gc.collect() == 0


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_entry_window_has_one_observer_and_one_sampler(entry, monkeypatch):
    """The session's hub is the only watcher a point's simulator has,
    through warm-up, measurement and drain alike: no second hub for the
    series, no latency tap beside it."""
    watchers = set()

    def watched(run):
        def wrapper(self, cycles):
            watchers.add((len(self._delivery_observers), len(self._samplers)))
            return run(self, cycles)
        return wrapper

    for name in ("run", "run_until_drained"):
        monkeypatch.setattr(Simulator, name, watched(getattr(Simulator, name)))
    ENTRIES[entry]()
    assert watchers == {(1, 1)}


@pytest.mark.parametrize("config", [WHEEL, CORE], ids=["wheel", "core"])
def test_a_session_window_equals_the_bare_simulators_ledger(config):
    """Observation only, now that every session watches: a simulator
    with no observer and no sampler, run over the same window, reads
    the same ledger difference and leaves ``rng_route`` in the same
    state as the session whose ``RunResult`` its hub produced."""
    def traffic():
        return BernoulliTraffic(UniformRandom(), 0.9)

    bare = build_simulator(config, traffic())
    bare.run(300)
    opened = bare.ledger()
    bare.run(400)
    window = bare.ledger().since(opened)
    assert not bare._delivery_observers and not bare._samplers
    s = Session(sim=build_simulator(config, traffic()), bucket=70)
    result = s.warmup(300).measure(400)
    assert s.sim.engine_path == bare.engine_path
    assert bare.engine_path == ("core" if config is CORE else "wheel")
    assert s.hub.window() == window
    assert (result.start_cycle, result.window_cycles, result.generated,
            result.delivered) == (opened.cycle, window.cycle,
                                  window.generated, window.delivered)
    assert result.mean_latency == window.latency_sum / window.delivered
    assert result.mean_hops == window.hops_sum / window.delivered
    assert s.sim.rng_route.getstate() == bare.rng_route.getstate()


@pytest.mark.parametrize("raises,entry", [
    (Cancelled, lambda: run_point(CORE, "uniform", 0.9, 100, 100, bucket=25,
                                  should_cancel=_cancel_after(2))),
    (Cancelled, lambda: run_point(WHEEL, "uniform", 0.4, 50, 200, bucket=25,
                                  should_cancel=_cancel_after(5))),
    (Cancelled, lambda: run_transient(WHEEL, "uniform", 0.3, 2, 1000, 400,
                                      should_cancel=_cancel_after(1))),
    (InvariantViolation, lambda: run_point(CORE, "uniform", 0.5, 60, 60,
                                           verify="flow")),
    (InvariantViolation, lambda: run_drain(WHEEL, "uniform", 1, 100_000,
                                           verify="flow")),
], ids=["cancelled in warm-up", "cancelled in the window",
        "cancelled transient", "violation", "violation in a drain"])
def test_an_entry_that_raises_leaves_nothing_either(raises, entry, built,
                                                   no_collector, monkeypatch):
    if raises is InvariantViolation:
        _violated(monkeypatch)
    with pytest.raises(raises):
        entry()
    # the traceback held the frames (and so the session) until here
    assert built and all(ref() is None for ref in built)
    assert gc.collect() == 0


def test_a_served_job_leaves_no_simulator(built, no_collector):
    """asyncio leaves cycles of its own, so the claim here is about the
    point: its simulator is dead when the job's stream has closed."""
    payload = {"config": CORE.to_dict(), "pattern": "uniform", "load": 0.9,
               "warmup": 60, "measure": 120, "bucket": 40}

    async def main():
        async with Client(create_app(ServeSettings(workers=1))) as client:
            job = (await client.post("/v1/jobs", json_body=payload)).json()["job"]
            rows = (await client.get(f"/v1/jobs/{job}/stream")).jsonl()
            status = (await client.get(f"/v1/jobs/{job}")).json()
            return rows, status

    rows, status = asyncio.run(main())
    assert status["state"] == "done" and rows[-1]["type"] == "summary"
    assert built and all(ref() is None for ref in built)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Simulator)]


def test_a_session_kept_open_behaves_as_before_and_close_is_the_only_detach(
        no_collector):
    """No ``__del__``, no weak proxy: an open session keeps observing, a
    closed one lets its simulator go by refcount — core points too,
    where the core still holds the tap's batch form for the observer
    list it last delivered to."""
    for config in (WHEEL, CORE):
        sim = build_simulator(config, BernoulliTraffic(UniformRandom(), 0.9))
        s = Session(sim=sim)
        first = s.warmup(60).measure(60)
        assert s.measure(60).delivered > first.delivered  # still attached
        hub = s.hub
        s.close()
        s.close()  # idempotent
        assert hub.sim is not sim and hub.latencies()  # samples stay readable
        assert s.sim is sim  # the session itself keeps its simulator
        ref = weakref.ref(sim)
        del sim, s
        assert ref() is None
        assert gc.collect() == 0


def test_a_detached_hub_lets_go_of_the_simulator_and_stays_readable(
        no_collector):
    sim = build_simulator(WHEEL, BernoulliTraffic(UniformRandom(), 0.4))
    hub = MetricsHub(sim, bucket=50)
    sim.run(200)
    before = (hub.series(), hub.records(), hub.verify(full=True))
    hub.detach()
    hub.detach()  # idempotent
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    assert (hub.series(), hub.records(), hub.verify(full=True)) == before
    assert gc.collect() == 0


def test_detaching_one_hub_and_tap_leaves_the_others_observing():
    """Each detach removes the exact bound methods it added: the hub and
    tap kept attached count as if the detached pair had never been."""
    from repro.metrics.hub import LatencyTap

    def run(with_extra):
        sim = build_simulator(WHEEL, BernoulliTraffic(UniformRandom(), 0.4))
        keep = (MetricsHub(sim, bucket=50), LatencyTap(sim))
        extra = (MetricsHub(sim, bucket=50), LatencyTap(sim)) if with_extra else ()
        sim.run(100)
        for obj in extra:
            obj.detach()
        assert sim._delivery_observers == [keep[0]._observer, keep[1]._observer]
        assert [fn for _, fn in sim._samplers] == [keep[0]._on_boundary]
        sim.run(300)
        return keep[0].records(), keep[1].latencies

    assert run(True) == run(False)


@pytest.mark.parametrize("config", [CORE, WHEEL.with_(routing="ofar")],
                         ids=["hubs moving a core", "hubs on an escape ring"])
def test_hubs_attached_and_detached_leave_the_simulator_to_refcount(
        config, no_collector):
    """A boundary sampler and a delivery observer per hub are all the
    registration there is, and detaching takes them back: no cycle is
    left."""
    sim = build_simulator(config, BernoulliTraffic(UniformRandom(), 0.4))
    sim.run(60)
    hubs = [MetricsHub(sim, bucket=50), MetricsHub(sim, bucket=30)]
    sim.run(100)
    hubs[1].reset()
    sim.run(100)
    assert len(sim._samplers) == len(sim._delivery_observers) == 2
    assert (sim.algo.ring_hops > 0) == (config.routing == "ofar")
    for hub in hubs:
        hub.detach()
    assert not sim._samplers and not sim._delivery_observers
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    assert [len(hub.records()) for hub in hubs] == [2 + 4, 2 + 3]
    assert gc.collect() == 0
