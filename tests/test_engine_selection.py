"""``engine="auto"``: which points get an array core, and every way off it.

Three tables:

* **selection** — for every registered routing × arbitration × tap
  situation, an ``auto`` simulator carries a core exactly when the rule
  (``repro.network.arraysim.select_core`` + "event taps end a core")
  says so, and an ineligible one is a plain wheel run: no core, the
  same class, the same ``step`` / ``inject_packet`` functions;
* **exits** — leaving a live core mid-run through each of its three
  triggers (an event tap, ``arrivals_due``, a look inside ``routers``) yields
  delivery logs and counters byte-identical to a wheel run from cycle 0;
* **injection** — one injection path per engine: the wheel calls
  ``traffic.inject`` and keeps a plain ``random.Random``, a live core
  calls ``inject_batch`` and installs a ``StreamRandom``, and a run that
  left its core continues through ``inject`` on that same stream.
"""

from __future__ import annotations

import random

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import Simulator, build_simulator
from repro.registry import ROUTING_REGISTRY
from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic


class _EjectTap:
    def on_eject(self, pkt, cycle):
        pass


class _GrantTap:
    """A bare event tap: ``on_grant`` and nothing else."""

    def __init__(self):
        self.grants = 0

    def on_grant(self, router, out, vc, flit, dec, cycle):
        self.grants += 1


# ---------------------------------------------------------------- selection
@pytest.mark.parametrize("tap", ["none", "eject", "event"])
@pytest.mark.parametrize("arbitration", ["rr", "age", "random"])
@pytest.mark.parametrize("routing", ROUTING_REGISTRY.available())
def test_auto_carries_a_core_iff_the_rule_says_so(routing, arbitration, tap):
    cfg = SimConfig(h=2, routing=routing, arbitration=arbitration, seed=3,
                    engine="auto")
    sim = build_simulator(cfg)
    if tap == "eject":
        sim.add_tap(_EjectTap())
    elif tap == "event":
        sim.add_tap(_GrantTap())
    sim.inject_packet(0, sim.topo.num_nodes - 1)
    sim.step()
    expected = (ROUTING_REGISTRY.get(routing).array_core
                and arbitration in ("rr", "age") and tap != "event")
    assert (sim._core is not None) == expected
    if expected:
        assert type(sim.routers) is not list  # parked on the core
        return
    # an ineligible auto point *is* a wheel run: same class, nothing
    # shadowing the two hot entry points, the object graph in place
    wheel = build_simulator(cfg.with_(engine="wheel"))
    assert type(sim) is type(wheel) is Simulator
    assert sim.step.__func__ is wheel.step.__func__ is Simulator.step
    assert (sim.inject_packet.__func__ is wheel.inject_packet.__func__
            is Simulator.inject_packet)
    assert not {"step", "inject_packet"} & vars(sim).keys()
    assert type(sim.routers) is list


def test_wheel_and_reference_never_carry_a_core():
    for engine in ("wheel", "reference"):
        sim = build_simulator(SimConfig(h=2, routing="minimal", engine=engine))
        assert sim._core is None


def test_a_core_is_built_lazily_and_an_early_event_tap_costs_nothing():
    sim = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"))
    core = sim._core
    assert core is not None and core._routes is None  # selected, not built
    parked = sim.routers  # holding the stand-in is free: no arrays, no routers
    assert sim._core is core and type(parked) is not list
    sim.add_tap(_GrantTap())
    # the early tap paid for object routers, as a wheel construction
    # does, and for nothing else: the core never built an array
    assert sim._core is None and core._routes is None
    assert type(sim.routers) is list and parked[0] is sim.routers[0]


def test_an_eligible_auto_point_builds_no_router_until_it_leaves(monkeypatch):
    import repro.network.simulator as simulator

    built = []

    class CountingRouter(simulator.Router):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "Router", CountingRouter)
    cfg = SimConfig(h=2, routing="minimal", engine="auto", seed=5)
    sim = build_simulator(cfg, BernoulliTraffic(UniformRandom(), 0.5))
    sim.run(80)
    assert sim._core is not None and sim.packets_in_flight and not built
    sim._leave_core()
    assert built == list(range(sim.topo.num_routers))
    sim.run(80)
    assert len(built) == sim.topo.num_routers  # built once, on the way out
    # ineligible and wheel points build them at construction
    for other in (cfg.with_(engine="wheel"), cfg.with_(routing="olm")):
        del built[:]
        build_simulator(other)
        assert len(built) == sim.topo.num_routers


# -------------------------------------------------------------------- exits
FABRICS = {
    "dragonfly": dict(h=2),
    "flattened_butterfly": dict(topology="flattened_butterfly", fb_routers=9,
                                p=2),
    "torus": dict(topology="torus", torus_rows=3, torus_cols=4, p=2),
}
FLOW = {"vct": dict(flow_control="vct"),
        "wh": dict(flow_control="wh", packet_phits=40, flit_phits=10)}
INJECT_CYCLES = 300
ATTACH_CYCLES = (1, 45, 290)


def _leave_by_tap(sim):
    sim.add_tap(_GrantTap())


def _leave_by_arrivals_due(sim):
    due = sim.arrivals_due(sim.now)
    assert all(len(entry) == 4 for entry in due)


def _leave_by_routers_read(sim):
    routers = sim.routers  # holding the stand-in is not a read ...
    assert sim._core is not None
    # ... looking inside is (MetricsHub and the probes iterate it)
    assert [r.rid for r in routers] == list(range(sim.topo.num_routers))
    assert routers[0] is sim.routers[0] and len(routers) == len(sim.routers)


TRIGGERS = {"tap": _leave_by_tap, "arrivals_due": _leave_by_arrivals_due,
            "routers": _leave_by_routers_read}


def _run(cfg: SimConfig, leave=None, at: int | None = None):
    """Delivery log + counters of a saturated window and its drain."""
    sim = build_simulator(cfg, BernoulliTraffic(UniformRandom(), 0.8))
    log = []
    sim.add_delivery_observer(lambda pkt, cycle: log.append(
        (pkt.pid, cycle, tuple(pkt.hops_log), pkt.g_hops,
         pkt.local_hops_group, pkt.local_hops_total, pkt.prev_local_type,
         pkt.last_local_vc, pkt.misrouted_group)))
    if at is not None:
        sim.run(at)
        assert sim._core is not None and sim.packets_in_flight
        leave(sim)
        assert sim._core is None and type(sim.routers) is list
        sim.run(INJECT_CYCLES - at)
    else:
        sim.run(INJECT_CYCLES)
    sim.traffic = None
    drained = sim.run_until_drained(50_000)
    assert sim.total_buffered_flits() == 0
    return log, drained, sim.now, sim.stats.as_dict(sim.topo.num_nodes, sim.now)


@pytest.mark.parametrize("arbitration", ["rr", "age"])
@pytest.mark.parametrize("flow", FLOW)
@pytest.mark.parametrize("fabric", FABRICS)
def test_leaving_the_core_mid_run_matches_a_wheel_run(fabric, flow, arbitration):
    cfg = SimConfig(routing="minimal", arbitration=arbitration, seed=9,
                    record_hops=True, **FABRICS[fabric], **FLOW[flow])
    wheel = _run(cfg.with_(engine="wheel"))
    assert len(wheel[0]) > 50  # a real window, not an empty one
    auto = cfg.with_(engine="auto")
    assert _run(auto) == wheel  # never leaving is the same bytes too
    for name, leave in TRIGGERS.items():
        for at in ATTACH_CYCLES:
            assert _run(auto, leave, at) == wheel, (name, at)


# ---------------------------------------------------------------- injection
class _SpyTraffic(BernoulliTraffic):
    """Logs which of the two injection entry points each cycle used."""

    def __init__(self, pattern, load):
        super().__init__(pattern, load)
        self.calls: list[str] = []

    def inject(self, sim, now):
        self.calls.append("inject")
        super().inject(sim, now)

    def inject_batch(self, sim, now):
        self.calls.append("inject_batch")
        return super().inject_batch(sim, now)


def _spy_run(cfg: SimConfig, leave_at: int | None = None):
    traffic = _SpyTraffic(UniformRandom(), 0.6)
    sim = build_simulator(cfg, traffic)
    log = []
    sim.add_delivery_observer(
        lambda pkt, cycle: log.append((pkt.pid, pkt.src, pkt.dst, cycle)))
    rng_types = set()
    for cycle in range(120):
        if cycle == leave_at:
            sim._leave_core()
        sim.step()
        rng_types.add(type(sim.rng_traffic))
    outcome = (log, sim.stats.as_dict(sim.topo.num_nodes, sim.now))
    return sim, traffic.calls, rng_types, outcome


@pytest.mark.parametrize("engine", ["wheel", "auto"])
def test_a_wheel_run_injects_through_inject_on_a_plain_random(engine):
    cfg = SimConfig(h=2, routing="olm", seed=5, engine=engine)
    sim, calls, rng_types, _ = _spy_run(cfg)
    assert sim._core is None
    assert calls == ["inject"] * 120
    assert rng_types == {random.Random}  # first cycle to last


def test_a_live_core_injects_through_inject_batch_and_leaves_on_inject():
    from repro.traffic.mtstream import StreamRandom

    cfg = SimConfig(h=2, routing="minimal", seed=5)
    *_, wheel = _spy_run(cfg.with_(engine="wheel"))
    assert len(wheel[0]) > 50  # a real window, not an empty one

    sim, calls, rng_types, outcome = _spy_run(cfg.with_(engine="auto"))
    assert sim._core is not None
    assert calls == ["inject_batch"] * 120
    assert rng_types == {StreamRandom}
    assert outcome == wheel

    # a drawn-cycle exit: batched up to it, scalar after it, on the
    # stream wrapper the core installed — and still the wheel's bytes
    leave_at = random.Random(17).randrange(10, 110)
    sim, calls, rng_types, outcome = _spy_run(cfg.with_(engine="auto"),
                                              leave_at)
    assert sim._core is None and sim.packets_in_flight
    assert calls == (["inject_batch"] * leave_at
                     + ["inject"] * (120 - leave_at))
    assert rng_types == {StreamRandom}
    assert outcome == wheel
