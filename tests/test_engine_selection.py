"""``engine="auto"``: which points get an array core, and every way off it.

Four tables:

* **the rule** — ``corechoice.core_wins`` on the measured rows either
  side of its two constants, and on burst / trace / no-traffic points,
  wormhole and the two other fabrics: a pure function, no simulation;
  plus what a real (unpinned) ``auto`` simulator reports as
  ``engine_path`` / ``engine_why`` before and after its first step.
  Everything below runs with the rule pinned to "the core wins"
  (``core_wins_everywhere``): the fabrics are tiny on purpose;
* **selection** — for every registered routing × arbitration ×
  attachment (none, a delivery observer, a boundary sampler), an
  ``auto`` simulator carries a core exactly when the eligibility
  clauses (``repro.network.corechoice.select_core``) say so — neither
  attachment ends one — and an ineligible one is a plain wheel run: no
  core, the same class, the same ``step`` / ``inject_packet`` functions;
  a sampler on a core fires at the wheel's boundaries and reads the
  wheel's counters and occupancy;
* **exits** — leaving a live core mid-run through each of its two
  triggers (``arrivals_due``, a look inside ``routers``) yields
  delivery logs and counters byte-identical to a wheel run from cycle 0;
* **injection** — one injection path per engine: the wheel calls
  ``traffic.inject`` and keeps a plain ``random.Random``, a live core
  calls ``inject_batch`` and installs a ``StreamRandom``, and a run that
  left its core continues through ``inject`` on the plain generator the
  exit released from that stream, in the wheel run's state.
"""

from __future__ import annotations

import random

import pytest

import repro.network.corechoice as corechoice
from repro.network.config import SimConfig, paper_vct_config, paper_wh_config
from repro.network.simulator import Simulator, build_simulator
from repro.registry import ROUTING_REGISTRY
from repro.traffic.extra import TraceReplay
from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic, BurstTraffic


# ----------------------------------------------------------------- the rule
#: (nodes, load, unit, VCT?) -> core wins?  The first block is the
#: measured table the constants were read from (corechoice.py,
#: docs/measurements/pr-23.md): Dragonfly h=2 / 3 / 4 / 5 have 72 / 342 /
#: 1 056 / 2 550 nodes, VCT packets are 8 phits, WH flits 10
RULE_ROWS = [
    # VCT: loses below ~10 offered flits a cycle ...
    (72, 0.15, 8, True, False),
    (72, 1.0, 8, True, False),     # 9.0: all of h=2, saturated included
    (342, 0.15, 8, True, False),   # 6.4: grid_cold_warm's h=3 points
    (342, 0.2, 8, True, False),    # 8.6
    # ... and wins from there
    (342, 0.25, 8, True, True),    # 10.7
    (342, 0.4, 8, True, True),
    (1056, 0.1, 8, True, True),    # 13.2
    (1056, 0.7, 8, True, True),
    # WH: the threshold sits higher
    (342, 0.1, 10, False, False),  # 3.4
    (342, 0.4, 10, False, False),  # 13.7
    (1056, 0.15, 10, False, False),  # 15.8
    (1056, 0.2, 10, False, True),  # 21.1
    (342, 0.9, 10, False, True),   # 30.8
    # no readable load (burst, trace, hand injection): judged at load
    # 1.0 — a fabric-size clause
    (72, None, 8, True, False),
    (342, None, 8, True, True),
    (1056, None, 8, True, True),
    (72, None, 10, False, False),
    (342, None, 10, False, True),
    # the other fabrics are just node counts to the rule: the 9-router
    # flattened butterfly and the 3 x 4 torus of the test matrix (p=2) ...
    (18, 1.0, 8, True, False),
    (24, None, 8, True, False),
    # ... and sizes someone would sweep
    (512, 0.5, 8, True, True),     # 16 x 16 torus, p=2
    (512, 0.1, 8, True, False),
    # zero load never wins
    (1056, 0.0, 8, True, False),
]


@pytest.mark.parametrize("nodes,load,unit,vct,wins", RULE_ROWS)
def test_the_rule_is_a_table(nodes, load, unit, vct, wins):
    decided, why = corechoice.core_wins(nodes, load, unit, vct)
    assert decided is wins
    # the clause names both numbers and the regime
    offered = nodes * (1.0 if load is None else load) / unit
    threshold = (corechoice.CORE_WINS_FROM_VCT if vct
                 else corechoice.CORE_WINS_FROM_WH)
    assert f"{offered:.1f}" in why and f"{threshold:g}" in why
    assert ("vct" if vct else "wh") in why and (">=" if wins else "<") in why


def _traffic(kind, sim):
    if kind == "burst":
        return BurstTraffic(UniformRandom(), 1)
    if kind == "trace":
        return TraceReplay([(0, 0, sim.topo.num_nodes - 1)])
    return None if kind == "none" else BernoulliTraffic(UniformRandom(), kind)


@pytest.mark.parametrize("config,traffic,path", [
    (paper_vct_config(h=2), 0.4, "wheel"),
    (paper_vct_config(h=2), 1.0, "wheel"),
    (paper_vct_config(h=3), 0.15, "wheel"),
    (paper_vct_config(h=3), 0.6, "core"),
    (paper_wh_config(h=3), 0.3, "wheel"),
    (paper_wh_config(h=3), 0.9, "core"),
    (paper_vct_config(h=2), "burst", "wheel"),
    (paper_vct_config(h=3), "burst", "core"),
    (paper_vct_config(h=3), "trace", "core"),
    (paper_vct_config(h=3), "none", "core"),  # packets injected by hand
    (paper_vct_config(h=2), "none", "wheel"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_auto_decides_at_the_first_step_under_the_real_rule(config, traffic, path):
    sim = build_simulator(config.with_(routing="minimal", engine="auto"))
    sim.traffic = _traffic(traffic, sim)
    # eligible, nobody stepped: no router built, nothing decided
    assert (sim.engine_path, sim.engine_why) == ("undecided", "")
    assert sim._core is corechoice.UNDECIDED and type(sim.routers) is not list
    if traffic == "none":
        sim.inject_packet(0, sim.topo.num_nodes - 1)
    else:
        sim.step()
    assert sim.engine_path == path
    assert ("<" if path == "wheel" else ">=") in sim.engine_why
    assert (type(sim.routers) is list) == (path == "wheel")
    sim.run(40)
    assert sim.engine_path == path  # decided once


@pytest.mark.parametrize("engine,routing,arbitration,why", [
    ("wheel", "minimal", "rr", "engine='wheel'"),
    ("reference", "minimal", "rr", "engine='reference'"),
    ("auto", "olm", "rr", "routing 'olm' is not array_core"),
    ("auto", "pb", "rr", "routing 'pb' is not array_core"),
    ("auto", "minimal", "random", "arbitration 'random' draws per conflict"),
])
def test_an_ineligible_point_says_which_clause_made_it_a_wheel_run(
        engine, routing, arbitration, why):
    sim = build_simulator(SimConfig(h=3, routing=routing, engine=engine,
                                    arbitration=arbitration))
    assert (sim.engine_path, sim.engine_why) == ("wheel", why)


def test_every_eligibility_clause_is_reported(monkeypatch):
    """The three clauses no shipped component combination reaches alone."""
    from repro.core.minimal import MinimalRouting
    from repro.network.flowcontrol import VirtualCutThrough

    def why_with(attr, value, owner=MinimalRouting):
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, value)
            sim = build_simulator(SimConfig(h=2, routing="minimal",
                                            engine="auto"))
            assert sim.engine_path == "wheel"
            return sim.engine_why

    assert "per-cycle hook" in why_with("per_cycle", lambda self, sim, t: None)
    assert "escape ring" in why_with("is_escape_hop",
                                     lambda self, kind, vc: False)

    class Foreign(VirtualCutThrough):
        pass

    import repro.network.simulator as simulator

    with monkeypatch.context() as patch:
        patch.setattr(simulator.FLOW_CONTROL_REGISTRY.get("vct"), "from_config",
                      classmethod(lambda cls, config: Foreign()))
        sim = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"))
    assert (sim.engine_path, "not built in" in sim.engine_why) == ("wheel", True)


def test_leaving_says_what_asked_for_the_object_graph(core_wins_everywhere):
    def left_by(leave):
        sim = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"),
                              BernoulliTraffic(UniformRandom(), 0.5))
        sim.run(20)
        assert (sim.engine_path, sim.engine_why) == ("core", "pinned by the test")
        leave(sim)
        return sim.engine_path, sim.engine_why

    # a sampler reads what the core keeps: the core stays, on its clause
    assert left_by(_attach_sampler) == ("core", "pinned by the test")
    assert left_by(_leave_by_arrivals_due) == ("wheel", "arrivals_due was read")
    assert left_by(_leave_by_routers_read) == ("wheel", "sim.routers was read")


# ---------------------------------------------------------------- selection
pinned = pytest.mark.usefixtures("core_wins_everywhere")


@pinned
@pytest.mark.parametrize("attach", ["none", "observer", "sampler"])
@pytest.mark.parametrize("arbitration", ["rr", "age", "random"])
@pytest.mark.parametrize("routing", ROUTING_REGISTRY.available())
def test_auto_carries_a_core_iff_the_rule_says_so(routing, arbitration, attach):
    cfg = SimConfig(h=2, routing=routing, arbitration=arbitration, seed=3,
                    engine="auto")
    sim = build_simulator(cfg)
    if attach == "observer":
        sim.add_delivery_observer(lambda pkt, cycle: None)
    elif attach == "sampler":
        _attach_sampler(sim)
    sim.inject_packet(0, sim.topo.num_nodes - 1)
    sim.step()
    expected = (ROUTING_REGISTRY.get(routing).array_core
                and arbitration in ("rr", "age"))
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


@pinned
def test_nothing_is_built_before_the_first_step_and_an_early_sampler_costs_nothing():
    import sys

    loaded = "repro.network.arraysim" in sys.modules
    sim = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"))
    assert sim._core is corechoice.UNDECIDED  # eligible, not decided
    parked = sim.routers  # holding the stand-in is free: no arrays, no routers
    assert sim.engine_path == "undecided" and type(parked) is not list
    _attach_sampler(sim)
    # the early sampler decided nothing and built nothing: no router, no
    # core, no numpy ...
    assert (sim.engine_path, sim.engine_why) == ("undecided", "")
    assert sim._core is corechoice.UNDECIDED and type(sim.routers) is not list
    assert ("repro.network.arraysim" in sys.modules) == loaded
    # ... and the first step decides as it does without one
    bare = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"))
    for point in (sim, bare):
        point.traffic = BernoulliTraffic(UniformRandom(), 0.5)
        point.step()
    assert (sim.engine_path, sim.engine_why) == (bare.engine_path, bare.engine_why)
    assert sim.engine_path == "core" and type(sim.routers) is not list


@pinned
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


def _attach_sampler(sim):
    sim.add_sampler(lambda boundary: boundary + 50, sim.now + 50)


def _leave_by_arrivals_due(sim):
    due = sim.arrivals_due(sim.now)
    assert all(len(entry) == 4 for entry in due)


def _leave_by_routers_read(sim):
    routers = sim.routers  # holding the stand-in is not a read ...
    assert sim._core is not None
    # ... looking inside is (the occupancy probes iterate it)
    assert [r.rid for r in routers] == list(range(sim.topo.num_routers))
    assert routers[0] is sim.routers[0] and len(routers) == len(sim.routers)


TRIGGERS = {"arrivals_due": _leave_by_arrivals_due,
            "routers": _leave_by_routers_read}


@pinned
@pytest.mark.parametrize("flow", FLOW)
@pytest.mark.parametrize("fabric", FABRICS)
def test_a_sampler_on_the_core_fires_where_the_wheels_does(fabric, flow):
    """Boundaries, counters and occupancy a sampler reads on a live core
    are the wheel's, through a burst's drain and the idle tail after it,
    where fast-forward jumps over several boundaries at once."""
    def samples(engine):
        cfg = SimConfig(routing="minimal", seed=4, engine=engine,
                        **FABRICS[fabric], **FLOW[flow])
        sim = build_simulator(cfg, BurstTraffic(UniformRandom(), 3))
        log = []

        def sample(boundary):
            log.append((boundary, sim.now, sim._next_pid, sim.grants,
                        sim.credit_phits, sim.packets_in_flight,
                        sim.vc_occupancy()))
            return boundary + 7

        sim.add_sampler(sample, 5)
        sim.run_until_drained(50_000)
        sim.run(100)
        return sim.engine_path, log

    path, wheel = samples("wheel")
    assert path == "wheel" and wheel[-1][3] and wheel[-1][4]
    assert any(occ for *_, occupancy in wheel for occ in occupancy.values())
    assert sum(now > boundary for boundary, now, *_ in wheel) >= 10  # jumps
    assert samples("auto") == ("core", wheel)


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
    return log, drained, sim.now, sim.ledger()


@pinned
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


def _saturated_h3(cfg: SimConfig, leave=None, at: int | None = None,
                  cycles: int = 48):
    """Delivery log, counters and the traffic stream's next 100 words of a
    saturated h=3 UN window (left at cycle ``at``) and its drain."""
    sim = build_simulator(cfg, BernoulliTraffic(UniformRandom(), 1.0))
    log = []
    sim.add_delivery_observer(
        lambda pkt, cycle: log.append((pkt.pid, pkt.src, pkt.dst, cycle)))
    windows, last = [], None  # the cycles whose injection took a new window
    for cycle in range(cycles):
        if cycle == at:
            leave(sim)
            assert sim._core is None
        sim.step()
        words = getattr(sim.rng_traffic, "_words", None)
        if words is not None and words is not last:
            windows.append(cycle)
            last = words
    sim.traffic = None
    sim.run_until_drained(50_000)
    assert sim.total_buffered_flits() == 0
    tail = [sim.rng_traffic.getrandbits(32) for _ in range(100)]
    return (log, sim.ledger(), tail), windows


@pinned
@pytest.mark.parametrize("paper", [paper_vct_config, paper_wh_config])
def test_leaving_the_core_inside_a_plan_window_matches_a_wheel_run(paper):
    """The core serves injection a plan window of cycles at a time; an
    exit inside the second window hands the wheel a generator standing at
    the cycle's end, not the window's."""
    cfg = paper(h=3, routing="minimal", seed=3)
    wheel, _ = _saturated_h3(cfg.with_(engine="wheel"))
    assert len(wheel[0]) > 150  # a real window, not an empty one
    auto, windows = _saturated_h3(cfg.with_(engine="auto"))
    assert auto == wheel
    assert len(windows) >= 3  # the plan crossed two window boundaries
    at = (windows[1] + windows[2]) // 2 + 1  # inside the second window
    assert windows[1] < at < windows[2]
    for name, leave in TRIGGERS.items():
        assert _saturated_h3(cfg.with_(engine="auto"), leave, at)[0] == wheel, name


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
    """Run 120 cycles (leaving the core at ``leave_at``); return the
    simulator, the injection calls, the traffic RNG's type after each
    cycle, the outcome and the RNG state entering cycle ``leave_at``."""
    traffic = _SpyTraffic(UniformRandom(), 0.6)
    sim = build_simulator(cfg, traffic)
    log = []
    sim.add_delivery_observer(
        lambda pkt, cycle: log.append((pkt.pid, pkt.src, pkt.dst, cycle)))
    rng_types, state = [], None
    for cycle in range(120):
        if cycle == leave_at:
            if sim._core is not None:
                sim._leave_core()
            state = sim.rng_traffic.getstate()
        sim.step()
        rng_types.append(type(sim.rng_traffic))
    outcome = (log, sim.ledger())
    return sim, traffic.calls, rng_types, outcome, state


@pytest.mark.parametrize("engine", ["wheel", "auto"])
def test_a_wheel_run_injects_through_inject_on_a_plain_random(engine):
    cfg = SimConfig(h=2, routing="olm", seed=5, engine=engine)
    sim, calls, rng_types, *_ = _spy_run(cfg)
    assert sim._core is None
    assert calls == ["inject"] * 120
    assert rng_types == [random.Random] * 120  # first cycle to last


@pinned
def test_a_live_core_injects_through_inject_batch_and_leaves_on_inject():
    from repro.traffic.mtstream import StreamRandom

    cfg = SimConfig(h=2, routing="minimal", seed=5)
    leave_at = random.Random(17).randrange(10, 110)
    *_, wheel, wheel_state = _spy_run(cfg.with_(engine="wheel"), leave_at)
    assert len(wheel[0]) > 50  # a real window, not an empty one

    sim, calls, rng_types, outcome, _ = _spy_run(cfg.with_(engine="auto"))
    assert sim._core is not None
    assert calls == ["inject_batch"] * 120
    assert rng_types == [StreamRandom] * 120
    assert outcome == wheel

    # a drawn-cycle exit: batched up to it on the stream wrapper the core
    # installed, scalar after it on the plain generator the exit released
    # — standing where the wheel's stands, and still the wheel's bytes
    sim, calls, rng_types, outcome, state = _spy_run(
        cfg.with_(engine="auto"), leave_at)
    assert sim._core is None and sim.packets_in_flight
    assert calls == (["inject_batch"] * leave_at
                     + ["inject"] * (120 - leave_at))
    assert rng_types == ([StreamRandom] * leave_at
                         + [random.Random] * (120 - leave_at))
    assert type(sim.rng_traffic) is random.Random
    assert state == wheel_state
    assert outcome == wheel
