"""The sampled MetricsHub against the event-fed hub it replaced.

``MetricsHub`` reads engine counters at bucket boundaries;
``tapped_hub.TappedHub`` is the hub as it was, fed by every injection,
grant, credit, delivery and ring hop of a ``TappedSimulator``, and
counting a ring entry at each ring hop whose previous hop was off the
ring.  Every window below holds their ``records()`` and ``series()``
equal byte for byte: all seven routings under VCT and three under
wormhole, on a steady window, a transient load step, a drain whose
idle fast-forward jumps over boundaries, two hubs with different
buckets, a ``reset()`` mid-window and a detach followed by a fresh
attach.  On a wheel case both hubs ride the one tapped simulator; on a
core case (minimal routing, the one mechanism the array core runs,
under either flow control) the ``MetricsHub`` rides an ``auto``
simulator pinned to the core, stepped in lockstep with the oracle's.
"""

from __future__ import annotations

import pytest
from tapped_hub import TappedHub, TappedSimulator

from repro.metrics.hub import MetricsHub, jsonl_line, strict_jsonable
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.registry import ROUTING_REGISTRY
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

# a TappedSimulator is never on a core: pinning the rule moves only the
# core cases' twins, and keeps them on their core on an h=2 fabric
pytestmark = pytest.mark.usefixtures("core_wins_everywhere")

_WH = dict(flow_control="wh", packet_phits=40, flit_phits=10)
CASES = ([(r, "vct", "wheel") for r in ROUTING_REGISTRY.available()]
         + [(r, "wh", "wheel") for r in ("minimal", "valiant", "rlm")]
         + [("minimal", fc, "core") for fc in ("vct", "wh")])


def _sims(routing, fc, engine, pattern="advg+1", load=0.3, seed=3):
    """``(sim, oracle_sim)``: what the hub under test rides and what its
    oracle rides — one tapped wheel, or a pinned core and a tapped wheel."""
    cfg = SimConfig(h=2, routing=routing, seed=seed,
                    **(_WH if fc == "wh" else {}))
    oracle_sim = TappedSimulator(cfg)
    sim = (oracle_sim if engine == "wheel"
           else Simulator(cfg.with_(engine="auto")))
    for each in _each((sim, oracle_sim)):
        each.traffic = BernoulliTraffic(pattern_by_name(pattern, each.topo), load)
    return sim, oracle_sim


def _each(sims):
    """Each distinct simulator of a pair, the hub-under-test's first."""
    return list(dict.fromkeys(sims))


def _run(sims, cycles):
    for sim in _each(sims):
        sim.run(cycles)


def _on(sims, engine):
    """Both simulators are on the engine their case names."""
    assert sims[0].engine_path == engine and sims[1].engine_path == "wheel"


def _pair(sims, bucket):
    return MetricsHub(sims[0], bucket=bucket), TappedHub(sims[1], bucket=bucket)


def _same(hub, oracle, end=None):
    """Records and series of both hubs, byte for byte."""
    assert [jsonl_line(r) for r in hub.records(end, {"x": 1})] == \
        [jsonl_line(r) for r in oracle.records(end, {"x": 1})]
    assert jsonl_line(strict_jsonable(hub.series(end))) == \
        jsonl_line(strict_jsonable(oracle.series(end)))


@pytest.mark.parametrize("routing,fc,engine", CASES)
def test_steady_and_transient_windows(routing, fc, engine):
    sims = _sims(routing, fc, engine,
                 pattern="uniform" if fc == "wh" else "advg+1")
    _run(sims, 150)
    hub, oracle = _pair(sims, 50)
    _run(sims, 200)
    _same(hub, oracle)
    # the load step of a transient point, onto the same window
    for sim in _each(sims):
        BurstTraffic(pattern_by_name("uniform", sim.topo), 2).inject(sim, sim.now)
    _run(sims, 230)  # ends mid-bucket: the partial bucket is no row yet
    _same(hub, oracle)
    _same(hub, oracle, end=sims[0].now - 130)  # an earlier end reads a prefix
    assert hub.summary_row()["grants"] > 0
    _on(sims, engine)


@pytest.mark.parametrize("routing,fc,engine", CASES)
def test_drain_jumping_over_boundaries(routing, fc, engine):
    sims = _sims(routing, fc, engine)
    for each in _each(sims):
        each.traffic = BurstTraffic(pattern_by_name("advg+1", each.topo), 1)
    sim = sims[0]
    stepped = []
    step = sim.step

    def counting():
        stepped.append(sim.now)
        step()

    sim.step = counting  # type: ignore[method-assign]
    hub, oracle = _pair(sims, 10)
    drained, *others = [each.run_until_drained(100_000) for each in _each(sims)]
    assert others in ([], [drained])
    _same(hub, oracle)
    _run(sims, 95)  # an idle tail: one jump over several boundaries
    ran = set(stepped)
    jumped = [b for b in range(10, sim.now + 1, 10) if b - 1 not in ran]
    # Piggybacking's per-cycle broadcast turns the jump off
    assert (min(jumped, default=sim.now) < drained) == (routing != "pb"), jumped
    assert (len(jumped) >= 9) == (routing != "pb"), jumped
    _same(hub, oracle)
    _on(sims, engine)


@pytest.mark.parametrize("routing,fc,engine", CASES)
def test_two_buckets_reset_and_reattach(routing, fc, engine):
    sims = _sims(routing, fc, engine, pattern="uniform")
    _run(sims, 100)
    coarse, coarse_oracle = _pair(sims, 60)
    _run(sims, 35)
    fine, fine_oracle = _pair(sims, 25)
    _run(sims, 140)
    _same(coarse, coarse_oracle)
    _same(fine, fine_oracle)
    fine.reset()
    fine_oracle.reset()
    _run(sims, 110)
    _same(coarse, coarse_oracle)
    _same(fine, fine_oracle)
    for hub in (coarse, coarse_oracle):
        hub.detach()
    _run(sims, 40)
    _same(coarse, coarse_oracle)  # frozen at the detach
    again, again_oracle = _pair(sims, 60)
    _run(sims, 130)
    _same(again, again_oracle)
    _same(fine, fine_oracle)
    _on(sims, engine)
