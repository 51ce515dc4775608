"""The sampled MetricsHub against the event-fed hub it replaced.

``MetricsHub`` reads engine counters at bucket boundaries;
``tapped_hub.TappedHub`` is the hub as it was, fed by every injection,
grant, credit, delivery and ring hop of a ``TappedSimulator``, and
counting a ring entry at each ring hop whose previous hop was off the
ring.  Both ride the same
simulator, so every window below holds their ``records()`` and
``series()`` equal byte for byte: all seven routings under VCT and
three under wormhole, on a steady window, a transient load step, a
drain whose idle fast-forward jumps over boundaries, two hubs with
different buckets, a ``reset()`` mid-window and a detach followed by a
fresh attach.
"""

from __future__ import annotations

import pytest
from tapped_hub import TappedHub, TappedSimulator

from repro.metrics.hub import MetricsHub, jsonl_line, strict_jsonable
from repro.network.config import SimConfig
from repro.registry import ROUTING_REGISTRY
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

_WH = dict(flow_control="wh", packet_phits=40, flit_phits=10)
CASES = ([(r, "vct") for r in ROUTING_REGISTRY.available()]
         + [(r, "wh") for r in ("minimal", "valiant", "rlm")])


def _sim(routing, fc, pattern="advg+1", load=0.3, seed=3):
    cfg = SimConfig(h=2, routing=routing, seed=seed,
                    **(_WH if fc == "wh" else {}))
    sim = TappedSimulator(cfg)
    sim.traffic = BernoulliTraffic(pattern_by_name(pattern, sim.topo), load)
    return sim


def _pair(sim, bucket):
    return MetricsHub(sim, bucket=bucket), TappedHub(sim, bucket=bucket)


def _same(hub, oracle, end=None):
    """Records and series of both hubs, byte for byte."""
    assert [jsonl_line(r) for r in hub.records(end, {"x": 1})] == \
        [jsonl_line(r) for r in oracle.records(end, {"x": 1})]
    assert jsonl_line(strict_jsonable(hub.series(end))) == \
        jsonl_line(strict_jsonable(oracle.series(end)))


@pytest.mark.parametrize("routing,fc", CASES)
def test_steady_and_transient_windows(routing, fc):
    sim = _sim(routing, fc, pattern="uniform" if fc == "wh" else "advg+1")
    sim.run(150)
    hub, oracle = _pair(sim, 50)
    sim.run(200)
    _same(hub, oracle)
    # the load step of a transient point, onto the same window
    BurstTraffic(pattern_by_name("uniform", sim.topo), 2).inject(sim, sim.now)
    sim.run(230)  # ends mid-bucket: the partial bucket is no row yet
    _same(hub, oracle)
    _same(hub, oracle, end=sim.now - 130)  # an earlier end reads a prefix
    assert hub.summary_row()["grants"] > 0


@pytest.mark.parametrize("routing,fc", CASES)
def test_drain_jumping_over_boundaries(routing, fc):
    sim = _sim(routing, fc)
    sim.traffic = BurstTraffic(pattern_by_name("advg+1", sim.topo), 1)
    stepped = []
    step = sim.step

    def counting():
        stepped.append(sim.now)
        step()

    sim.step = counting  # type: ignore[method-assign]
    hub, oracle = _pair(sim, 10)
    drained = sim.run_until_drained(100_000)
    _same(hub, oracle)
    sim.run(95)  # an idle tail: one jump over several boundaries
    ran = set(stepped)
    jumped = [b for b in range(10, sim.now + 1, 10) if b - 1 not in ran]
    # Piggybacking's per-cycle broadcast turns the jump off
    assert (min(jumped, default=sim.now) < drained) == (routing != "pb"), jumped
    assert (len(jumped) >= 9) == (routing != "pb"), jumped
    _same(hub, oracle)


@pytest.mark.parametrize("routing,fc", CASES)
def test_two_buckets_reset_and_reattach(routing, fc):
    sim = _sim(routing, fc, pattern="uniform")
    sim.run(100)
    coarse, coarse_oracle = _pair(sim, 60)
    sim.run(35)
    fine, fine_oracle = _pair(sim, 25)
    sim.run(140)
    _same(coarse, coarse_oracle)
    _same(fine, fine_oracle)
    fine.reset()
    fine_oracle.reset()
    sim.run(110)
    _same(coarse, coarse_oracle)
    _same(fine, fine_oracle)
    for hub in (coarse, coarse_oracle):
        hub.detach()
    sim.run(40)
    _same(coarse, coarse_oracle)  # frozen at the detach
    again, again_oracle = _pair(sim, 60)
    sim.run(130)
    _same(again, again_oracle)
    _same(fine, fine_oracle)
