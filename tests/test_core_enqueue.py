"""What enters the array core, and what it hands the wheel when it is left.

``ArrayCore._enqueue`` is the one way a packet gets into the arrays,
whatever its flit count and whoever injected it.  Three tables:

* **what enters** — a plug-in process is held to ``inject_packet``'s
  contract on the core as on the wheel; a wormhole batch is as lazy as a
  VCT one; a hand injection counts when it is made, not when it is
  flushed;
* **the wheel's ledgers** — ``helpers.wheel_ledger_checks`` holds every
  25 cycles of wheel runs of every mechanism on each fabric it runs on, and each
  named check is shown to fail on a simulator corrupted in exactly that
  way (``tests/test_array_allocator.py`` does the same for the core's);
* **the hand-over** — right after ``_leave_core`` on runs whose packets
  entered through each enqueue shape, what ``materialize`` built
  satisfies those ledgers, and keeps satisfying them to the drain.

The fabrics are small on purpose, so the module pins the offered-load
rule to "the core wins" (``core_wins_everywhere``).
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import (
    FABRICS,
    assert_core_ledgers,
    assert_wheel_ledgers,
    wheel_ledger_checks,
)

from repro.facade import session
from repro.network.config import SimConfig
from repro.network.simulator import build_simulator
from repro.topology import PortKind
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

pytestmark = pytest.mark.usefixtures("core_wins_everywhere")

_WH = dict(flow_control="wh", packet_phits=40, flit_phits=10)


# -------------------------------------------------------------- what enters
class _BadProcess:
    """A plug-in traffic process that offers the same pairs through both
    protocols, whatever they are."""

    def __init__(self, srcs, dsts):
        self.srcs, self.dsts = srcs, dsts

    def inject(self, sim, now):
        for src, dst in zip(self.srcs, self.dsts):
            sim.inject_packet(src, dst, now)

    def inject_batch(self, sim, now):
        return np.array(self.srcs), np.array(self.dsts)


@pytest.mark.parametrize("engine", ["wheel", "auto"])
@pytest.mark.parametrize("srcs, dsts", [
    ([3, 5], [3]),  # self-addressed *and* ragged: numpy would broadcast it
    ([3, 5], [4, 5]),
], ids=["ragged_too", "self_addressed"])
def test_a_self_addressed_batch_is_refused_on_both_engines(engine, srcs, dsts):
    sim = build_simulator(SimConfig(h=2, routing="minimal", engine=engine),
                          _BadProcess(srcs, dsts))
    with pytest.raises(ValueError, match="source and destination nodes must differ"):
        sim.step()
    assert (sim._core is not None) == (engine == "auto")


def test_a_ragged_batch_is_refused():
    """Only the batch protocol can be ragged (the scalar loop above zips)."""
    sim = build_simulator(SimConfig(h=2, routing="minimal", engine="auto"),
                          _BadProcess([3, 5, 7], [4, 6]))
    with pytest.raises(ValueError, match="must differ"):
        sim.step()
    assert sim.ledger().generated == 0 and sim._core.buffered == 0


class _CountingObserver:
    """A batch-capable delivery observer counting its calls by form."""

    def __init__(self):
        self.scalar_calls = self.batch_calls = 0

    def on_eject(self, packet, now):
        self.scalar_calls += 1

    def on_eject_batch(self, latencies, dones):
        self.batch_calls += 1


@pytest.mark.parametrize("fragment", [{}, _WH], ids=["vct", "wh"])
def test_a_bernoulli_window_with_batch_observers_builds_no_packet(fragment):
    """Every batch packet is lazy, multi-flit ones included: with only
    batch-capable observers (the Session's ``MetricsHub``) nothing ever
    asks for the object."""
    s = session(SimConfig(h=2, routing="minimal", engine="auto", seed=11,
                          **fragment))
    s.with_traffic(BernoulliTraffic(pattern_by_name("uniform", s.sim.topo), 0.5))
    calls = _CountingObserver()
    s.sim.add_delivery_observer(calls.on_eject)
    s.run(400)
    core = s.sim._core
    assert core is not None
    assert s.sim.delivered > 50 and calls.batch_calls and not calls.scalar_calls
    assert all(pkt is None for pkt in core._pkt_obj)
    assert not core._pk_lazy[np.asarray(core._pk_free, int)].any()
    assert_core_ledgers(core)


@pytest.mark.parametrize("fragment", [{}, _WH], ids=["vct", "wh"])
def test_a_hand_injection_counts_when_it_is_made(fragment):
    """A window opened between ``inject_packet`` and the next ``step``
    (what ``Session.reset`` does after a warm-up) leaves the packet out
    of its ``generated`` on both engines: the core stages the arrays,
    never the ledger."""
    seen = {}
    for engine in ("wheel", "auto"):
        sim = build_simulator(SimConfig(h=2, routing="minimal", engine=engine,
                                        **fragment))
        first = sim.inject_packet(0, 9)
        assert (sim.ledger().generated, sim.packets_in_flight) == (1, 1)
        assert sim.total_buffered_flits() == (4 if fragment else 1)
        opened = sim.ledger()
        second = sim.inject_packet(0, 17)
        sim.run_until_drained(10_000)
        assert (sim._core is not None) == (engine == "auto")
        window = sim.ledger().since(opened)
        seen[engine] = (window.generated, window.delivered, first.pid,
                        second.pid, first.delivered_cycle, second.delivered_cycle)
    assert seen["auto"] == seen["wheel"]
    assert seen["wheel"][:2] == (1, 2)


# ------------------------------------------------------ the wheel's ledgers
#: every shipped mechanism, on each shipped fabric it runs on
_LEDGER_RUNS = [(fabric, routing, fragment) for fabric in FABRICS for routing, fragment in (
    ("minimal", {}), ("minimal", _WH), ("valiant", {}), ("ofar", {}))] + [
    ("dragonfly", routing, {}) for routing in ("pb", "par62", "rlm", "olm")] + [
    ("dragonfly", "rlm", _WH)]


@pytest.mark.parametrize("fabric, routing, fragment", _LEDGER_RUNS, ids=[
    f"{f}-{r}{'_wh' if w else ''}" for f, r, w in _LEDGER_RUNS])
def test_the_wheel_ledgers_hold_every_25_cycles(fabric, routing, fragment):
    sim = build_simulator(SimConfig(routing=routing, engine="wheel", seed=3,
                                    **fragment, **FABRICS[fabric]))
    sim.traffic = BernoulliTraffic(pattern_by_name("uniform", sim.topo), 0.7)
    for _ in range(12):
        sim.run(25)
        assert_wheel_ledgers(sim)
    assert sim.delivered > 0 and sim.total_buffered_flits() > 0


def _link(sim, want_flits: bool):
    """An (output, VC, input VC buffer it feeds) triple of a mid-run
    wheel, the buffer holding flits or empty as asked."""
    for router in sim.routers:
        for out in router.outputs:
            if out.kind == PortKind.EJECT:
                continue
            fed = sim.routers[out.dest_router].inputs[out.dest_port].vcs
            for vc, vcb in enumerate(fed):
                if bool(vcb.fifo) == want_flits:
                    return out, vc, vcb
    raise AssertionError("no such link VC")


def _busy_router(sim):
    return next(router for router in sim.routers if router.pending)


def _drop_a_port_count(sim):
    next(ip for ip in _busy_router(sim).inputs if ip.buffered).buffered = 0


def _miscount_a_router(sim):
    _busy_router(sim).pending += 1


def _forget_an_active_router(sim):
    sim._active.discard(_busy_router(sim).rid)


def _shrink_an_occupancy(sim):
    _link(sim, want_flits=True)[2].occupancy -= 1


def _overfill_a_vc(sim):
    out, _, vcb = _link(sim, want_flits=True)
    extra = out.capacity - vcb.occupancy + 1
    vcb.fifo[0].size += extra  # the FIFO agrees ...
    vcb.occupancy += extra  # ... and is deeper than the buffer


def _overdraw_credits(sim):
    out, vc, _ = _link(sim, want_flits=False)
    out.credits[vc] = -1


def _mint_a_credit(sim):
    out, vc, _ = _link(sim, want_flits=False)
    out.credits[vc] += 1


#: corruption -> the checks of ``wheel_ledger_checks`` that must fail, and
#: no other
CORRUPTIONS = {
    _drop_a_port_count: {"port_count", "router_count"},
    _miscount_a_router: {"router_count"},
    _forget_an_active_router: {"active_set"},
    _shrink_an_occupancy: {"vc_occupancy", "link_conservation"},
    _overfill_a_vc: {"vc_depth", "link_conservation"},
    _overdraw_credits: {"credits_nonnegative", "link_conservation"},
    _mint_a_credit: {"link_conservation"},
}


def _mid_run_wheel():
    sim = build_simulator(SimConfig(h=2, routing="minimal", engine="wheel",
                                    seed=3))
    sim.traffic = BernoulliTraffic(pattern_by_name("uniform", sim.topo), 0.8)
    sim.run(60)
    return sim


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda fn: fn.__name__)
def test_each_wheel_ledger_check_fails_on_its_corruption(corrupt):
    sim = _mid_run_wheel()
    assert all(wheel_ledger_checks(sim).values())
    corrupt(sim)
    failed = {name for name, holds in wheel_ledger_checks(sim).items()
              if not holds}
    assert failed == CORRUPTIONS[corrupt]
    with pytest.raises(AssertionError):
        assert_wheel_ledgers(sim)


def test_every_wheel_ledger_check_has_a_corruption_of_its_own():
    assert set().union(*CORRUPTIONS.values()) == set(
        wheel_ledger_checks(_mid_run_wheel()))


# ------------------------------------------------------------ the hand-over
class _ByHand:
    """Eight ``inject_packet`` calls a cycle from three nodes, some of
    them back-dated, for the first five cycles."""

    exhausted = False

    def inject(self, sim, now):
        if now < 5:
            n = sim.topo.num_nodes
            for src in (0, 1, n - 1, 0, 1, n - 1, 0, 0):
                sim.inject_packet(src, (src + 5 + now) % n,
                                  max(0, now - src % 2))
        self.exhausted = now >= 4


#: enqueue shape -> (config fragment, traffic factory over the topology)
SHAPES = {
    "ascending_batch": ({}, lambda topo: BernoulliTraffic(
        pattern_by_name("uniform", topo), 0.8)),
    "wh_batch": (_WH, lambda topo: BernoulliTraffic(
        pattern_by_name("uniform", topo), 0.6)),
    "burst": ({}, lambda topo: BurstTraffic(
        pattern_by_name("advg+1", topo), 3)),
    "wh_burst": (_WH, lambda topo: BurstTraffic(
        pattern_by_name("uniform", topo), 2)),
    "hand_injected_repeats": (_WH, lambda topo: _ByHand()),
}


@pytest.mark.parametrize("leave_at", [1, 7, 40])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fabric", FABRICS)
def test_what_materialize_hands_over_satisfies_the_wheel_ledgers(
        fabric, shape, leave_at):
    fragment, traffic = SHAPES[shape]
    sim = build_simulator(SimConfig(routing="minimal", engine="auto", seed=3,
                                    **fragment, **FABRICS[fabric]))
    sim.traffic = traffic(sim.topo)
    for _ in range(leave_at):
        sim.step()
    core = sim._core
    assert core is not None and sim.packets_in_flight
    assert_core_ledgers(core)
    if shape == "hand_injected_repeats":
        # a hand injection the arrays have not seen yet goes over too
        sim.inject_packet(0, 3)
        assert core._staged
    sim._leave_core()
    assert sim._core is None
    assert_wheel_ledgers(sim)
    sim.run(50)
    assert_wheel_ledgers(sim)
    sim.traffic = None
    sim.run_until_drained(200_000)
    assert_wheel_ledgers(sim)
    assert sim.delivered == sim.ledger().generated > 0
