"""The array core's allocator: the ledgers it trusts and the scans it takes.

``ArrayCore._alloc`` keeps no state of its own beyond one integer: which
ports to scan it reads from ``_ip_buffered``, and a pass without a grant
closes a gate (``_next_alloc_t``) that ``step`` reopens on the next
arrival, credit or injection.  Two tables:

* **ledgers** — every count the kernels trust equals what it summarises
  (FIFO chains, ring chunks), every 25 cycles of saturated, light,
  multi-flit, burst-drain and hotspot-drain runs on the three shipped
  fabrics; and each named check is shown to fail on a core corrupted in
  exactly that way;
* **scans** — the full scan, the sparse scan, the gated tail and the
  crossings between them emit the wheel's record bytes, also when the
  run leaves its core inside each regime.

The fabrics are small on purpose, so the module pins the offered-load
rule to "the core wins" (``core_wins_everywhere``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from helpers import FABRICS, assert_core_ledgers, core_ledger_checks

from repro.facade import point_record, session
from repro.network import corechoice
from repro.network.config import SimConfig
from repro.network.simulator import build_simulator
from repro.runplan.cache import canonical_record_json
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

pytestmark = pytest.mark.usefixtures("core_wins_everywhere")

_WH = dict(flow_control="wh", packet_phits=40, flit_phits=10)
#: name -> (config fragment, pattern, pattern kwargs, Bernoulli load or
#: None, burst packets a node or None, regimes the run must pass through)
RUNS = {
    "saturated": ({}, "uniform", {}, 1.0, None, {"full"}),
    "light": ({}, "uniform", {}, 0.02, None, {"sparse"}),
    "wh_multi_flit": (_WH, "uniform", {}, 0.6, None, {"full"}),
    "burst_drain": ({}, "uniform", {}, None, 3, {"full", "sparse"}),
    "hotspot_drain": ({}, "hotspot", {"hot_node": 0}, None, 2,
                      {"sparse", "gated"}),
}


class _Watched:
    """A point on its core that notes which way the allocator goes each cycle."""

    def __init__(self, cfg: SimConfig, pattern: str, kwargs: dict, load, burst):
        sim = self.sim = build_simulator(cfg)
        pat = pattern_by_name(pattern, sim.topo, **kwargs)
        sim.traffic = (BernoulliTraffic(pat, load) if burst is None
                       else BurstTraffic(pat, burst))
        corechoice._decide(sim)  # what the first step would do, minus the step
        core = self.core = sim._core
        #: regime -> the first cycle whose step took it
        self.first_cycle: dict[str, int] = {}
        alloc = core._alloc

        def spy(sim, t):
            occupied = np.count_nonzero(core._ip_buffered)
            self._took = "full" if 8 * occupied >= core._np_ports else "sparse"
            alloc(sim, t)

        core._alloc = spy
        self.step()  # builds the arrays

    def step(self) -> None:
        self._took = None
        t = self.sim.now
        self.sim.step()
        took = self._took or ("gated" if self.core.buffered else None)
        if took is not None:
            self.first_cycle.setdefault(took, t)


# ------------------------------------------------------------------ ledgers
@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("fabric", FABRICS)
def test_the_ledgers_hold_every_25_cycles(fabric, run):
    fragment, pattern, kwargs, load, burst, expected = RUNS[run]
    cfg = SimConfig(routing="minimal", engine="auto", seed=3, **fragment,
                    **FABRICS[fabric])
    watched = _Watched(cfg, pattern, kwargs, load, burst)
    sim = watched.sim
    while sim.now < 300 if burst is None else sim.packets_in_flight:
        if sim.now % 25 == 0:
            assert_core_ledgers(watched.core)
        watched.step()
    assert_core_ledgers(watched.core)
    assert set(watched.first_cycle) >= expected, watched.first_cycle
    assert sim.ledger().generated > 0 and sim._core is watched.core


def _link_vc(core, want_flits: bool) -> tuple[int, int]:
    """An (output VC, the input VC it feeds) pair, the latter holding
    flits or empty as asked."""
    links = (core._ov_dest_ivc >= 0).nonzero()[0]
    fed = core._ov_dest_ivc[links]
    pick = ((core._vb_head[fed] >= 0) == want_flits).nonzero()[0][0]
    return int(links[pick]), int(fed[pick])


def _drop_a_port_count(core):
    core._ip_buffered[core._ip_buffered.nonzero()[0][0]] = 0


def _miscount_the_total(core):
    core.buffered += 1


def _shrink_an_occupancy(core):
    core._vb_occ[_link_vc(core, want_flits=True)[1]] -= 1


def _overfill_a_vc(core):
    ovc, ivc = _link_vc(core, want_flits=True)
    extra = int(core._ov_credits0[ovc] - core._vb_occ[ivc]) + 1
    core._fl_size[core._vb_head[ivc]] += extra  # the chain agrees ...
    core._vb_occ[ivc] += extra  # ... and is deeper than the buffer


def _overdraw_credits(core):
    core._ov_credits[_link_vc(core, want_flits=False)[0]] = -1


def _mint_a_credit(core):
    core._ov_credits[_link_vc(core, want_flits=False)[0]] += 1


#: corruption -> the checks of ``core_ledger_checks`` that must fail, and
#: no other
CORRUPTIONS = {
    _drop_a_port_count: {"port_count", "total_count"},
    _miscount_the_total: {"total_count"},
    _shrink_an_occupancy: {"vc_occupancy", "link_conservation"},
    _overfill_a_vc: {"vc_depth", "link_conservation"},
    _overdraw_credits: {"credits_nonnegative", "link_conservation"},
    _mint_a_credit: {"link_conservation"},
}


def _mid_run_core():
    sim = _Watched(SimConfig(h=2, routing="minimal", engine="auto", seed=3),
                   "uniform", {}, 0.8, None).sim
    sim.run(60)
    return sim._core


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda fn: fn.__name__)
def test_each_ledger_check_fails_on_its_corruption(corrupt):
    core = _mid_run_core()
    assert all(core_ledger_checks(core).values())
    corrupt(core)
    failed = {name for name, holds in core_ledger_checks(core).items()
              if not holds}
    assert failed == CORRUPTIONS[corrupt]
    with pytest.raises(AssertionError):
        assert_core_ledgers(core)


def test_every_ledger_check_has_a_corruption_of_its_own():
    assert set().union(*CORRUPTIONS.values()) == set(
        core_ledger_checks(_mid_run_core()))


# -------------------------------------------------------------------- scans
_WINDOW = 150
#: name -> (config fragment, pattern, pattern kwargs, Bernoulli load or
#: None, burst packets a node or None, regimes the run must pass through)
SCANS = {
    "advg_burst_drain": ({}, "advg+1", {}, None, 3,
                         {"full", "sparse", "gated"}),
    "hotspot_drain": ({}, "hotspot", {"hot_node": 0}, None, 2,
                      {"sparse", "gated"}),
    "light_age": (dict(arbitration="age"), "uniform", {}, 0.1, None,
                  {"sparse"}),
    "saturated_age": (dict(arbitration="age"), "uniform", {}, 1.0, None,
                      {"full"}),
}


def _scan_record(scan: str, engine: str, at: int = 0, leave: bool = False) -> str:
    """Record bytes of ``scan`` on ``engine``, split (and left) at cycle ``at``."""
    fragment, pattern, kwargs, load, burst, _ = SCANS[scan]
    cfg = SimConfig(h=3, routing="minimal", engine=engine, seed=7, **fragment)
    s = session(cfg)
    sim = s.sim
    pat = pattern_by_name(pattern, sim.topo, **kwargs)
    s.with_traffic(BernoulliTraffic(pat, load) if burst is None
                   else BurstTraffic(pat, burst))
    s.run(at)
    if leave:
        sim._leave_core()
    if burst is None:
        result = s.measure(_WINDOW - at)
    else:  # the drain time counts from cycle 0 wherever the run was split
        result = replace(s.drain(100_000), drain_cycles=sim.now)
    assert (sim._core is not None) == (engine == "auto" and not leave)
    return canonical_record_json(point_record(result, cfg))


@pytest.mark.parametrize("scan", SCANS)
def test_every_scan_regime_emits_the_wheels_bytes(scan):
    fragment, pattern, kwargs, load, burst, expected = SCANS[scan]
    probe = _Watched(SimConfig(h=3, routing="minimal", engine="auto", seed=7,
                               **fragment), pattern, kwargs, load, burst)
    while (probe.sim.now < _WINDOW if burst is None
           else probe.sim.packets_in_flight):
        probe.step()
    assert set(probe.first_cycle) >= expected, probe.first_cycle
    wheel = _scan_record(scan, "wheel")
    assert _scan_record(scan, "auto") == wheel
    for regime, cycle in probe.first_cycle.items():
        assert _scan_record(scan, "auto", cycle, leave=True) == wheel, regime
