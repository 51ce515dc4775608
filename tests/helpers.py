"""Shared test utilities: simulator builders and hop-log replay validators."""

from __future__ import annotations

from repro.network import corechoice
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.topology import PortKind
from repro.traffic.processes import BernoulliTraffic

EJECT, LOCAL, GLOBAL = int(PortKind.EJECT), int(PortKind.LOCAL), int(PortKind.GLOBAL)

#: one small instance of each shipped fabric, as ``SimConfig`` knobs
FABRICS = {
    "dragonfly": dict(h=2),
    "flattened_butterfly": dict(topology="flattened_butterfly", fb_routers=9,
                                p=2),
    "torus": dict(topology="torus", torus_rows=3, torus_cols=4, p=2),
}


def pin_core_wins(monkeypatch) -> None:
    """Replace the offered-load rule with "the core wins" (a test fake;
    the ``core_wins_everywhere`` fixture of ``conftest.py`` is this)."""
    monkeypatch.setattr(corechoice, "core_wins",
                        lambda *point: (True, "pinned by the test"))


def build_sim(routing="minimal", traffic=None, **over) -> Simulator:
    """A small h=2 simulator with hop recording on, overridable via kwargs."""
    defaults = dict(h=2, routing=routing, record_hops=True, seed=5)
    defaults.update(over)
    return Simulator(SimConfig(**defaults), traffic)


def bernoulli_sim(routing, pattern, load, **over) -> Simulator:
    sim = build_sim(routing, **over)
    sim.traffic = BernoulliTraffic(pattern, load)
    return sim


def closed_form_min_hop(topo, cur_router: int, packet):
    """The Dragonfly minimal hop from id arithmetic and the exit map.

    The test oracle for the rows ``Dragonfly._compile_min_hops`` builds:
    the pre-compilation ``min_hop``, kept verbatim.
    """
    cur_group = topo.group_of(cur_router)
    if packet.valiant_group is not None and packet.g_hops == 0:
        tgt_group = packet.valiant_group
    else:
        tgt_group = packet.dst_group
    idx = topo.index_in_group(cur_router)
    if cur_group == tgt_group:
        dst_idx = topo.index_in_group(packet.dst_router)
        if idx == dst_idx:
            k = topo.node_index(packet.dst)
            return PortKind.EJECT, k, k, 0
        return (PortKind.LOCAL, topo.local_port_to(idx, dst_idx),
                dst_idx, packet.g_hops)
    exit_idx, gport = topo.exit_port(cur_group, tgt_group)
    if idx == exit_idx:
        return PortKind.GLOBAL, gport, gport, packet.g_hops
    return (PortKind.LOCAL, topo.local_port_to(idx, exit_idx),
            exit_idx, packet.g_hops)


def replay_path(sim: Simulator, packet) -> list[tuple[int, int, int, int]]:
    """Reconstruct (kind, vc, from_router, to_router) hops from a hop log."""
    topo = sim.topo
    links = sim._fabric.wiring
    cur = packet.src_router
    out = []
    assert packet.hops_log is not None, "enable record_hops"
    for kind, port, vc in packet.hops_log:
        if kind == LOCAL:
            nxt, _ = links[cur][port]
        elif kind == GLOBAL:
            nxt, _ = links[cur][topo.local_ports + port]
        else:  # EJECT
            assert cur == packet.dst_router, "ejected at the wrong router"
            assert port == topo.node_index(packet.dst), "ejected at wrong node port"
            nxt = cur
        out.append((kind, vc, cur, nxt))
        cur = nxt
    assert out and out[-1][0] == EJECT, "path must end with ejection"
    return out


def group_segments(sim: Simulator, path):
    """Split a replayed path into per-group local-hop segments."""
    topo = sim.topo
    segments = [[]]
    for kind, vc, frm, to in path:
        if kind == GLOBAL:
            segments.append([])
        elif kind == LOCAL:
            segments[-1].append((vc, topo.index_in_group(frm), topo.index_in_group(to)))
    return segments


def collect_delivered(sim: Simulator, min_packets: int, max_cycles: int = 60000):
    """Run until at least ``min_packets`` packets were delivered; return them.

    Delivered packets are harvested via a wrapped stats callback.
    """
    delivered = []
    sim.add_delivery_observer(lambda pkt, now: delivered.append(pkt))
    while len(delivered) < min_packets:
        assert sim.now < max_cycles, "simulation too slow to deliver packets"
        sim.step()
    return delivered


# ----------------------------------------------------------- VC validators
def assert_ascending_vcs(sim, packet, local_vcs):
    """MIN/VAL/PB/PAR-6/2 discipline: Günther ascending VC chains."""
    path = replay_path(sim, packet)
    locals_seen = 0
    globals_seen = 0
    for kind, vc, _, _ in path:
        if kind == LOCAL:
            if local_vcs >= 6:  # PAR-6/2: one VC per local hop
                assert vc == locals_seen, path
            else:  # 3/2 mechanisms: local VC index == global hops so far
                assert vc == globals_seen, path
            locals_seen += 1
        elif kind == GLOBAL:
            assert vc == globals_seen, path
            globals_seen += 1
    assert globals_seen <= 2
    assert locals_seen <= (6 if local_vcs >= 6 else 2 * 3)


def assert_rlm_discipline(sim, packet):
    """RLM: per-group constant local VC + Table I pair restriction."""
    from repro.core.paritysign import hop_pair_allowed

    path = replay_path(sim, packet)
    globals_seen = 0
    for kind, vc, _, _ in path:
        if kind == GLOBAL:
            assert vc == globals_seen
            globals_seen += 1
        elif kind == LOCAL:
            assert vc == globals_seen  # lVC_{g+1} for every local hop of the group
    for seg in group_segments(sim, path):
        assert len(seg) <= 2, "at most two local hops per supernode"
        if len(seg) == 2:
            (_, i, k), (_, k2, j) = seg
            assert k == k2
            assert hop_pair_allowed(i, k, j), f"forbidden pair {i}->{k}->{j}"


def assert_olm_discipline(sim, packet):
    """OLM: globals ascend; local VCs never exceed the safe escape level."""
    path = replay_path(sim, packet)
    globals_seen = 0
    local_vcs_used = []
    for kind, vc, _, _ in path:
        if kind == GLOBAL:
            assert vc == globals_seen
            globals_seen += 1
        elif kind == LOCAL:
            local_vcs_used.append((vc, globals_seen))
    if globals_seen == 0:
        # intra-group: (0,) minimal or (0, 1) misroute-then-ascend
        vcs = [vc for vc, _ in local_vcs_used]
        assert vcs in ([], [0], [0, 1]), vcs  # eject-only / minimal / misroute
    else:
        for vc, g_before in local_vcs_used:
            assert vc <= g_before, (vc, g_before, path)
    for seg in group_segments(sim, path):
        assert len(seg) <= 2


# ------------------------------------------------------- array-core ledgers
def core_ledger_checks(core) -> dict[str, bool]:
    """The counts an :class:`ArrayCore`'s kernels trust, by name -> holds.

    Each ledger is recomputed from what it summarises — the FIFO chains
    (``_vb_head`` -> ``_fl_next``) and the chunks waiting in the arrival
    and credit rings — for a built core between two steps.  The
    allocator scans the ports ``_ip_buffered`` names and nothing else, so
    a count that drifted low is a silent stall, not a slow scan.
    """
    import numpy as np

    vc_count = len(core._vb_port)
    flits = np.zeros(vc_count, np.int64)
    phits = np.zeros(vc_count, np.int64)
    fl_next, fl_size = core._fl_next.tolist(), core._fl_size.tolist()
    for ivc, slot in enumerate(core._vb_head.tolist()):
        while slot >= 0:
            flits[ivc] += 1
            phits[ivc] += fl_size[slot]
            slot = fl_next[slot]
    per_port = np.bincount(core._vb_port, flits, core._np_ports)
    # on the wire: phits bound for each input VC, credits for each output VC
    arriving = np.zeros(vc_count, np.int64)
    returning = np.zeros(vc_count, np.int64)
    for chunks in core._arr_ring:
        for ivcs, slots in chunks:
            np.add.at(arriving, ivcs, core._fl_size[slots])
    for chunks in core._cr_ring:
        for ovcs, amounts in chunks:
            np.add.at(returning, ovcs, amounts)
    links = (core._ov_dest_ivc >= 0).nonzero()[0]  # output VCs feeding a link
    fed = core._ov_dest_ivc[links]  # ... and the input VC at its far end
    return {
        # _ip_buffered[p] is the flits chained in port p's VCs
        "port_count": bool((core._ip_buffered == per_port).all()),
        # buffered is their sum (plus the flits of the packets ``inject``
        # handed out and the next flush enqueues)
        "total_count":
            core.buffered == (int(core._ip_buffered.sum())
                              + len(core._staged) * len(core._flit_sizes)),
        # _vb_occ[v] is the phits chained in VC v ...
        "vc_occupancy": bool((core._vb_occ == phits).all()),
        # ... and fits the configured depth
        "vc_depth":
            bool((core._vb_occ[fed] <= core._ov_credits0[links]).all()),
        "credits_nonnegative": bool((core._ov_credits >= 0).all()),
        # per link: credits + occupancy + phits and credits on the wire
        # is the depth
        "link_conservation":
            bool((core._ov_credits[links] + core._vb_occ[fed] + arriving[fed]
                  + returning[links] == core._ov_credits0[links]).all()),
    }


def assert_core_ledgers(core) -> None:
    broken = [name for name, holds in core_ledger_checks(core).items()
              if not holds]
    assert not broken, broken


# ------------------------------------------------------------ wheel ledgers
def wheel_ledger_checks(sim) -> dict[str, bool]:
    """The wheel's half of :func:`core_ledger_checks`, by name -> holds.

    The same counts on the object graph of a wheel run between two
    steps, recomputed from the FIFOs and the two timing wheels — so what
    ``ArrayCore.materialize`` hands over answers to the wheel's own
    invariants, not only to the records it goes on to produce.  The wheel
    visits the routers ``_active`` names and, in them, the ports whose
    ``buffered`` is non-zero: a count that drifted low is a silent stall
    here too.
    """
    routers = sim.routers
    arriving: dict = {}  # id(input VC buffer) -> phits on the link to it
    for bucket in sim._arr_wheel:
        for router, port_idx, vc_idx, flit in bucket:
            vcb = router.inputs[port_idx].vcs[vc_idx]
            arriving[id(vcb)] = arriving.get(id(vcb), 0) + flit.size
    returning: dict = {}  # (id(output), VC) -> credits on their way back
    for bucket in sim._cr_wheel:
        for out, vc, amount in bucket:
            returning[id(out), vc] = returning.get((id(out), vc), 0) + amount
    holds = dict.fromkeys(("port_count", "router_count", "active_set",
                           "vc_occupancy", "vc_depth", "credits_nonnegative",
                           "link_conservation"), True)
    for router in routers:
        for ip in router.inputs:
            for vcb in ip.vcs:
                if vcb.occupancy != sum(flit.size for flit in vcb.fifo):
                    holds["vc_occupancy"] = False
            if ip.buffered != ip.total_flits():
                holds["port_count"] = False
        if router.pending != sum(ip.buffered for ip in router.inputs):
            holds["router_count"] = False
        if router.pending and router.rid not in sim._active:
            holds["active_set"] = False
        for out in router.outputs:
            if out.kind == PortKind.EJECT:
                continue
            fed = routers[out.dest_router].inputs[out.dest_port].vcs
            for vc, credits in enumerate(out.credits):
                if credits < 0:
                    holds["credits_nonnegative"] = False
                if fed[vc].occupancy > out.capacity:
                    holds["vc_depth"] = False
                if (credits + fed[vc].occupancy + arriving.get(id(fed[vc]), 0)
                        + returning.get((id(out), vc), 0) != out.capacity):
                    holds["link_conservation"] = False
    return holds


def assert_wheel_ledgers(sim) -> None:
    broken = [name for name, holds in wheel_ledger_checks(sim).items()
              if not holds]
    assert not broken, broken
