"""Cross-topology suite: the new fabrics against the Topology protocol.

Covers the flattened butterfly and the 2-D torus end to end —
structural validation, escape-ring embeddings, the ``min_hop`` routing
oracle, capability gating of the Dragonfly-only mechanisms, actionable
construction errors, engine smoke runs and the run-plan determinism
contract (serial == process == cache replay, byte-wise) on both
fabrics.
"""

import random
from itertools import islice

import networkx as nx
import pytest

import repro
from repro.experiments.presets import cross_topology_config
from repro.network.config import SimConfig
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.runplan import (
    ResultCache,
    RunSpec,
    canonical_record_json,
    execute,
)
from repro.topology import (
    Dragonfly,
    FlattenedButterfly,
    PortKind,
    Torus2D,
    UnsupportedTopologyError,
    as_networkx,
    validate_topology,
    wiring,
)
from repro.topology.ring import dragonfly_escape_ring, hamiltonian_ring, validate_ring
from repro.topology.route import walk

FB_CONFIG = SimConfig(topology="flattened_butterfly", fb_routers=12, p=2,
                      routing="minimal")
TORUS_CONFIG = SimConfig(topology="torus", torus_rows=4, torus_cols=5, p=2,
                         routing="minimal")


# ------------------------------------------------------------- validation
@pytest.mark.parametrize("topo", [
    FlattenedButterfly(2),  # no Valiant intermediate: minimal walks only
    FlattenedButterfly(3, p=1),
    FlattenedButterfly(36, p=2),
    Torus2D(3, 3, p=1),
    Torus2D(4, 6, p=2),
    Torus2D(5, 3, p=3),
])
def test_validate_new_fabrics(topo):
    validate_topology(topo)


@pytest.mark.parametrize("topo", [
    Dragonfly(1), Dragonfly(3, arrangement="consecutive"),
    FlattenedButterfly(5, p=1), FlattenedButterfly(12),
    Torus2D(3, 4), Torus2D(5, 5),
], ids=repr)
def test_one_graph_export_for_every_fabric(topo):
    """Same graph type everywhere, one edge per link, each labelled with
    the kind of the ports it joins (checked against the port maps)."""
    g = as_networkx(topo)
    assert type(g) is nx.MultiGraph
    assert g.number_of_nodes() == topo.num_routers
    ports = topo.num_routers * (topo.local_ports + topo.global_ports)
    assert g.number_of_edges() == ports // 2
    kinds = {"local": 0, "global": 0}
    for u, v, kind in g.edges(data="kind"):
        iu = topo.index_in_group(u)
        peers = {
            "local": {topo.router_id(topo.group_of(u), topo.local_neighbor_index(iu, q))
                      for q in range(topo.local_ports)},
            "global": {topo.global_neighbor(u, k)[0] for k in range(topo.global_ports)},
        }
        assert v in peers[kind], (u, v, kind)
        kinds[kind] += 1
    assert kinds == {"local": topo.num_routers * topo.local_ports // 2,
                     "global": topo.num_routers * topo.global_ports // 2}
    assert nx.is_connected(g)


def test_from_config_builds_the_selected_fabric():
    fb = Simulator(FB_CONFIG).topo
    assert isinstance(fb, FlattenedButterfly)
    assert (fb.num_routers, fb.p, fb.num_nodes) == (12, 2, 24)
    torus = Simulator(TORUS_CONFIG).topo
    assert isinstance(torus, Torus2D)
    assert (torus.rows, torus.cols, torus.num_nodes) == (4, 5, 40)


def test_registry_has_three_topologies():
    available = repro.TOPOLOGY_REGISTRY.available()
    assert {"dragonfly", "flattened_butterfly", "torus"} <= set(available)


# ------------------------------------------------- construction error messages
def test_torus_rejects_tiny_rings_with_actionable_message():
    with pytest.raises(ValueError, match="rows must be >= 3"):
        Torus2D(0, 4)
    with pytest.raises(ValueError, match="cols must be >= 3.*folds both"):
        Torus2D(4, 2)
    with pytest.raises(ValueError, match="torus_rows/torus_cols must be >= 3"):
        SimConfig(topology="torus", torus_rows=0, torus_cols=4)


def test_flattened_butterfly_rejects_degenerate_sizes():
    with pytest.raises(ValueError, match="at least 2 routers"):
        FlattenedButterfly(1)
    with pytest.raises(ValueError, match="fb_routers must be >= 2"):
        SimConfig(topology="flattened_butterfly", fb_routers=1)
    with pytest.raises(ValueError, match="p >= 1"):
        FlattenedButterfly(4, p=0)


def test_valiant_needs_an_intermediate_router():
    fb = FlattenedButterfly(2)
    pkt = Packet(0, 0, 3, 8, 0, 0, 0, 1, 0)
    with pytest.raises(UnsupportedTopologyError, match="at least 3 routers"):
        fb.pick_via(random.Random(1), pkt)
    # and the config layer refuses the combination up front
    with pytest.raises(ValueError, match="fb_routers >= 3"):
        SimConfig(topology="flattened_butterfly", fb_routers=2,
                  routing="valiant")


def test_torus_local_ports_are_ring_only():
    torus = Torus2D(4, 5)
    with pytest.raises(UnsupportedTopologyError, match="not X-ring neighbours"):
        torus.local_port_to(0, 2)
    with pytest.raises(UnsupportedTopologyError, match="exit link"):
        torus.exit_port(0, 2)


# -------------------------------------------------------------- escape rings
@pytest.mark.parametrize("topo", [
    Dragonfly(2),
    Dragonfly(3),
    FlattenedButterfly(2),
    FlattenedButterfly(17),
    Torus2D(3, 3),   # odd rows, odd cols
    Torus2D(3, 4),   # odd rows, even cols
    Torus2D(4, 3),   # even rows
    Torus2D(6, 6),
    Torus2D(5, 3),
])
def test_escape_ring_is_hamiltonian(topo):
    validate_ring(topo, hamiltonian_ring(topo))


def test_dragonfly_snake_needs_two_routers_per_group():
    class GroupsOfOne:
        a = 1

    with pytest.raises(ValueError, match="a=1.*distinct entry and exit"):
        dragonfly_escape_ring(GroupsOfOne())


def test_dragonfly_snake_rejects_coinciding_entry_and_exit():
    class Collision:
        """Two groups of two routers whose single exits collide on router 0."""

        a = 2
        num_groups = 2
        num_routers = 4
        local_ports = global_ports = 1

        def exit_port(self, group, target):
            return 0, 0

        def local_neighbor_index(self, index, port):
            return 1 - index

        def local_port_to(self, src_index, dst_index):
            return 0

        def global_neighbor(self, router, gport):
            return (router + 2) % 4, 0

        def group_of(self, router):
            return router // 2

        def router_id(self, group, index):
            return group * 2 + index

        def index_in_group(self, router):
            return router % 2

    with pytest.raises(ValueError, match="into and out of the same router"):
        dragonfly_escape_ring(Collision())


# ------------------------------------------------------------ routing oracle
def _walk(topo, src_r, dst_r, via=None):
    """Follow min_hop to the destination; return (hops, max local/global vc)."""
    pkt = Packet(0, topo.node_id(src_r, 0), topo.node_id(dst_r, topo.p - 1),
                 8, 0, src_r, topo.group_of(src_r), dst_r, topo.group_of(dst_r))
    pkt.valiant_group = via
    links = wiring(topo)
    bound = 4 + 2 * (topo.num_groups + topo.a)
    *taken, (cur, kind, port, _, _) = islice(walk(topo, links, pkt), bound + 1)
    assert kind == PortKind.EJECT, f"oracle loops: {src_r}->{dst_r} via {via}"
    assert cur == dst_r and port == topo.node_index(pkt.dst)
    vmax = {PortKind.LOCAL: -1, PortKind.GLOBAL: -1}
    for here, kind, port, target, vc in taken:
        vmax[kind] = max(vmax[kind], vc)
        if kind == PortKind.LOCAL:
            # a LOCAL hop's target is the in-group index of where it lands
            assert topo.index_in_group(links[here][port][0]) == target
    return len(taken), vmax


@pytest.mark.parametrize("topo", [FlattenedButterfly(9, p=2), Torus2D(4, 5, p=2),
                                  Torus2D(3, 3, p=1)])
def test_oracle_reaches_every_destination_within_vc_budget(topo):
    rng = random.Random(7)
    for src in range(topo.num_routers):
        for _ in range(6):
            dst = rng.randrange(topo.num_routers)
            if dst == src:
                continue
            hops, _ = _walk(topo, src, dst)
            assert hops == topo.minimal_hops(src, dst)
            pkt = Packet(0, topo.node_id(src, 0), topo.node_id(dst, 0), 8, 0,
                         src, topo.group_of(src), dst, topo.group_of(dst))
            _, vmax = _walk(topo, src, dst, via=topo.pick_via(rng, pkt))
            assert vmax[PortKind.LOCAL] < topo.route_local_vcs
            assert vmax[PortKind.GLOBAL] < topo.route_global_vcs


def test_torus_hops_are_dimension_ordered_ring_distances():
    torus = Torus2D(5, 4)
    # (0,0) -> (2,3): 1 X hop the short way (-1) + 2 Y hops
    assert torus.minimal_hops(0, torus.router_id(2, 3)) == 3
    # wrap-around is used when shorter: (0,0) -> (4,0) is one Y hop
    assert torus.minimal_hops(0, torus.router_id(4, 0)) == 1


# -------------------------------------------------------- capability gating
@pytest.mark.parametrize("config,routing", [
    (TORUS_CONFIG, "olm"),
    (TORUS_CONFIG, "rlm"),
    (TORUS_CONFIG, "par62"),
    (TORUS_CONFIG, "pb"),
    (FB_CONFIG, "rlm"),
    (FB_CONFIG, "pb"),
])
def test_dragonfly_only_mechanisms_raise_unsupported(config, routing):
    with pytest.raises(UnsupportedTopologyError, match="capability"):
        Simulator(config.with_(routing=routing))


@pytest.mark.parametrize("config", [FB_CONFIG, TORUS_CONFIG])
@pytest.mark.parametrize("routing", ["minimal", "valiant", "ofar"])
def test_fabric_agnostic_mechanisms_run(config, routing):
    cfg = config.with_(routing=routing)
    result = repro.session(cfg, pattern="uniform", load=0.3).warmup(600).measure(600)
    assert result.delivered > 0
    assert result.throughput > 0.0


def test_torus_saturation_run_is_deadlock_free():
    # full offered load on Valiant's date-lines: its CDG is cyclic
    # (test_cdg.KNOWN_CYCLIC), but a lock takes ~45 000 cycles to form
    cfg = TORUS_CONFIG.with_(routing="valiant", seed=5)
    result = repro.session(cfg, pattern="uniform", load=1.0).warmup(2000).measure(2000)
    assert result.delivered > 0


@pytest.mark.parametrize("config", [FB_CONFIG, TORUS_CONFIG], ids=["fb", "torus"])
def test_new_fabrics_run_deadlock_free_under_wormhole(config):
    # wormhole holds a VC across all flits of a packet, a stricter
    # channel-dependency regime than the VCT runs above exercise
    cfg = config.with_(routing="valiant", flow_control="wh",
                       packet_phits=80, flit_phits=10, seed=2)
    result = repro.session(cfg, pattern="uniform", load=1.0).warmup(1200).measure(1200)
    assert result.delivered > 0


def test_torus_valiant_allocates_the_dateline_vcs():
    sim = Simulator(TORUS_CONFIG.with_(routing="valiant"))
    assert sim.local_vcs == 3
    assert sim.global_vcs == 3  # date-line scheme: phase + crossed


# ------------------------------------------------------ run-plan determinism
@pytest.mark.parametrize("config", [FB_CONFIG, TORUS_CONFIG], ids=["fb", "torus"])
def test_runplan_determinism_on_new_fabrics(config, tmp_path):
    """serial == process == cache replay, byte-wise, on each new fabric."""
    spec = RunSpec(config=config.with_(routing="valiant", seed=9),
                   pattern="uniform", loads=(0.15, 0.3), warmup=250,
                   measure=250, series="valiant")
    serial = execute(spec, aggregate=False)
    process = execute(spec, jobs=2, aggregate=False)
    cache = ResultCache(tmp_path / "cache")
    execute(spec, cache=cache, aggregate=False)
    replayed = execute(spec, cache=cache, aggregate=False)
    assert cache.hits == len(serial)
    a = [canonical_record_json(r) for r in serial]
    assert a == [canonical_record_json(r) for r in process]
    assert a == [canonical_record_json(r) for r in replayed]


# -------------------------------------------------- cross-topology presets
def test_cross_topology_configs_match_node_counts():
    for scale in ("tiny", "small"):
        sims = {
            name: Simulator(cross_topology_config(name, scale=scale,
                                                  routing="minimal"))
            for name in ("dragonfly", "flattened_butterfly", "torus")
        }
        nodes = {name: sim.topo.num_nodes for name, sim in sims.items()}
        assert len(set(nodes.values())) == 1, nodes


def test_cross_topology_config_passes_through_registered_fabrics():
    cfg = cross_topology_config("dragonfly", scale="tiny", routing="minimal")
    assert cfg.topology == "dragonfly"
    with pytest.raises(ValueError, match="unknown"):
        cross_topology_config("hypercube", scale="tiny", routing="minimal")
