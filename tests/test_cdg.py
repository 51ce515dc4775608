"""The channel-dependency graph, explored from the routing code (§III).

One table runs every topology × routing × flow-control triple the
registries admit, at ``SimConfig``'s default sizes, through
:func:`repro.analysis.cdg.explore` and asks the verdict its mechanism's
safety rests on: an acyclic graph, OLM's acyclic and reachable escape
sub-graph, OFAR's bubble ring.  A fabric or routing that registers joins
it.  Two disciplines of the code are cyclic (``KNOWN_CYCLIC``); their
rows pin the cycle, so the change that fixes them flips the rows.
"""

import functools
import hashlib

import networkx as nx
import pytest

from repro.analysis.cdg import cycle_witness, explore
from repro.core import OfarRouting, RlmRouting
from repro.network.config import SimConfig
from repro.registry import FLOW_CONTROL_REGISTRY, ROUTING_REGISTRY, TOPOLOGY_REGISTRY
from repro.topology import torus
from repro.topology.base import DRAGONFLY_CAPS
from repro.topology.fabric import fabric_for

TRIPLES = [
    (topology, routing, fc)
    for topology in TOPOLOGY_REGISTRY.available()
    for routing, algo in ((r, ROUTING_REGISTRY.get(r)) for r in ROUTING_REGISTRY.available())
    for fc in FLOW_CONTROL_REGISTRY.available()
    if algo.required_caps <= getattr(fabric_for(SimConfig(topology=topology)).topo,
                                     "caps", DRAGONFLY_CAPS)
    and (not algo.requires_vct or FLOW_CONTROL_REGISTRY.get(fc).whole_packet_reservation)
]

#: (topology, routing) whose CDG is cyclic: the size, the cycle (fix: ROADMAP.md)
KNOWN_CYCLIC = {
    # the local VC counts local hops only: gVC1 -> lVC1 descends in rank
    ("dragonfly", "par62"): (dict(h=1), [
        ("G", 3, 0, 1), ("L", 0, 1, 0), ("G", 1, 4, 0), ("L", 4, 5, 0),
        ("G", 5, 2, 1), ("L", 2, 3, 1)]),
    # VC 1 carries phase 0 past the date line and phase 1 before it
    ("torus", "valiant"): (dict(), [
        ("G", 0, 4, 1), ("L", 4, 5, 1), ("G", 5, 9, 0), ("G", 9, 13, 0),
        ("G", 13, 1, 0), ("L", 1, 0, 1)]),
}

each_triple = pytest.mark.parametrize("topology, routing, flow_control", TRIPLES,
                                      ids=["-".join(t) for t in TRIPLES])


@functools.cache
def _cached(knobs: frozenset):
    return explore(SimConfig(**dict(knobs)))


def _explored(**knobs):
    """``explore`` once per distinct config in this module."""
    return _cached(frozenset({"topology": "dragonfly", "flow_control": "vct", "h": 2,
                              "arrangement": "palmtree", **knobs}.items()))


def test_the_table_is_every_admitted_triple():
    assert (len(TRIPLES), sum(t == "dragonfly" for t, _, _ in TRIPLES)) == (22, 12)


@each_triple
def test_every_admitted_triple(topology, routing, flow_control):
    cdg = _explored(topology=topology, routing=routing, flow_control=flow_control)
    _assert_verdict(cdg, topology, routing)
    if routing == "olm":  # cyclic by design, safe through its escape sub-graph
        assert cycle_witness(cdg.graph) is not None
        assert cdg.escape.number_of_edges() < cdg.graph.number_of_edges()


def _assert_verdict(cdg, topology, routing):
    problem = cdg.problem()
    if (topology, routing) in KNOWN_CYCLIC:
        assert problem is not None and "has a cycle" in problem
    else:
        assert problem is None, problem
    assert cdg.criterion == {"olm": "escape", "ofar": "ring"}.get(routing, "acyclic")
    assert all(cdg.graph.out_degree(n) == 0 for n in cdg.graph if n[0] == "EJ")


@pytest.mark.parametrize("flow_control", ["vct", "wh"])
@pytest.mark.parametrize("row", sorted(KNOWN_CYCLIC), ids="-".join)
def test_the_known_cycles_are_in_the_code(row, flow_control):
    knobs, cycle = KNOWN_CYCLIC[row]
    graph = _explored(topology=row[0], routing=row[1], flow_control=flow_control, **knobs).graph
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(u, v), (u, v)


@each_triple
def test_every_channel_is_a_wired_link_within_its_vc_budget(topology, routing, flow_control):
    """The explorer names only channels the engine builds: a link of the
    wiring table, of its port kind, on a VC the simulator allocates."""
    cdg = _explored(topology=topology, routing=routing, flow_control=flow_control)
    cfg, algo = SimConfig(topology=topology), ROUTING_REGISTRY.get(routing)
    fabric = fabric_for(cfg)
    topo, nl = fabric.topo, fabric.topo.local_ports
    budget = {"L": max(cfg.local_vcs, algo.local_vcs, topo.route_local_vcs),
              "G": max(cfg.global_vcs, algo.global_vcs, topo.route_global_vcs)}
    wired = {("L" if q < nl else "G", u, peer)
             for u, ports in enumerate(fabric.wiring) for q, (peer, _) in enumerate(ports)}
    for channel in cdg.graph:
        if channel[0] != "EJ":
            assert channel[:3] in wired and 0 <= channel[3] < budget[channel[0]], channel


@each_triple
def test_every_channel_reaches_an_ejection(topology, routing, flow_control):
    """No explored route strands a packet: every router ejects, and every
    channel held leads on to some ejection in the full graph."""
    graph = _explored(topology=topology, routing=routing, flow_control=flow_control).graph
    sinks = [c for c in graph if c[0] == "EJ"]
    assert {c[1] for c in sinks} == set(range(fabric_for(SimConfig(topology=topology))
                                              .topo.num_routers))
    reach = set(sinks).union(*(nx.ancestors(graph, s) for s in sinks))
    assert [c for c in graph if c not in reach] == []


@pytest.mark.parametrize("routing, flow_control",
                         [(r, fc) for t, r, fc in TRIPLES if t == "dragonfly"],
                         ids=[f"{r}-{fc}" for t, r, fc in TRIPLES if t == "dragonfly"])
def test_the_verdicts_hold_on_the_consecutive_arrangement(routing, flow_control):
    cdg = _explored(h=1, arrangement="consecutive", routing=routing, flow_control=flow_control)
    _assert_verdict(cdg, "dragonfly", routing)


@pytest.mark.parametrize("knobs", [dict(h=3), dict(topology="torus", torus_rows=6, torus_cols=5),
                                   dict(topology="flattened_butterfly", fb_routers=12)],
                         ids=["h3", "torus6x5", "fb12"])
def test_minimal_is_acyclic_at_a_larger_size(knobs):
    assert explore(SimConfig(routing="minimal", **knobs)).problem() is None


# ------------------------------------------------------------------ mutations
@pytest.fixture
def mutant():
    """Register a test-side routing mechanism; unregister it afterwards."""
    yield lambda cls: ROUTING_REGISTRY.register("mutant", cls, description="mutation")
    if "mutant" in ROUTING_REGISTRY:
        ROUTING_REGISTRY.unregister("mutant")


def test_rlm_without_table_i_has_a_cycle_inside_one_group(mutant):
    class Unrestricted(RlmRouting):
        def local_misroute_valid(self, router, packet, via, target):
            return True

    mutant(Unrestricted)
    cdg = explore(SimConfig(routing="mutant"))
    cycle = cycle_witness(cdg.graph)
    assert cycle is not None and str(cycle) in cdg.problem()
    assert {u[0] for u, _ in cycle} == {"L"} and len({u[1] // 4 for u, _ in cycle}) == 1


def test_the_torus_without_its_date_line_has_a_y_ring_cycle(monkeypatch):
    step = torus._ring_step
    monkeypatch.setattr(torus, "_ring_step", lambda *a: (step(*a)[0], 0))
    cdg = explore(SimConfig(topology="torus", routing="minimal"))
    cycle = cycle_witness(cdg.graph)
    assert cycle is not None and str(cycle) in cdg.problem()
    assert {(u[0], u[3]) for u, _ in cycle} == {("G", 0)}
    assert len({u[1] % 4 for u, _ in cycle}) == 1  # one column


def test_ofar_without_its_ring_strands_packets(mutant):
    class Ringless(OfarRouting):
        def _escape(self, router, packet, now, flit, kind, min_occ):
            return None

    mutant(Ringless)
    assert explore(SimConfig(h=1, routing="mutant")).problem().startswith("no ring hop")


# ------------------------------------------------------------ symmetry, pins
@pytest.mark.parametrize("routing", ROUTING_REGISTRY.available())
def test_one_group_rotated_is_the_whole_dragonfly(routing, monkeypatch):
    """Group 0 explored and rotated is every router explored."""
    rotated = _explored(h=1, routing=routing)
    topo = fabric_for(SimConfig(h=1)).topo
    assert topo.rotation == topo.a
    monkeypatch.setattr(topo, "rotation", 0)
    whole = explore(SimConfig(h=1, routing=routing))
    assert set(whole.graph.edges) == set(rotated.graph.edges)
    assert set(whole.escape.edges) == set(rotated.escape.edges)


def test_a_rotation_the_wiring_does_not_have_is_refused(monkeypatch):
    topo = fabric_for(SimConfig(h=1, arrangement="consecutive")).topo
    assert topo.rotation == 0
    monkeypatch.setattr(topo, "rotation", topo.a)
    with pytest.raises(ValueError, match="does not map"):
        explore(SimConfig(h=1, arrangement="consecutive", routing="minimal"))


#: (edges, sha256 prefix of the sorted edge list) of each explored graph
#: under VCT; ``olm-escape`` is OLM's escape sub-graph
PINNED = {
    (1, "consecutive"): {
        "minimal": (30, "3697081e08dc813d"), "valiant": (42, "c32c33802779680b"),
        "pb": (60, "fab7e2bba92ce49f"), "par62": (84, "c5c1bfeb75328023"),
        "rlm": (60, "fab7e2bba92ce49f"), "olm": (60, "fab7e2bba92ce49f"),
        "olm-escape": (60, "fab7e2bba92ce49f"), "ofar": (132, "120cd3d01dade15c")},
    (1, "palmtree"): {
        "minimal": (30, "126abfc9f1ad071b"), "valiant": (42, "5bf0e31f6bbb3c11"),
        "pb": (60, "a1c7932fdb4f32e3"), "par62": (84, "7ae6bd2b8e302e72"),
        "rlm": (60, "a1c7932fdb4f32e3"), "olm": (60, "a1c7932fdb4f32e3"),
        "olm-escape": (60, "a1c7932fdb4f32e3"), "ofar": (132, "f1a6bbd738b4a98b")},
    (2, "palmtree"): {
        "minimal": (720, "f81812fecf64b4e0"), "valiant": (1188, "a5dca1e5b6db0cda"),
        "pb": (1476, "77871cf2bc1379b3"), "par62": (3852, "a62af9ba53dbea32"),
        "rlm": (1854, "bb1126649123ae92"), "olm": (2340, "093d4dcb28ff5a04"),
        "olm-escape": (1908, "274ada4f2d3e236d"), "ofar": (3303, "e7fbc21feef34ee7")},
}


@pytest.mark.parametrize("graph", list(PINNED[1, "palmtree"]))
@pytest.mark.parametrize("fabric", sorted(PINNED), ids=lambda f: f"h{f[0]}-{f[1]}")
def test_the_graph_is_the_pinned_one(fabric, graph):
    cdg = _explored(h=fabric[0], arrangement=fabric[1], routing=graph.split("-")[0])
    g = cdg.escape if graph.endswith("escape") else cdg.graph
    digest = hashlib.sha256(repr(sorted(g.edges)).encode()).hexdigest()[:16]
    assert (g.number_of_edges(), digest) == PINNED[fabric][graph]
