"""Channel-dependency-graph verification of the paper's §III claims."""

import hashlib

import networkx as nx
import pytest

from repro.analysis.cdg import (
    build_cdg,
    cycle_witness,
    escape_reachable,
    is_deadlock_free,
)
from repro.topology import (
    Dragonfly,
    FlattenedButterfly,
    Torus2D,
    UnsupportedTopologyError,
)

TOPO = Dragonfly(2)

#: (nodes, edges, sha256 of the sorted edge list) of each distinct graph,
#: as the Dragonfly-only enumerators built them before the prover read
#: the wiring table; minimal, valiant, pb and OLM's escape skeleton are
#: one graph ("ascending")
PINNED = {
    (1, "consecutive"): {
        "ascending": (36, 60, "fab7e2bba92ce49fb55bb8986d86a7705dda50bdd0d649e72134b19fd40a0154"),
        "olm": (36, 90, "60e62a1c74a97ba4ddd6bb1873b99ab3b58d0005c815a9ecd3161cb5543b4a98"),
        "par62": (54, 156, "1b1697d7d6fe7746f69635c36a9a49da0959fd0a45ea3c7e574f3f15db43688b"),
        "rlm": (36, 69, "7bd502e32eb410e689810302066e43de8672c81f7904c2b1b81992c38adcac4b"),
        "rlm_unrestricted": (36, 78, "b0317500714f739269fea844667f285f59fdea536e5c1faf693a4f4a40aa6251"),
    },
    (1, "palmtree"): {
        "ascending": (36, 60, "a1c7932fdb4f32e30641cf5f5f024fc34bc3c08f5f97d12d932eecb13ad186eb"),
        "olm": (36, 90, "8c4d3526d7677819960a062d88983fad0666609c795175c1c24019feb6c46ae9"),
        "par62": (54, 156, "58031fc1e4ff5cad94ab1e24ba0ca618b70d2b350b293063b8ced00db70c3655"),
        "rlm": (36, 69, "260ce92e6b98c6f1cfbeae96fd453d5da03f2c17161bca9ba0200f5c1dabad00"),
        "rlm_unrestricted": (36, 78, "dd7b1bba2c0087862e6d1b9ababa6d4700898b1fb2d318844e423dd314eba813"),
    },
    (2, "consecutive"): {
        "ascending": (504, 1476, "c0ee9e3fa9f4a85712a28da3f4feac735deddd673e6a99a3a2eaa23fc1ee49ed"),
        "olm": (504, 2772, "c9c6422624be38b151370545575f9e4edf1f620295baac5bb1f9d5d76e8de50e"),
        "par62": (828, 5148, "c7c39847da4e93b364a6788a471b6904c0e2322935964c37599bbae2e6d70e03"),
        "rlm": (504, 2016, "bebe5e3e5e8596b7051b04788c5683b09855468c6c195b3ddf91653f039cfefe"),
        "rlm_unrestricted": (504, 2448, "efe5082c5a4b2295634cb8622339fe8ac580ff8cc09e1fc9219f7e2a4eaa9d7f"),
    },
    (2, "palmtree"): {
        "ascending": (504, 1476, "77871cf2bc1379b3ade386348b8991a39c770cdaf0ac583fd9f881d94d05a4b5"),
        "olm": (504, 2772, "2deb7e602f81b95f8cca507d68bf9177d2b2ab11a108d02316a79cb6ef5e1614"),
        "par62": (828, 5148, "c118d84a9dd3eab9c09d4b8e6e238f0159843494270d11b8693e6a9c34b75785"),
        "rlm": (504, 2016, "24aa509d986e249c0fc54c75c105314363574de03080b707b545f42e2c294ac7"),
        "rlm_unrestricted": (504, 2448, "e2767683263b493f48116de384cf7f0d30f9f3e07bc9db5327cbe0f0e40c5482"),
    },
    (3, "consecutive"): {
        "ascending": (2508, 10260, "d6859a9097795cf5e1219687b28ae99dc0fc616dd871f18439912f22b84bb188"),
        "olm": (2508, 21090, "62165d12e217599f211853b1f1f76c27ab3b356558ca758d84df7f20addaa216"),
        "par62": (4218, 39900, "c664a9b0b2870470c89b83a7ce6aee9bb3afd8b1891f3c32fa00fbbcf447ac3b"),
        "rlm": (2508, 15105, "66055d474f870744dc74efee02acfe195d3fd401d768806ae21fcaf3f218f045"),
        "rlm_unrestricted": (2508, 18810, "9d5fa4385d826d8e049607d31d8113c19f1ab88de979fad6fa24c5391ea4bd2d"),
    },
    (3, "palmtree"): {
        "ascending": (2508, 10260, "2021e37adda99a315acfc5c42fc94579595cc4c0b72fb447068fa924fdf3e93a"),
        "olm": (2508, 21090, "6a55cda7d0ec9a12b49c4f0d658d441c4f5f0009b9c0a7bfe1c9131b543d4dad"),
        "par62": (4218, 39900, "3e9f869c916d5e7b00573b24a56fc7bccbb4691766b0319782a2af0d7b404ecf"),
        "rlm": (2508, 15105, "370b77ef09d79823154b1789fd9f7a83b5924419584cada4eb939dd035236c0b"),
        "rlm_unrestricted": (2508, 18810, "df292704b5a77b39209e18f3d2c201daacf559664f7467a5c95cab43f282d2a7"),
    },
}

#: every graph the prover builds, by the pinned graph it must equal
CASES = {
    "minimal": ("minimal", {}, "ascending"),
    "valiant": ("valiant", {}, "ascending"),
    "pb": ("pb", {}, "ascending"),
    "par62": ("par62", {}, "par62"),
    "rlm": ("rlm", {}, "rlm"),
    "rlm-unrestricted": ("rlm", {"rlm_restricted": False}, "rlm_unrestricted"),
    "olm": ("olm", {}, "olm"),
    "olm-escape": ("olm", {"escape_only": True}, "ascending"),
}


@pytest.mark.parametrize("mechanism", ["minimal", "valiant", "pb", "par62", "rlm"])
def test_full_cdg_acyclic(mechanism):
    """All mechanisms but OLM have an acyclic full dependency graph."""
    assert is_deadlock_free(TOPO, mechanism)
    assert cycle_witness(TOPO, mechanism) is None


def test_rlm_without_restriction_has_cycles():
    """The counterfactual: unrestricted same-VC local misrouting deadlocks."""
    cycle = cycle_witness(TOPO, "rlm", rlm_restricted=False)
    assert cycle is not None
    # the witness cycle lives on local channels of one group, as §III-B argues
    kinds = {edge[0][0] for edge in cycle}
    assert kinds == {"L"}
    groups = {TOPO.group_of(edge[0][1]) for edge in cycle}
    assert len(groups) == 1


def test_olm_full_graph_is_cyclic_by_design():
    cycle = cycle_witness(TOPO, "olm")
    assert cycle is not None


def test_olm_escape_graph_is_dag_and_reachable():
    escape = build_cdg(TOPO, "olm", escape_only=True)
    assert nx.is_directed_acyclic_graph(escape)
    assert escape_reachable(TOPO)
    assert is_deadlock_free(TOPO, "olm")


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        build_cdg(TOPO, "ofar")


@pytest.mark.parametrize("h", [1, 3])
def test_cdg_scales_with_h(h):
    topo = Dragonfly(h)
    assert is_deadlock_free(topo, "rlm")
    assert is_deadlock_free(topo, "olm")


def test_cdg_node_population():
    g = build_cdg(TOPO, "minimal")
    a, groups = TOPO.a, TOPO.num_groups
    n_local = groups * a * (a - 1) * 3          # ordered pairs x 3 VCs
    n_global = TOPO.num_routers * TOPO.h * 2    # directed global channels x 2 VCs
    n_eject = TOPO.num_routers
    assert g.number_of_nodes() == n_local + n_global + n_eject


def test_ejection_nodes_are_sinks():
    g = build_cdg(TOPO, "rlm")
    for node in g.nodes:
        if node[0] == "EJ":
            assert g.out_degree(node) == 0


def test_par62_rank_edges_ascend():
    """Every PAR-6/2 dependency increases the Günther rank."""
    lrank = [0, 1, 3, 4, 6, 7]
    grank = [2, 5]

    def rank(node):
        if node[0] == "L":
            return lrank[node[3]]
        if node[0] == "G":
            return grank[node[3]]
        return 99

    g = build_cdg(TOPO, "par62")
    for u, v in g.edges:
        assert rank(v) > rank(u), (u, v)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fabric", sorted(PINNED), ids=lambda f: f"h{f[0]}-{f[1]}")
def test_the_graph_is_the_pinned_one(fabric, case):
    """Node count, edge count and edge set of every mechanism's graph on
    h=1..3 and both arrangements, against the pinned enumeration."""
    h, arrangement = fabric
    mechanism, kwargs, pinned = CASES[case]
    g = build_cdg(Dragonfly(h, arrangement=arrangement), mechanism, **kwargs)
    edges = hashlib.sha256(repr(sorted(g.edges)).encode()).hexdigest()
    assert (g.number_of_nodes(), g.number_of_edges(), edges) == PINNED[fabric][pinned]


@pytest.mark.parametrize("topo", [Torus2D(4, 4), FlattenedButterfly(8)], ids=repr)
@pytest.mark.parametrize("ask", [
    lambda topo: build_cdg(topo, "minimal"),
    lambda topo: is_deadlock_free(topo, "minimal"),
    lambda topo: is_deadlock_free(topo, "olm"),
    lambda topo: cycle_witness(topo, "minimal"),
    lambda topo: escape_reachable(topo),
], ids=["build_cdg", "is_deadlock_free-minimal", "is_deadlock_free-olm",
        "cycle_witness", "escape_reachable"])
def test_a_fabric_without_dragonfly_paths_is_refused(topo, ask):
    """The graphs model the paper's l-g-l VC disciplines: on any other
    fabric the prover has no answer, and says which capability is missing."""
    with pytest.raises(UnsupportedTopologyError, match="'dragonfly-paths'"):
        ask(topo)
