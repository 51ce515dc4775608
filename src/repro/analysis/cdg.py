"""Channel-dependency-graph (CDG) verification of deadlock freedom.

Dally & Seitz: a routing function is deadlock-free if its channel
dependency graph — nodes are (link, VC) buffers, edges are "a packet
can hold the first while waiting for the second" — is acyclic.  This
module *constructs* the CDG of each mechanism over a fabric's wiring
table (:func:`repro.topology.fabric.wiring`) and checks the paper's
§III arguments mechanically, on any fabric with the ``dragonfly-paths``
capability (the others raise ``UnsupportedTopologyError``):

* Minimal / Valiant / Piggybacking / PAR-6/2: strictly ascending
  Günther VC chains ⇒ the CDG is a DAG.
* RLM: local hops inside a supernode reuse one VC, but only parity-sign
  pairs from Table I are allowed ⇒ still a DAG.  Dropping the
  restriction (what a naïve 3/2 local-misrouting scheme would do)
  produces cycles — :func:`build_cdg` exposes that counterfactual.
* OLM: the full dependency graph *contains cycles by design*; safety
  comes from the escape sub-CDG (minimal/Valiant continuations in
  ascending VC order), which must be acyclic and reachable from every
  channel.

Nodes: ``("L", u, v, vc)`` local link channel u→v, ``("G", u, v, vc)``
global link channel, ``("EJ", r)`` ejection sink at router ``r``; every
channel depends on the sink it can eject into, so the edges name them all.
"""

from __future__ import annotations

import networkx as nx

from repro.core.paritysign import link_type, pair_allowed
from repro.topology.base import (
    CAP_DRAGONFLY_PATHS,
    DRAGONFLY_CAPS,
    Topology,
    UnsupportedTopologyError,
)
from repro.topology.fabric import wiring

#: mechanisms with plain ascending chains (3 local / 2 global VCs)
_ASCENDING = ("minimal", "valiant", "pb")


def _channels(topo: Topology) -> tuple[list, list]:
    """Per router, the peers of its local and of its global links."""
    if CAP_DRAGONFLY_PATHS not in getattr(topo, "caps", DRAGONFLY_CAPS):
        raise UnsupportedTopologyError(
            f"the channel-dependency graph requires the {CAP_DRAGONFLY_PATHS!r} "
            f"capability, which topology {type(topo).__name__} does not "
            "provide: its VC disciplines are the paper's l-g-l ones")
    nl = topo.local_ports
    links = wiring(topo)
    return ([[peer for peer, _ in row[:nl]] for row in links],
            [[peer for peer, _ in row[nl:]] for row in links])


def _links(peers: list) -> list:
    """``(u, v)`` per link of an adjacency list, in port order."""
    return [(u, v) for u, vs in enumerate(peers) for v in vs]


def build_cdg(topo: Topology, mechanism: str, *,
              rlm_restricted: bool = True,
              escape_only: bool = False) -> nx.DiGraph:
    """Construct the channel dependency graph of ``mechanism`` on ``topo``.

    ``rlm_restricted=False`` builds the counterfactual RLM without the
    parity-sign restriction.  ``escape_only=True`` keeps only the
    ascending escape continuations (meaningful for OLM).  Raises
    :class:`UnsupportedTopologyError` on a fabric without the
    ``dragonfly-paths`` capability.
    """
    local, glob = _channels(topo)
    if mechanism in _ASCENDING:
        return _cdg_ascending(local, glob)
    if mechanism == "rlm":
        return _cdg_rlm(topo, local, glob, restricted=rlm_restricted)
    if mechanism == "par62":
        return _cdg_par62(local, glob)
    if mechanism == "olm":
        return _cdg_olm(local, glob, escape_only=escape_only)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _cdg_ascending(local: list, glob: list) -> nx.DiGraph:
    """MIN/VAL/PB: lVC_{g+1} per group, one local hop per group."""
    g = nx.DiGraph()
    for u, v in _links(local):
        for vc in range(3):
            g.add_edge(("L", u, v, vc), ("EJ", v))
            if vc <= 1:
                for peer in glob[v]:
                    g.add_edge(("L", u, v, vc), ("G", v, peer, vc))
    for u, v in _links(glob):
        for vc in range(2):
            g.add_edge(("G", u, v, vc), ("EJ", v))
            for w in local[v]:
                g.add_edge(("G", u, v, vc), ("L", v, w, vc + 1))
            if vc == 0:
                for peer in glob[v]:
                    g.add_edge(("G", u, v, 0), ("G", v, peer, 1))
    return g


def _cdg_rlm(topo: Topology, local: list, glob: list, *,
             restricted: bool) -> nx.DiGraph:
    """RLM: ascending chains + same-VC local pairs filtered by Table I."""
    g = _cdg_ascending(local, glob)
    idx = [topo.index_in_group(r) for r in range(len(local))]
    for u, v in _links(local):
        for w in local[v]:
            # note: u->v->u (a 180° turn) is included iff Table I allows it
            if restricted and not pair_allowed(link_type(idx[u], idx[v]),
                                               link_type(idx[v], idx[w])):
                continue
            for vc in range(3):
                g.add_edge(("L", u, v, vc), ("L", v, w, vc))
    return g


def _cdg_par62(local: list, glob: list) -> nx.DiGraph:
    """PAR-6/2: strictly ascending over the interleaved 6+2 VC ranks.

    rank: lVC1 lVC2 gVC1 lVC3 lVC4 gVC2 lVC5 lVC6  (paper §III-A).
    """
    lrank = [0, 1, 3, 4, 6, 7]
    grank = [2, 5]
    g = nx.DiGraph()
    for u, v in _links(local):
        for vc in range(6):
            g.add_edge(("L", u, v, vc), ("EJ", v))
            for w in local[v]:
                if vc + 1 < 6 and lrank[vc + 1] > lrank[vc]:
                    g.add_edge(("L", u, v, vc), ("L", v, w, vc + 1))
            for gvc in range(2):
                if grank[gvc] > lrank[vc]:
                    for peer in glob[v]:
                        g.add_edge(("L", u, v, vc), ("G", v, peer, gvc))
    for u, v in _links(glob):
        for gvc in range(2):
            g.add_edge(("G", u, v, gvc), ("EJ", v))
            for w in local[v]:
                for vc in range(6):
                    if lrank[vc] > grank[gvc]:
                        g.add_edge(("G", u, v, gvc), ("L", v, w, vc))
            if gvc == 0:
                for peer in glob[v]:
                    g.add_edge(("G", u, v, 0), ("G", v, peer, 1))
    return g


def _cdg_olm(local: list, glob: list, *, escape_only: bool) -> nx.DiGraph:
    """OLM: escape chains (ascending) plus, unless ``escape_only``, the
    opportunistic misroute dependencies that may close cycles."""
    g = _cdg_ascending(local, glob)  # the escape skeleton is the MIN/VAL chain
    if escape_only:
        return g
    for u, v in _links(local):
        for w in local[v]:
            # source-group divert: second local hop on the same lVC1
            g.add_edge(("L", u, v, 0), ("L", v, w, 0))
            # intra-group misroute then ascending final hop
            g.add_edge(("L", u, v, 0), ("L", v, w, 1))
    for u, v in _links(glob):
        for w in local[v]:
            # misroute on arrival: lVC_j with j <= g_hops-1
            g.add_edge(("G", u, v, 0), ("L", v, w, 0))
            g.add_edge(("G", u, v, 1), ("L", v, w, 0))
            g.add_edge(("G", u, v, 1), ("L", v, w, 1))
    return g


# ------------------------------------------------------------- verification
def is_deadlock_free(topo: Topology, mechanism: str) -> bool:
    """Check the paper's deadlock-freedom claim for ``mechanism``.

    For OLM this means: the *escape* CDG is acyclic and every channel
    can step onto it; for the others, the full CDG is acyclic.
    """
    if mechanism == "olm":
        escape = build_cdg(topo, "olm", escape_only=True)
        if not nx.is_directed_acyclic_graph(escape):
            return False
        return escape_reachable(topo)
    g = build_cdg(topo, mechanism)
    return nx.is_directed_acyclic_graph(g)


def escape_reachable(topo: Topology) -> bool:
    """Every OLM channel reaches an ejection sink through escape edges."""
    escape = build_cdg(topo, "olm", escape_only=True)
    sinks = {("EJ", r) for r in range(topo.num_routers)}
    rev = escape.reverse(copy=False)
    reach: set = set()
    for s in sinks:
        reach.add(s)
        reach.update(nx.descendants(rev, s))
    return all(n in reach for n in escape.nodes)


def cycle_witness(topo: Topology, mechanism: str, **kwargs) -> list | None:
    """A concrete dependency cycle, or ``None`` if the CDG is acyclic."""
    g = build_cdg(topo, mechanism, **kwargs)
    try:
        return nx.find_cycle(g)
    except nx.NetworkXNoCycle:
        return None
