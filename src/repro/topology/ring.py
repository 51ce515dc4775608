"""Hamiltonian escape ring embedding (for the OFAR baseline, [12]).

OFAR's deadlock avoidance uses a deadlock-free *escape subnetwork*: a
Hamiltonian ring over all routers, regulated by bubble flow control.
Each fabric embeds its own ring through the
:meth:`~repro.topology.base.Topology.escape_ring` hook —
:func:`hamiltonian_ring` dispatches to it (falling back to the
Dragonfly construction for pre-hook third-party fabrics) and
:func:`validate_ring` checks any successor map against the fabric's
wiring table (:func:`repro.topology.fabric.wiring`).

On a Dragonfly the ring is embedded as: enter group ``g`` at the
router holding the global link from group ``g-1``, snake through the
remaining routers over local links (any order works — the local
network is a complete graph), leave from the router holding the link
to group ``g+1``.  The flattened butterfly rings its complete graph
directly; the torus serpentines its grid (see each fabric's
``escape_ring`` docstring).
"""

from __future__ import annotations

from repro.topology.base import PortKind, Topology
from repro.topology.fabric import wiring


def hamiltonian_ring(topo: Topology) -> dict[int, tuple[int, PortKind, int]]:
    """Successor map ``router -> (next_router, port_kind, port_index)``.

    Dispatches to the fabric's ``escape_ring`` hook; fabrics without
    one (pre-protocol third-party Dragonfly lookalikes) get the
    Dragonfly snake construction.  Raises ``ValueError`` (or
    :class:`~repro.topology.base.UnsupportedTopologyError`) with an
    actionable message when no ring embedding exists.
    """
    hook = getattr(topo, "escape_ring", None)
    if hook is not None:
        return hook()
    return dragonfly_escape_ring(topo)


def dragonfly_escape_ring(topo) -> dict[int, tuple[int, PortKind, int]]:
    """The Dragonfly ring: snake each group between its entry and exit.

    Raises ``ValueError`` when the arrangement makes a group's entry
    and exit router coincide, or when groups hold a single router
    (``a = 1``) — the snake construction then has no distinct entry
    and exit to thread.
    """
    if topo.a < 2:
        raise ValueError(
            "cannot snake a Hamiltonian ring through groups of a single "
            f"router (a={topo.a}): the construction needs distinct entry "
            "and exit routers per group"
        )
    g_count = topo.num_groups
    # one global link per group pair: the ring enters group ``g`` at the
    # router holding ``g``'s link back to the group before it
    entry = {g: topo.exit_port(g, (g - 1) % g_count)[0] for g in range(g_count)}

    succ: dict[int, tuple[int, PortKind, int]] = {}
    for g in range(g_count):
        nxt_g = (g + 1) % g_count
        e = entry[g]
        x, gport = topo.exit_port(g, nxt_g)
        if e == x:
            raise ValueError(
                "this global arrangement routes the ring into and out of the "
                f"same router of group {g}; no Hamiltonian snake exists"
            )
        order = [e] + [i for i in range(topo.a) if i not in (e, x)] + [x]
        for pos in range(len(order) - 1):
            u, v = order[pos], order[pos + 1]
            succ[topo.router_id(g, u)] = (
                topo.router_id(g, v),
                PortKind.LOCAL,
                topo.local_port_to(u, v),
            )
        succ[topo.router_id(g, x)] = (
            topo.router_id(nxt_g, entry[nxt_g]),
            PortKind.GLOBAL,
            gport,
        )
    return succ


def validate_ring(topo: Topology, succ: dict[int, tuple[int, PortKind, int]]) -> None:
    """Assert the successor map is one Hamiltonian cycle over all routers.

    Fabric-agnostic: each claimed hop is checked against the fabric's
    wiring table.
    """
    assert len(succ) == topo.num_routers, "ring must cover every router"
    links, nl = wiring(topo), topo.local_ports
    seen = set()
    cur = 0
    for _ in range(topo.num_routers):
        assert cur not in seen, "ring revisits a router"
        seen.add(cur)
        nxt, kind, port = succ[cur]
        peer, _ = links[cur][port if kind == PortKind.LOCAL else nl + port]
        assert peer == nxt, (
            f"ring hop from router {cur} over {kind.name.lower()} port {port} "
            f"leads to router {peer}, not {nxt}")
        cur = nxt
    assert cur == 0, "ring must close"
    assert seen == set(range(topo.num_routers))
