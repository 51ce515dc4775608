"""Structural validation of topology instances.

One validator for every fabric, shipped or third-party: it reads the
wiring table (:func:`repro.topology.fabric.wiring`), knows no concrete
fabric and checks whatever the fabric's ``caps`` claim.
"""

from __future__ import annotations

import random

from repro.topology.base import (
    CAP_GROUP_EXITS,
    CAP_LOCAL_COMPLETE,
    DRAGONFLY_CAPS,
    PortKind,
    Topology,
    UnsupportedTopologyError,
)
from repro.topology.fabric import wiring
from repro.topology.route import RouteState, walk


def validate_topology(topo: Topology) -> None:
    """Raise ``AssertionError``, naming the router and port, if ``topo``
    is structurally inconsistent."""
    caps = getattr(topo, "caps", DRAGONFLY_CAPS)
    _check_ids(topo)
    links = wiring(topo)
    _check_links(topo, links)
    if CAP_LOCAL_COMPLETE in caps:
        _check_local_complete(topo, links)
    _check_pairing(topo, links)
    if CAP_GROUP_EXITS in caps:
        _check_group_exits(topo, links)
    _check_min_hop_walks(topo, links)


def _port(topo, q: int) -> str:
    """Link port ``q`` as the protocol names it."""
    nl = topo.local_ports
    return f"local port {q}" if q < nl else f"global port {q - nl}"


def _check_ids(topo) -> None:
    assert topo.num_routers == topo.num_groups * topo.a, "router count is not groups x a"
    assert topo.num_nodes == topo.num_routers * topo.p, "node count is not routers x p"
    assert topo.local_ports >= 0 and topo.global_ports >= 0
    assert topo.route_local_vcs >= 1 and topo.route_global_vcs >= 1
    for r in (0, topo.num_routers - 1):
        g, i = topo.group_of(r), topo.index_in_group(r)
        assert topo.router_id(g, i) == r, f"group/index arithmetic broken at router {r}"
        for k in range(topo.p):
            n = topo.node_id(r, k)
            assert topo.router_of_node(n) == r and topo.node_index(n) == k, (
                f"node arithmetic broken at router {r} node port {k}")


def _check_links(topo, links) -> None:
    """Each link leaves its router for a real port of the same kind, and
    local links stay in their group."""
    nl, nq = topo.local_ports, topo.local_ports + topo.global_ports
    for r, row in enumerate(links):
        for q, (peer, peer_q) in enumerate(row):
            where = f"router {r} {_port(topo, q)}"
            assert peer != r, f"{where} is a link to itself"
            assert 0 <= peer < topo.num_routers and 0 <= peer_q < nq, (
                f"{where} lands on router {peer} link port {peer_q}, which does not exist")
            assert (q < nl) == (peer_q < nl), (
                f"{where} lands on {_port(topo, peer_q)} of router {peer}: "
                "a link joins two ports of one kind")
            assert q >= nl or topo.group_of(peer) == topo.group_of(r), (
                f"{where} leaves group {topo.group_of(r)} for router {peer} "
                f"in group {topo.group_of(peer)}")


def _check_local_complete(topo, links) -> None:
    """Every in-group pair is one local hop, and ``local_port_to`` says
    which."""
    nl = topo.local_ports
    for r, row in enumerate(links):
        i = topo.index_in_group(r)
        reached = sorted(topo.index_in_group(peer) for peer, _ in row[:nl])
        assert reached == [j for j in range(topo.a) if j != i], (
            f"router {r}'s local ports reach in-group indices {reached}, "
            "not every other router once")
        for q, (peer, _) in enumerate(row[:nl]):
            j = topo.index_in_group(peer)
            assert topo.local_port_to(i, j) == q, (
                f"router {r} local port {q} reaches index {j}, but "
                f"local_port_to({i}, {j}) is {topo.local_port_to(i, j)}")


def _check_pairing(topo, links) -> None:
    """The far end of every link leads back: links are symmetric pairs."""
    for r, row in enumerate(links):
        for q, (peer, peer_q) in enumerate(row):
            back, back_q = links[peer][peer_q]
            assert (back, back_q) == (r, q), (
                f"router {r} {_port(topo, q)} lands on router {peer} "
                f"{_port(topo, peer_q)}, whose link leads to router {back} "
                f"{_port(topo, back_q)}, not back")


def _check_group_exits(topo, links) -> None:
    """One global link per group pair, which ``target_group_of`` and
    ``exit_port`` name."""
    nl = topo.local_ports
    found: dict[tuple[int, int], list] = {}
    for r, row in enumerate(links):
        for k, (peer, _) in enumerate(row[nl:]):
            found.setdefault((topo.group_of(r), topo.group_of(peer)), []).append((r, k))
    for g in range(topo.num_groups):
        for t in range(topo.num_groups):
            if t == g:
                continue
            i, exit_k = topo.exit_port(g, t)
            exit_r = topo.router_id(g, i)
            via = found.get((g, t), [])
            assert len(via) == 1, (
                f"group {g} has {len(via)} global links to group {t} ("
                + (", ".join(f"router {r} global port {k}" for r, k in via)
                   or f"exit_port names router {exit_r} global port {exit_k}")
                + "), not one")
            [(r, k)] = via
            assert topo.target_group_of(r, k) == t, (
                f"router {r} global port {k} reaches group {t}, but "
                f"target_group_of says {topo.target_group_of(r, k)}")
            assert (exit_r, exit_k) == (r, k), (
                f"exit_port({g}, {t}) names router {exit_r} global port {exit_k}, "
                f"which reaches group {topo.group_of(links[exit_r][nl + exit_k][0])}")


def _check_min_hop_walks(topo, links) -> None:
    """Walk ``min_hop`` with the engine's counters from every router to
    four drawn destinations: minimally in exactly ``minimal_hops`` hops,
    then through a drawn Valiant token, if any, within twice the diameter."""
    nr = topo.num_routers
    rng = random.Random(nr)  # a fixed sample per fabric size, no global state
    pairs = [(s, rng.randrange(nr)) for s in range(nr) for _ in range(4)]
    for src, dst in pairs:
        want = topo.minimal_hops(src, dst)
        _check_walk(topo, links, _route(topo, src, dst), want, f"minimal_hops says {want}")
    bound = 2 * max(topo.minimal_hops(s, d) for s in range(nr) for d in range(nr))
    for src, dst in pairs:
        route = _route(topo, src, dst)
        try:
            route.valiant_group = topo.pick_via(rng, route)
        except UnsupportedTopologyError:
            return  # no Valiant routing here (e.g. a two-router fabric)
        _check_walk(topo, links, route, bound, f"twice the diameter is {bound}")


def _route(topo, src: int, dst: int) -> RouteState:
    return RouteState(src, topo.group_of(src), topo.node_id(dst, 0), dst, topo.group_of(dst))


def _check_walk(topo, links, route, limit: int, why: str) -> None:
    """``route``'s walk ejects at its destination router within ``limit``
    hops (exactly ``limit`` without a Valiant token), every hop on a VC
    of its port kind's budget, every local hop at the router it targets."""
    nl, dst, via = topo.local_ports, route.dst_router, route.valiant_group
    budget = {PortKind.LOCAL: ("route_local_vcs", topo.route_local_vcs),
              PortKind.GLOBAL: ("route_global_vcs", topo.route_global_vcs)}
    path = f"min_hop walk from router {route.src_router} to router {dst}" + (
        "" if via is None else f" via {via}")
    hops, cur = 0, route.src_router
    try:
        for here, kind, port, target, vc in walk(topo, links, route):
            if kind == PortKind.EJECT:
                break
            q = port if kind == PortKind.LOCAL else nl + port
            at = f"{path} takes router {here} {_port(topo, q)}"
            hops += 1
            assert hops <= limit, f"{at} as hop {hops}; {why}"
            name, vcs = budget[kind]
            assert 0 <= vc < vcs, f"{at} on VC {vc}; {name} is {vcs}"
            cur = links[here][q][0]
            landed = topo.index_in_group(cur)
            assert kind != PortKind.LOCAL or landed == target, (  # RLM reads the target
                f"{at} to in-group index {landed}, but min_hop names target {target}")
    except ValueError as err:  # e.g. a local target that is the router's own index
        raise AssertionError(f"{path} fails at router {cur}: {err}") from err
    assert cur == dst and (via is not None or hops == limit), (
        f"{path} ejects at router {cur} port {port} after {hops} hops; {why}")
