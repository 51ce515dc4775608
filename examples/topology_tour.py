#!/usr/bin/env python3
"""Topology tour: all three fabrics, port maps and the parity-sign table.

No simulation — instant.  Useful to understand the id arithmetic and
the routing oracle before reading the router code, and to see Table I
regenerated from the construction procedure in §III-B.
"""

from repro import Dragonfly, TOPOLOGY_REGISTRY, validate_topology
from repro.core.paritysign import (
    CANONICAL_ORDER,
    TYPE_NAMES,
    allowed_intermediates,
    build_allowed_table,
    min_route_guarantee,
)
from repro.topology import FlattenedButterfly, PortKind, Torus2D, wiring
from repro.topology.ring import hamiltonian_ring, validate_ring
from repro.topology.route import RouteState, walk

KIND = {PortKind.EJECT: "eject", PortKind.LOCAL: "local", PortKind.GLOBAL: "global"}


def oracle_path(topo, src_router: int, dst_router: int) -> list[str]:
    """Hops of the fabric's minimal route, as (kind, port, vc) labels."""
    route = RouteState(src_router, topo.group_of(src_router),
                       topo.node_id(dst_router, 0), dst_router, topo.group_of(dst_router))
    # wiring(topo)[router][link port] = (peer, peer's port)
    return [f"{KIND[kind]}[{port}]@vc{vc}"
            for _, kind, port, _, vc in walk(topo, wiring(topo), route)]


def main() -> None:
    print("registered topologies:")
    for name, desc in TOPOLOGY_REGISTRY.describe().items():
        print(f"  {name}: {desc}")
    print()

    # ---- Dragonfly: the paper's fabric -----------------------------------
    for h in (2, 4, 8):
        t = Dragonfly(h)
        validate_topology(t)
        print(f"dragonfly h={h}: {t.num_groups} groups x {t.a} routers, "
              f"{t.num_routers} routers, {t.num_nodes} nodes, radix {t.radix}")
    print()

    t = Dragonfly(4)  # the paper's Figure 2 example group size (2h = 8 routers)
    print("dragonfly minimal path: router 0 -> router 100")
    print(f"  groups: {t.group_of(0)} -> {t.group_of(100)}, "
          f"hops: {t.minimal_hops(0, 100)}")
    exit_idx, gport = t.exit_port(t.group_of(0), t.group_of(100))
    print(f"  exit router index {exit_idx}, global port {gport}")
    print(f"  oracle: {' -> '.join(oracle_path(t, 0, 100))}\n")

    # ---- flattened butterfly: one group, complete graph ------------------
    fb = FlattenedButterfly(36, p=2)
    validate_topology(fb)
    print(f"flattened butterfly: {fb.num_routers} routers in one complete "
          f"graph, {fb.num_nodes} nodes, radix {fb.radix}, "
          f"caps={sorted(fb.caps)}")
    print(f"  minimal path 3 -> 29 (always one hop): "
          f"{' -> '.join(oracle_path(fb, 3, 29))}")
    validate_ring(fb, hamiltonian_ring(fb))
    print(f"  escape ring: 0 -> 1 -> ... -> {fb.num_routers - 1} -> 0 "
          "(validated)\n")

    # ---- 2-D torus: rings on both port kinds -----------------------------
    torus = Torus2D(6, 6, p=2)
    validate_topology(torus)
    print(f"torus {torus.rows}x{torus.cols}: rows are groups (Y rings on "
          f"GLOBAL ports), X rings on LOCAL ports; {torus.num_nodes} nodes, "
          f"radix {torus.radix}, caps={sorted(torus.caps) or '{}'}")
    src, dst = 0, torus.router_id(4, 5)
    print(f"  dimension-ordered path (0,0) -> (4,5), "
          f"{torus.minimal_hops(src, dst)} hops with date-line VCs:")
    print(f"  {' -> '.join(oracle_path(torus, src, dst))}")
    validate_ring(torus, hamiltonian_ring(torus))
    print("  escape ring: serpentine over the grid (validated)\n")

    # ---- Table I ---------------------------------------------------------
    print("Table I (parity-sign 2-hop combinations), regenerated:")
    table = build_allowed_table(CANONICAL_ORDER)
    for t1 in range(4):
        for t2 in range(4):
            print(f"  {TYPE_NAMES[t1]:>6} {TYPE_NAMES[t2]:>6} : "
                  f"{'Allowed' if table[t1][t2] else 'NOT allowed'}")
    print()

    a = 8  # routers per group at h=4
    print(f"paper example (Fig 2): routes 5 -> 0 in a group of {a}:")
    print(f"  allowed intermediates: {allowed_intermediates(5, 0, a)} "
          f"(paper: 2, 4 and 6 — i.e. h-1 = 3 routes)")
    print(f"  worst-case 2-hop routes over all pairs: {min_route_guarantee(a)} "
          f"(>= h-1 = {a // 2 - 1})")


if __name__ == "__main__":
    main()
