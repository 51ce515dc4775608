"""Compiled fabrics: what outlives a point, one per fabric per process.

Everything a simulation derives from the fabric alone — the topology
object with its lookup tables, its wiring table (:func:`wiring`: the one
place the protocol's port maps become links, read by every consumer)
and, hanging off it, the array core's static layout and minimal-route
table (``repro.network.arraysim``) — is built once per process and
borrowed by every later point on that fabric.
A load sweep, a replica set, a served job queue or a pool worker runs
tens of points on one or two fabrics; each point allocates only what it
mutates.

The memo is keyed on the registered *class* (not its name: a class
re-registered under an old name gets its own fabric) plus the values of
the config fields that class declares in ``config_fields``.  The
declaration is the contract: ``from_config`` is handed a view holding
exactly those fields, so a fabric cannot silently depend on a knob that
is not in its key, and the instance must not change after construction
(the shipped fabrics never did).  A registered class that does not
declare ``config_fields`` is refused with a ``TypeError``.

What is kept is immutable or append-only and a pure function of its
key, so no record, cache key or streamed row can tell whether a fabric
was compiled for this point or borrowed.  It is bounded — ``MAX_FABRICS``
topologies, ``MAX_LAYOUTS`` array layouts each, least recently used
out — and per process: a forked worker inherits its parent's fabrics, a
spawned one starts empty.  Locking is per point, never per cycle: a
point takes the memo's lock once to find its fabric (held through a
cold ``from_config``, so two threads on one cold fabric get one build
and one object, and a point on another fabric waits for that build) and
an array-core point takes its fabric's lock once to find its layout;
after that only walking routes nobody has walked yet locks (the
fabric's lock again) — reading routes never does.  There is no switch:
:func:`clear_fabrics` exists for tests and ``tools/bench_engine.py``,
which need to time a cold fabric.

Stdlib-only on purpose — the wheel path goes through this module and
must not pay for numpy (nor for networkx, which :func:`as_networkx`
imports when called); the array half lives in ``arraysim``.
"""

from __future__ import annotations

import functools
import threading
from types import SimpleNamespace

from repro.registry import TOPOLOGY_REGISTRY

#: topologies kept per process (a figure uses one fabric, a grid or a
#: served queue a few); the least recently used one goes first
MAX_FABRICS = 4
#: array layouts kept per topology, one per distinct (VC counts, buffer
#: depths, latencies); layouts that agree on the VC counts share one
#: minimal-route table, so a process holds at most ``MAX_FABRICS *
#: MAX_LAYOUTS`` = 16 tables, and that many only if every layout differs
#: in VC counts.  A fully touched table is ≈ 47 B a router pair: 3.2 MB
#: on the h=4 fabric, ≈ 200 MB at the paper's h=8 — 3.2 GB for sixteen
#: of those, which no shipped workload approaches (the figures use one
#: or two VC settings per fabric)
MAX_LAYOUTS = 4


def wiring(topo) -> tuple:
    """Every link of ``topo``: output ``q`` of ``router`` lands on input
    ``peer_q`` of ``peer``, ``table[router][q] = (peer, peer_q)``, where
    link port ``q`` (router port ``p + q``) counts the local ports first,
    then the global ones.  Checked by :func:`~repro.topology.validate.validate_topology`.
    """
    nl, ng = topo.local_ports, topo.global_ports
    table = []
    for r in range(topo.num_routers):
        group, idx = topo.group_of(r), topo.index_in_group(r)
        row = []
        for q in range(nl):
            peer_idx = topo.local_neighbor_index(idx, q)
            row.append((topo.router_id(group, peer_idx),
                        topo.local_port_to(peer_idx, idx)))
        for k in range(ng):
            peer, peer_k = topo.global_neighbor(r, k)
            row.append((peer, nl + peer_k))
        table.append(tuple(row))
    return tuple(table)


def as_networkx(topo):
    """Router-level multigraph (needs networkx): one edge per link,
    labelled ``kind="local"`` or ``"global"``, for every fabric alike."""
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(topo.num_routers))
    nl = topo.local_ports
    for r, row in enumerate(wiring(topo)):
        for q, (peer, peer_q) in enumerate(row):
            if (r, q) < (peer, peer_q):  # each link once, from one end
                g.add_edge(r, peer, kind="local" if q < nl else "global")
    return g


class Fabric:
    """One topology and everything compiled from it."""

    __slots__ = ("topo", "wiring", "layouts", "lock")

    def __init__(self, topo) -> None:
        self.topo = topo
        #: the links, see :func:`wiring`
        self.wiring = wiring(topo)
        #: array-core layouts by what shapes them, least recently used
        #: first (filled by ``arraysim``)
        self.layouts: dict = {}
        #: taken once per array-core point to find its layout, and to
        #: append route-table rows; reading routes never takes it
        self.lock = threading.Lock()


_memo_lock = threading.Lock()


@functools.lru_cache(maxsize=MAX_FABRICS)
def _compile(cls, values: tuple) -> Fabric:
    # attribute lookup, so a wrapper rebound onto ``from_config`` (the
    # benchmark's tracer) sees every real build
    return Fabric(cls.from_config(
        SimpleNamespace(**dict(zip(cls.config_fields, values)))))


def fabric_for(config) -> Fabric:
    """The compiled fabric ``config`` selects, built on first use."""
    cls = TOPOLOGY_REGISTRY.get(config.topology)
    fields = getattr(cls, "config_fields", None)
    if fields is None:
        raise TypeError(
            f"topology {config.topology!r} ({cls.__name__}) does not declare "
            "config_fields: name the SimConfig fields its from_config reads, "
            "they are the key its compiled fabric is shared under")
    values = tuple(getattr(config, name) for name in fields)
    with _memo_lock:  # two threads, one cold fabric: one build, one object
        return _compile(cls, values)


def clear_fabrics() -> None:
    """Forget every compiled fabric (tests and cold-fabric timing)."""
    with _memo_lock:
        _compile.cache_clear()


#: ``functools`` hit / miss / size counters of the topology memo
fabric_cache_info = _compile.cache_info

__all__ = ["Fabric", "MAX_FABRICS", "MAX_LAYOUTS", "fabric_for",
           "clear_fabrics", "fabric_cache_info", "wiring", "as_networkx"]
