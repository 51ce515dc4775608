"""Topology layer: the fabric protocol and the shipped implementations.

Three fabrics register out of the box:

* :class:`~repro.topology.dragonfly.Dragonfly` — the canonical
  *maximum-size well-balanced* Dragonfly of Kim et al. (and of the
  reproduced paper), parametrised by a single integer ``h``: every
  router has ``h`` injection ports, ``h`` global ports and ``2h - 1``
  local ports; ``a = 2h`` routers per group; ``g = a*h + 1`` groups
  joined pairwise by exactly one global link.  The general
  ``(p, a, h)`` parametrisation is accepted as long as the global
  network stays a fully-subscribed complete graph.
* :class:`~repro.topology.flattened_butterfly.FlattenedButterfly` —
  the 1-D flattened butterfly: one group, a complete graph of routers.
* :class:`~repro.topology.torus.Torus2D` — a 2-D torus: X rings on
  LOCAL ports inside row-groups, Y rings on GLOBAL ports.

Everything the engine needs from a fabric is the
:class:`~repro.topology.base.Topology` protocol — including the
``min_hop`` routing oracle, the ``pick_via`` Valiant draw, the
``escape_ring`` hook and the capability flags, whose links are read from
one table (:func:`~repro.topology.fabric.wiring`); see
``docs/ADDING_A_TOPOLOGY.md`` for a worked guide to registering a new
fabric.
"""

from repro.registry import TOPOLOGY_REGISTRY
from repro.topology.arrangements import (
    GlobalArrangement,
    PalmTreeArrangement,
    ConsecutiveArrangement,
    arrangement_by_name,
)
from repro.topology.base import (
    CAP_DRAGONFLY_PATHS,
    CAP_GROUP_EXITS,
    CAP_LOCAL_COMPLETE,
    OutputPort,
    PortKind,
    Topology,
    UnsupportedTopologyError,
)
from repro.topology.dragonfly import Dragonfly
from repro.topology.fabric import as_networkx, wiring
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.torus import Torus2D
from repro.topology.validate import validate_topology

__all__ = [
    "Topology",
    "TOPOLOGY_REGISTRY",
    "Dragonfly",
    "FlattenedButterfly",
    "Torus2D",
    "PortKind",
    "OutputPort",
    "UnsupportedTopologyError",
    "CAP_LOCAL_COMPLETE",
    "CAP_GROUP_EXITS",
    "CAP_DRAGONFLY_PATHS",
    "GlobalArrangement",
    "PalmTreeArrangement",
    "ConsecutiveArrangement",
    "arrangement_by_name",
    "validate_topology",
    "wiring",
    "as_networkx",
]
