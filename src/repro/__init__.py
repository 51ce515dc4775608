"""Reproduction of "Efficient Routing Mechanisms for Dragonfly Networks"
(García, Vallejo, Beivide, Odriozola, Valero — ICPP 2013).

Public API quick tour::

    import repro

    cfg = repro.SimConfig(h=2, routing="olm", flow_control="vct")
    result = repro.session(cfg, pattern="uniform", load=0.5).warmup(2000).measure(2000)
    print(result.mean_latency, result.latency_p99, result.throughput)

``repro.session(cfg)`` opens a :class:`Session` around one live
simulator; ``warmup`` runs to steady state and resets the measurement
window, ``measure``/``drain`` return a frozen :class:`RunResult`
(latency mean and percentiles, throughput, misroute fractions, drain
cycles).  Every pluggable component — topology, routing, flow control,
arbitration, traffic — is selected by name in :class:`SimConfig` and
resolved through one registry API::

    from repro.registry import all_registries, TOPOLOGY_REGISTRY

    for kind, registry in all_registries().items():
        print(kind, registry.available())

    @TOPOLOGY_REGISTRY.register("mytopo", description="my fabric")
    class MyTopology: ...          # then SimConfig(topology="mytopo")

Routing mechanisms: ``minimal``, ``valiant``, ``pb`` (Piggybacking),
``par62`` (naïve PAR-6/2), ``rlm`` (Restricted Local Misrouting),
``olm`` (Opportunistic Local Misrouting) and the ``ofar`` baseline.
Topologies: ``dragonfly`` (the paper's), ``flattened_butterfly``
(1-D), ``torus`` (2-D) — minimal/Valiant/OFAR run on all three via the
fabric's routing oracle; Dragonfly-only mechanisms raise
:class:`~repro.topology.base.UnsupportedTopologyError` elsewhere (see
``docs/ARCHITECTURE.md`` and ``docs/ADDING_A_TOPOLOGY.md``).

The lower-level surface (``build_simulator``, ``sim.ledger()`` — the
engine's cumulative delivery counts, which every window differences —
and ``sim.add_delivery_observer``) remains available for custom loops.
"""

from repro.core import ROUTING_REGISTRY, MisroutingTrigger, routing_by_name
from repro.network import (
    DeadlockError,
    SimConfig,
    Simulator,
    build_simulator,
)
from repro.topology import (
    Dragonfly,
    FlattenedButterfly,
    Topology,
    Torus2D,
    UnsupportedTopologyError,
    validate_topology,
)
from repro.traffic import PATTERN_REGISTRY, PROCESS_REGISTRY
from repro.registry import (
    ARBITER_REGISTRY,
    FLOW_CONTROL_REGISTRY,
    TOPOLOGY_REGISTRY,
    DuplicateComponentError,
    Registry,
    UnknownComponentError,
    all_registries,
)
from repro.facade import (
    RunResult,
    SeriesResult,
    Session,
    run_drain,
    run_point,
    run_transient,
    session,
)
from repro.metrics import LatencyTap, MetricsHub
from repro.runplan import (
    ResultCache,
    RunPoint,
    RunSpec,
    aggregate_replicas,
    execute,
    replica_seeds,
)

__version__ = "1.1.0"

__all__ = [
    # configuration + engine
    "SimConfig",
    "Simulator",
    "build_simulator",
    "DeadlockError",
    # session facade
    "session",
    "Session",
    "RunResult",
    "SeriesResult",
    "run_point",
    "run_drain",
    "run_transient",
    # observability (hub + latency recorder)
    "MetricsHub",
    "LatencyTap",
    # run plans (parallel execution, caching, replication)
    "RunSpec",
    "RunPoint",
    "execute",
    "replica_seeds",
    "aggregate_replicas",
    "ResultCache",
    # registries
    "Registry",
    "UnknownComponentError",
    "DuplicateComponentError",
    "all_registries",
    "TOPOLOGY_REGISTRY",
    "ROUTING_REGISTRY",
    "FLOW_CONTROL_REGISTRY",
    "ARBITER_REGISTRY",
    "PATTERN_REGISTRY",
    "PROCESS_REGISTRY",
    # topology
    "Topology",
    "Dragonfly",
    "FlattenedButterfly",
    "Torus2D",
    "UnsupportedTopologyError",
    "validate_topology",
    # routing helpers
    "routing_by_name",
    "MisroutingTrigger",
    "__version__",
]
