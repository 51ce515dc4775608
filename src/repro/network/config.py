"""Simulation configuration.

Defaults follow the paper's methodology section: local links 10 cycles,
global links 100 cycles, local FIFOs 32 phits, global FIFOs 256 phits,
3 local / 2 global VCs (6 local for PAR-6/2), VCT packets of 8 phits,
WH packets of 80 phits in 8 flits of 10 phits.  The network size
defaults to ``h = 2`` so that pure-Python sweeps finish quickly; the
paper's machine is ``h = 8`` and can be built by passing ``h=8``.
Non-Dragonfly fabrics are sized by their own knobs (``fb_routers``
for the flattened butterfly, ``torus_rows``/``torus_cols`` for the
torus, shared ``p`` concentration); unused knobs still participate in
:meth:`SimConfig.canonical_json`, keeping cache keys total functions
of the dataclass.

Component names (``topology``, ``routing``, ``flow_control``,
``arbitration``) are validated against the unified registries in
:mod:`repro.registry`, so third-party components registered before a
config is created are accepted like built-ins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from functools import cache

from repro.registry import (
    ARBITER_REGISTRY,
    ENGINE_REGISTRY,
    FLOW_CONTROL_REGISTRY,
    ROUTING_REGISTRY,
    TOPOLOGY_REGISTRY,
)


#: the one encoder of canonical JSON (sorted keys, no spaces): config
#: identity, run-point cache keys and cached records.  Shared because
#: ``json.dumps(..., sort_keys=True)`` builds a new encoder per call.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Field names of a config dataclass, once per class (subclasses too)."""
    return tuple(f.name for f in fields(cls))


@dataclass
class SimConfig:
    """All knobs of one simulation run."""

    # ---- topology
    topology: str = "dragonfly"
    #: Dragonfly size knobs: global ports per router (h), nodes per
    #: router (p, also the concentration of the other fabrics) and
    #: routers per group (a); ``None`` means the canonical well-balanced
    #: derivation from h
    h: int = 2
    p: int | None = None
    a: int | None = None
    arrangement: str = "palmtree"
    #: flattened-butterfly size: routers in the single complete graph
    fb_routers: int = 8
    #: torus size: Y-ring (rows = groups) and X-ring (cols) lengths
    torus_rows: int = 4
    torus_cols: int = 4

    # ---- routing
    routing: str = "olm"
    #: misrouting trigger threshold (fraction of minimal-queue occupancy)
    threshold: float = 0.45
    #: how many random non-minimal candidates the trigger samples per cycle
    misroute_candidates: int = 4
    #: UGAL-style hop weighting for *global* misroute candidates: a Valiant
    #: detour roughly doubles the path, so its queue is compared at this
    #: multiple.  1.0 reproduces the paper's unweighted trigger verbatim;
    #: at the reduced default scale the unweighted trigger over-misroutes
    #: under uniform traffic (see docs/DESIGN.md §4).
    trigger_global_hop_weight: float = 2.0
    #: allow adaptive mechanisms to take a Valiant detour for intra-group traffic
    allow_global_misroute_local_traffic: bool = True

    # ---- flow control
    flow_control: str = "vct"  # "vct" | "wh"
    packet_phits: int = 8
    flit_phits: int = 10  # WH only

    # ---- router microarchitecture
    #: output arbitration among competing inputs: "rr" | "random" | "age"
    arbitration: str = "rr"
    #: extra pipeline cycles added to every hop (router traversal delay)
    router_latency: int = 0

    # ---- link/buffer parameters (paper defaults)
    local_latency: int = 10
    global_latency: int = 100
    local_buffer_phits: int = 32
    global_buffer_phits: int = 256
    local_vcs: int = 3
    global_vcs: int = 2

    # ---- piggybacking
    pb_threshold: float = 0.30
    pb_update_period: int | None = None  # default: local link latency
    #: source-queue depth (in packets) that marks intra-group traffic congested
    pb_inj_backlog_packets: int = 4

    # ---- execution backend
    #: simulation engine: "wheel" (object timing wheel), "auto" (the
    #: same simulator, with the numpy array core attached where it wins
    #: the point) or "reference" (frozen seed engine).  Engines are an
    #: *execution* choice, not a physics knob: every engine emits
    #: byte-identical records, so this field is excluded from
    #: :meth:`canonical_json` and cache keys.
    engine: str = "wheel"

    # ---- misc
    seed: int = 1
    record_hops: bool = False
    #: cycles without any flit movement (while packets are in flight) that
    #: trigger a DeadlockError; generous because global links are 100 cycles
    deadlock_window: int = 5000

    def __post_init__(self) -> None:
        # registry lookups raise UnknownComponentError (a ValueError) with
        # the known names and a did-you-mean suggestion
        TOPOLOGY_REGISTRY.get(self.topology)
        ROUTING_REGISTRY.get(self.routing)
        FLOW_CONTROL_REGISTRY.get(self.flow_control)
        ARBITER_REGISTRY.get(self.arbitration)
        if self.engine not in ENGINE_REGISTRY:
            # engines register on repro.network import; this module is
            # imported *by* repro.network, so pull the package in lazily
            # before deciding the name really is unknown
            import repro.network  # noqa: F401
            ENGINE_REGISTRY.get(self.engine)
        if self.packet_phits <= 0:
            raise ValueError("packet_phits must be positive")
        if self.topology == "flattened_butterfly":
            if self.fb_routers < 2:
                raise ValueError(
                    f"fb_routers must be >= 2 for a flattened butterfly, got "
                    f"{self.fb_routers}"
                )
            if self.fb_routers < 3 and self.routing == "valiant":
                raise ValueError(
                    "valiant routing on a flattened butterfly needs "
                    f"fb_routers >= 3 (got {self.fb_routers}): no "
                    "intermediate router exists"
                )
        if self.topology == "torus" and min(self.torus_rows, self.torus_cols) < 3:
            raise ValueError(
                f"torus_rows/torus_cols must be >= 3, got "
                f"{self.torus_rows}x{self.torus_cols}: a ring of fewer than "
                "3 routers folds both link directions onto one neighbour"
            )
        if not 0.0 <= self.threshold:
            raise ValueError("threshold must be non-negative")
        if self.router_latency < 0:
            raise ValueError("router_latency must be non-negative")
        if self.local_latency < 1 or self.global_latency < 1:
            # a 0-cycle link would return credits within the granting
            # cycle, which no credit-based router can model faithfully
            raise ValueError("link latencies must be at least 1 cycle")
        # Derived defaults: remember which fields were left unset (``None``
        # sentinel) so :meth:`with_` recomputes them against the new base
        # values instead of freezing the stale resolved number.
        self._pb_update_period_auto = self.pb_update_period is None
        if self.pb_update_period is None:
            self.pb_update_period = self.local_latency

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with fields replaced (convenience for sweeps).

        Derived defaults that were never set explicitly (currently
        ``pb_update_period``, which tracks ``local_latency``) are
        re-derived on the copy rather than carried over as stale values.
        """
        if self._pb_update_period_auto and "pb_update_period" not in kwargs:
            kwargs.setdefault("pb_update_period", None)
        return replace(self, **kwargs)

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """JSON-safe mapping of every field (round-trips via :meth:`from_dict`).

        Auto-derived fields are serialized as ``None`` so that the
        round-tripped config keeps re-deriving them.
        """
        d = {name: getattr(self, name) for name in _field_names(type(self))}
        if self._pb_update_period_auto:
            d["pb_update_period"] = None
        return d

    def canonical_dict(self) -> dict:
        """:meth:`to_dict` minus ``engine``: the fields that make a config's
        identity.

        ``engine`` is dropped: every backend is record-identical by
        contract (enforced by the golden matrix), so the same physics
        must hash to the same key no matter which engine computed it — a
        cache entry written under one engine is a hit for all of them.
        """
        d = self.to_dict()
        del d["engine"]
        return d

    def canonical_json(self) -> str:
        """Deterministic JSON encoding of :meth:`canonical_dict`.

        Keys are sorted and separators fixed, so two equal configs always
        encode to the same byte string — the basis of result-cache keys
        (:meth:`repro.runplan.RunPoint.key` encodes the same dict) and
        of :meth:`content_hash`.
        """
        return CANONICAL_JSON.encode(self.canonical_dict())

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` (stable across runs)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Build a validated config from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` (catches typos in sweep
        manifests and CLI config files early).
        """
        if not isinstance(data, dict):
            raise ValueError(f"SimConfig.from_dict needs a dict, got {type(data).__name__}")
        known = set(_field_names(cls))
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SimConfig field(s): {unknown}; known: {sorted(known)}")
        return cls(**data)


#: Paper-faithful configuration for the VCT experiments (§IV-A), h reduced.
def paper_vct_config(h: int = 2, routing: str = "olm", **over) -> SimConfig:
    return SimConfig(h=h, routing=routing, flow_control="vct", packet_phits=8, **over)


#: Paper-faithful configuration for the WH experiments (§IV-B), h reduced.
def paper_wh_config(h: int = 2, routing: str = "rlm", **over) -> SimConfig:
    return SimConfig(h=h, routing=routing, flow_control="wh",
                     packet_phits=80, flit_phits=10, **over)
