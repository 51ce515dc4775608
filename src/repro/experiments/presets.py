"""Scale presets.

The paper simulates the maximum well-balanced Dragonfly with ``h = 8``
(2 064 routers, 16 512 nodes).  A pure-Python cycle simulator cannot
sweep that in reasonable time, so experiments default to reduced scales
with identical router architecture and per-link parameters;
docs/DESIGN.md §3 records the substitution.  ``paper`` is provided for completeness
(expect hours per point).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.config import SimConfig, paper_vct_config, paper_wh_config


@dataclass(frozen=True)
class Scale:
    """One experiment scale: network size and measurement windows."""

    name: str
    h: int
    warmup: int
    measure: int
    #: offered loads for uniform-traffic sweeps
    loads_uniform: tuple[float, ...]
    #: offered loads for adversarial sweeps
    loads_adversarial: tuple[float, ...]
    #: packets per node in the VCT burst experiment (paper: 1000)
    burst_vct: int
    #: packets per node in the WH burst experiment (paper: 89)
    burst_wh: int
    #: cap for drain experiments
    max_drain_cycles: int = 2_000_000
    #: base offered load of the transient burst-response figure
    trans_load: float = 0.3
    #: burst sizes (packets/node) stepped onto the base load
    trans_bursts: tuple[int, ...] = (5, 10, 20, 40)
    #: post-step observation window in cycles
    trans_measure: int = 6000
    #: series bucket width (cycles) for transient figures
    trans_bucket: int = 250

    def loads_for(self, pattern: str) -> tuple[float, ...]:
        """The scale's offered-load grid for a traffic pattern."""
        return (self.loads_uniform if pattern == "uniform"
                else self.loads_adversarial)


SCALES: dict[str, Scale] = {
    "tiny": Scale(
        name="tiny", h=2, warmup=2500, measure=2500,
        loads_uniform=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        loads_adversarial=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6),
        burst_vct=120, burst_wh=12,
    ),
    "smoke": Scale(
        name="smoke", h=2, warmup=800, measure=800,
        loads_uniform=(0.2, 0.5, 0.8),
        loads_adversarial=(0.1, 0.3, 0.5),
        burst_vct=20, burst_wh=3,
        trans_bursts=(4, 12), trans_measure=2500,
    ),
    "small": Scale(
        name="small", h=3, warmup=4000, measure=4000,
        loads_uniform=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        loads_adversarial=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5),
        burst_vct=60, burst_wh=8,
    ),
    "paper": Scale(
        name="paper", h=8, warmup=20000, measure=20000,
        loads_uniform=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
        loads_adversarial=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4),
        burst_vct=1000, burst_wh=89,
        max_drain_cycles=50_000_000,
        trans_bursts=(100, 250, 500, 1000), trans_measure=60_000,
        trans_bucket=1000,
    ),
}


def get_scale(name_or_scale) -> Scale:
    """Resolve a scale by name or pass an explicit :class:`Scale` through."""
    if isinstance(name_or_scale, Scale):
        return name_or_scale
    try:
        return SCALES[name_or_scale]
    except KeyError:
        raise ValueError(f"unknown scale {name_or_scale!r}; known: {sorted(SCALES)}") from None


#: flow-control regime -> paper-faithful config builder (§IV-A / §IV-B)
PRESET_CONFIGS = {
    "vct": paper_vct_config,
    "wh": paper_wh_config,
}


def preset_config(flow_control: str, *, scale, routing: str, seed: int = 1,
                  **over) -> "SimConfig":
    """Paper-faithful :class:`SimConfig` for one figure series.

    Combines a flow-control regime preset with a :class:`Scale` (which
    fixes ``h``), e.g. ``preset_config("vct", scale="tiny",
    routing="olm")``.
    """
    try:
        builder = PRESET_CONFIGS[flow_control]
    except KeyError:
        raise ValueError(
            f"unknown preset {flow_control!r}; known: {sorted(PRESET_CONFIGS)}"
        ) from None
    return builder(h=get_scale(scale).h, routing=routing, seed=seed, **over)


#: fabrics compared by the cross-topology figure (xtopo1)
XTOPO_TOPOLOGIES = ("dragonfly", "flattened_butterfly", "torus")


def _torus_dims(routers: int) -> tuple[int, int]:
    """Most-square ``rows x cols == routers`` factorisation, both >= 3."""
    best = None
    for rows in range(3, int(routers**0.5) + 1):
        if routers % rows == 0 and routers // rows >= 3:
            best = (rows, routers // rows)
    if best is None:
        raise ValueError(
            f"cannot factor {routers} routers into a rows x cols torus "
            "with both dimensions >= 3"
        )
    return best


def cross_topology_config(topology: str, *, scale, routing: str, seed: int = 1,
                          flow_control: str = "vct", **over) -> SimConfig:
    """Config for one fabric of the cross-topology comparison (xtopo1).

    All fabrics are sized to the *same node count* as the scale's
    canonical Dragonfly (``(2h^2+1) * 2h`` routers with ``p = h`` nodes
    each): the flattened butterfly gets that router count as one
    complete graph, the torus the most-square ``rows x cols``
    factorisation of it.  Link latencies, buffers and per-node load
    definitions are shared, so accepted-load curves are comparable.
    """
    scale = get_scale(scale)
    cfg = preset_config(flow_control, scale=scale, routing=routing, seed=seed,
                        **over)
    if topology == "dragonfly":
        return cfg
    routers = (2 * scale.h * scale.h + 1) * 2 * scale.h
    if topology == "flattened_butterfly":
        return cfg.with_(topology="flattened_butterfly", fb_routers=routers,
                         p=scale.h)
    if topology == "torus":
        rows, cols = _torus_dims(routers)
        return cfg.with_(topology="torus", torus_rows=rows, torus_cols=cols,
                         p=scale.h)
    # any other registered fabric: selected as-is, sized by its own
    # from_config defaults (raises UnknownComponentError when unknown)
    return cfg.with_(topology=topology)
