"""What each evaluation element of the paper simulates — and nothing else.

A figure is a set of mechanism × traffic × load points.  Every builder
here takes ``(scale, seed, seeds, **opts)`` — ``opts`` being the
figure's own grid override (``loads``, ``percentages``, ``bursts``,
``thresholds``) — and returns a :class:`FigurePlan`: one
:class:`~repro.runplan.RunSpec` per curve, the payload's ``pattern``
label and the legend order.  *How* a plan runs — pool size, result
cache, shard, progress stream, the in-process memo — is decided in one
place, :func:`repro.experiments.registry.run_experiment`; no builder
sees any of it.

Figure pairs that share simulations (4a/5a are the latency and
throughput of the same sweep) share one builder *object* in the
catalogue (:data:`repro.experiments.registry.EXPERIMENTS`), which is
what lets ``run all`` simulate each sweep once.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro.core.paritysign import CANONICAL_ORDER, TYPE_NAMES, build_allowed_table
from repro.experiments.presets import (
    XTOPO_TOPOLOGIES,
    cross_topology_config,
    preset_config,
)
from repro.runplan import RunSpec, replica_seeds

#: mechanisms plotted per figure family (paper legend order)
VCT_UN_MECHS = ("par62", "olm", "rlm", "minimal", "pb")
VCT_ADV_MECHS = ("par62", "olm", "rlm", "valiant", "pb")
VCT_MIX_MECHS = ("par62", "olm", "rlm", "pb")
WH_UN_MECHS = ("par62", "rlm", "minimal", "pb")
WH_ADV_MECHS = ("par62", "rlm", "valiant", "pb")
WH_MIX_MECHS = ("par62", "rlm", "pb")
#: mechanisms compared on every fabric (the fabric-agnostic baselines)
XTOPO_MECHS = ("minimal", "valiant")

MIX_PERCENTAGES = (0, 20, 40, 60, 80, 100)
THRESHOLDS = (0.30, 0.40, 0.45, 0.50, 0.60)


class FigurePlan(NamedTuple):
    """What one figure simulates: its curves, label and legend order."""

    specs: list[RunSpec]
    #: the payload's ``pattern`` label
    pattern: str
    #: series names in legend order (pre-seeds the payload's ``series``)
    order: tuple[str, ...]


def _curve(scale, seed: int, seeds: int, config, series: str, **fields) -> RunSpec:
    """One curve of a figure — the only place this layer builds a spec.

    The scale's warm-up / measure windows apply unless ``fields``
    overrides them (drain specs never read them); ``seeds`` > 1 adds
    replica seeds ``seed .. seed+seeds-1``, aggregated into mean ± CI
    by the run-plan layer.
    """
    fields.setdefault("warmup", scale.warmup)
    fields.setdefault("measure", scale.measure)
    return RunSpec(config=config, seeds=replica_seeds(seed, seeds),
                   series=series, **fields)


# ------------------------------------------- load sweeps (Figs 4/5 and 7/8)
def _sweep(mechs, preset: str, pattern: str, scale, seed, seeds,
           loads=None) -> FigurePlan:
    if loads is None:
        loads = scale.loads_for(pattern)
    return FigurePlan(
        [_curve(scale, seed, seeds,
                preset_config(preset, scale=scale, routing=mech, seed=seed),
                mech, pattern=pattern, loads=tuple(loads))
         for mech in mechs],
        pattern, mechs)


#: Figures 4a + 5a: UN traffic, VCT
vct_uniform = partial(_sweep, VCT_UN_MECHS, "vct", "uniform")
#: Figures 4b + 5b: ADVG+1, VCT
vct_advg1 = partial(_sweep, VCT_ADV_MECHS, "vct", "advg+1")
#: Figures 4c + 5c: ADVG+h, VCT (pathological local saturation)
vct_advgh = partial(_sweep, VCT_ADV_MECHS, "vct", "advg+h")
#: Figures 7a + 8a: UN traffic, WH
wh_uniform = partial(_sweep, WH_UN_MECHS, "wh", "uniform")
#: Figures 7b + 8b: ADVG+1, WH
wh_advg1 = partial(_sweep, WH_ADV_MECHS, "wh", "advg+1")
#: Figures 7c + 8c: ADVG+h, WH
wh_advgh = partial(_sweep, WH_ADV_MECHS, "wh", "advg+h")


# ------------------------------------------------ mixed + burst (Figs 6 / 9)
def _mixed(mechs, preset: str, scale, seed, seeds,
           percentages=MIX_PERCENTAGES) -> FigurePlan:
    """ADVG+h/ADVL+1 mix throughput at offered load 1.0."""
    return FigurePlan(
        [_curve(scale, seed, seeds,
                preset_config(preset, scale=scale, routing=mech, seed=seed),
                mech, pattern=f"mixed:{pct}", loads=(1.0,),
                coords=(("global_pct", pct),))
         for mech in mechs for pct in percentages],
        "mixed", mechs)


def _burst(mechs, preset: str, scale, seed, seeds,
           percentages=MIX_PERCENTAGES) -> FigurePlan:
    """Burst-consumption time under the ADVG/ADVL mix (the WH payload
    is matched to the VCT one in phits)."""
    packets = {"vct": scale.burst_vct, "wh": scale.burst_wh}[preset]
    return FigurePlan(
        [_curve(scale, seed, seeds,
                preset_config(preset, scale=scale, routing=mech, seed=seed),
                mech, pattern=f"mixed:{pct}", kind="drain",
                packets_per_node=packets,
                max_cycles=scale.max_drain_cycles,
                coords=(("global_pct", pct),))
         for mech in mechs for pct in percentages],
        "burst", mechs)


#: Figure 6a / 9a: mix throughput, VCT / WH
mixed_vct = partial(_mixed, VCT_MIX_MECHS, "vct")
mixed_wh = partial(_mixed, WH_MIX_MECHS, "wh")
#: Figure 6b / 9b: burst-consumption time, VCT / WH
burst_vct = partial(_burst, VCT_MIX_MECHS, "vct")
burst_wh = partial(_burst, WH_MIX_MECHS, "wh")


# --------------------------------------------- transient burst response (new)
def burst_response(scale, seed, seeds, bursts=None) -> FigurePlan:
    """Transient burst response: recovery time after a load step, VCT.

    Not a paper figure — the congestion story of §II told as a time
    series: steady uniform traffic at the scale's base load, a
    per-node packet burst stepped on top, and the cycles until the
    throughput series settles back onto the pre-step baseline
    (``recovery_cycles``, via auto-detected steady state and the
    event-driven metrics hub), per mechanism and burst size.
    """
    if bursts is None:
        bursts = scale.trans_bursts
    return FigurePlan(
        [_curve(scale, seed, seeds,
                preset_config("vct", scale=scale, routing=mech, seed=seed),
                mech, pattern="uniform", kind="transient",
                loads=(scale.trans_load,),
                warmup=4 * scale.warmup,  # cap for the auto warm-up
                measure=scale.trans_measure,
                packets_per_node=n, bucket=scale.trans_bucket,
                coords=(("burst", n),))
         for mech in VCT_MIX_MECHS for n in bursts],
        "uniform+burst", VCT_MIX_MECHS)


# ------------------------------------------------ cross-topology (new)
def cross_topology(scale, seed, seeds, loads=None) -> FigurePlan:
    """Cross-fabric comparison: throughput vs load per topology, VCT.

    Not a paper figure — the generality check of the topology-agnostic
    engine: the same minimal and Valiant mechanisms, routed through
    each fabric's ``min_hop`` oracle, under uniform traffic on a
    Dragonfly, a 1-D flattened butterfly and a 2-D torus sized to the
    *same node count* (see
    :func:`~repro.experiments.presets.cross_topology_config`).  One
    curve per (fabric, mechanism); records carry a ``topology``
    coordinate.
    """
    if loads is None:
        loads = scale.loads_uniform
    pairs = [(topo, mech) for topo in XTOPO_TOPOLOGIES for mech in XTOPO_MECHS]
    return FigurePlan(
        [_curve(scale, seed, seeds,
                cross_topology_config(topo, scale=scale, routing=mech, seed=seed),
                f"{topo}/{mech}", pattern="uniform", loads=tuple(loads),
                coords=(("topology", topo),))
         for topo, mech in pairs],
        "uniform", tuple(f"{topo}/{mech}" for topo, mech in pairs))


# ------------------------------------------------- thresholds (Figs 10 / 11)
def _thresholds(pattern: str, scale, seed, seeds,
                thresholds=THRESHOLDS) -> FigurePlan:
    """RLM/VCT misrouting-threshold sweep over the pattern's load grid."""
    labels = tuple(f"th={int(th * 100)}%" for th in thresholds)
    return FigurePlan(
        [_curve(scale, seed, seeds,
                preset_config("vct", scale=scale, routing="rlm",
                              seed=seed).with_(threshold=th),
                label, pattern=pattern, loads=scale.loads_for(pattern),
                coords=(("threshold", th),))
         for th, label in zip(thresholds, labels)],
        pattern, labels)


#: Figure 10 / 11: threshold sweep under UN / ADVG+1
threshold_uniform = partial(_thresholds, "uniform")
threshold_advg1 = partial(_thresholds, "advg+1")


# ----------------------------------------------------------------- Table I
def table1() -> dict:
    """Table I: the parity-sign hop-combination table, regenerated.

    Computed, not simulated: the finished payload rather than a plan.
    """
    table = build_allowed_table(CANONICAL_ORDER)
    rows = [
        {
            "first": TYPE_NAMES[t1],
            "second": TYPE_NAMES[t2],
            "allowed": table[t1][t2],
        }
        for t1 in range(4)
        for t2 in range(4)
    ]
    return {"pattern": "table1", "scale": "n/a", "series": {"parity-sign": rows}}
