#!/usr/bin/env python3
"""Capture the engine's golden records for the determinism suite.

Runs a pinned scenario matrix (routing x pattern x load x VCT/WH, plus
burst-drain points) through the public Session workflow and stores each
record's canonical JSON string in ``tests/data/engine_goldens.json``.
The stored strings were captured from the *seed* engine (PR 3); the
equivalence suite (``tests/test_engine_equivalence.py``) asserts that
the timing-wheel engine — and the frozen ``ReferenceSimulator`` —
reproduce every record byte-identically.

Regenerating this file is only legitimate when a record-changing
behaviour change is *intended*; the diff then documents exactly which
scenarios moved.

Usage::

    PYTHONPATH=src python tools/make_engine_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.facade import run_drain, run_point
from repro.network.config import SimConfig
from repro.runplan import canonical_record_json

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "engine_goldens.json"

#: warm-up / measurement window of every steady-state golden (cycles)
WARMUP = 400
MEASURE = 400
#: drain budget of every burst golden (cycles)
MAX_DRAIN = 200_000
SEED = 7

VCT_ROUTINGS = ("minimal", "valiant", "pb", "par62", "olm", "ofar")
WH_ROUTINGS = ("minimal", "rlm")
PATTERNS = ("uniform", "advg+1")
LOADS = (0.05, 0.4)


def _vct_config(routing: str) -> SimConfig:
    return SimConfig(h=2, routing=routing, flow_control="vct",
                     packet_phits=8, seed=SEED)


def _wh_config(routing: str) -> SimConfig:
    return SimConfig(h=2, routing=routing, flow_control="wh",
                     packet_phits=40, flit_phits=10, seed=SEED)


def scenario_matrix() -> list[dict]:
    """The pinned matrix; each entry fully describes one record."""
    entries: list[dict] = []
    for routing in VCT_ROUTINGS:
        for pattern in PATTERNS:
            for load in LOADS:
                entries.append({
                    "kind": "point",
                    "config": _vct_config(routing).to_dict(),
                    "pattern": pattern, "load": load,
                    "warmup": WARMUP, "measure": MEASURE,
                })
    for routing in WH_ROUTINGS:
        for pattern in PATTERNS:
            entries.append({
                "kind": "point",
                "config": _wh_config(routing).to_dict(),
                "pattern": pattern, "load": 0.2,
                "warmup": WARMUP, "measure": MEASURE,
            })
    # burst-drain goldens exercise run_until_drained (and, in the
    # timing-wheel engine, the idle-gap fast-forward; the "pb" entry
    # pins the per-cycle-hook gate that disables fast-forwarding)
    for routing, fc in (("olm", "vct"), ("pb", "vct"), ("rlm", "wh")):
        cfg = _vct_config(routing) if fc == "vct" else _wh_config(routing)
        entries.append({
            "kind": "drain",
            "config": cfg.to_dict(),
            "pattern": "uniform", "packets_per_node": 3,
            "max_cycles": MAX_DRAIN,
        })
    # saturated minimal-routing points on every fabric — the array
    # engine's target regime (PR 7).  Beyond-saturation Bernoulli load
    # keeps every router backlogged through the whole window, and the
    # burst entries drain a fully backpressured network; h=2 scale
    # keeps the suite fast while still filling every buffer class.
    for topology in ("dragonfly", "flattened_butterfly", "torus"):
        for fc in ("vct", "wh"):
            cfg = SimConfig(h=2, topology=topology, routing="minimal",
                            flow_control=fc, seed=SEED)
            entries.append({
                "kind": "point",
                "config": cfg.to_dict(),
                "pattern": "uniform", "load": 0.9,
                "warmup": WARMUP, "measure": MEASURE,
            })
            entries.append({
                "kind": "drain",
                "config": cfg.to_dict(),
                "pattern": "uniform", "packets_per_node": 8,
                "max_cycles": MAX_DRAIN,
            })
    # saturated + age arbitration + hop recording: pins the array
    # engine's age-ordered arbitration keys and hops_log prefill
    entries.append({
        "kind": "point",
        "config": SimConfig(h=2, routing="minimal", arbitration="age",
                            record_hops=True, seed=SEED).to_dict(),
        "pattern": "uniform", "load": 0.9,
        "warmup": WARMUP, "measure": MEASURE,
    })
    # batched-injection goldens (PR 9): Bernoulli-saturated points
    # whose patterns exercise every inject_batch code path — hotspot
    # and mixed draw extra uniforms per hit (the interleaved
    # destination-draw contract), shift is deterministic (fully
    # vectorized destinations) — plus a sparse-hotspot drain pinning
    # the allocator's sparse scan and its busy-timer gate, where only a
    # handful of ports hold flits.
    base = SimConfig(h=2, routing="minimal", flow_control="vct", seed=SEED)
    for pattern, load in (("hotspot", 0.85), ("shift", 0.9), ("mixed:40", 0.8)):
        entries.append({
            "kind": "point", "config": base.to_dict(),
            "pattern": pattern, "load": load,
            "warmup": WARMUP, "measure": MEASURE,
        })
    entries.append({
        "kind": "point",
        "config": SimConfig(h=2, routing="minimal", flow_control="wh",
                            packet_phits=40, flit_phits=10, seed=SEED).to_dict(),
        "pattern": "hotspot", "load": 0.6,
        "warmup": WARMUP, "measure": MEASURE,
    })
    entries.append({
        "kind": "drain", "config": base.to_dict(),
        "pattern": "hotspot", "packets_per_node": 5,
        "max_cycles": MAX_DRAIN,
    })
    return entries


def run_entry(entry: dict) -> dict:
    """Produce the record of one matrix entry through the public facade."""
    cfg = SimConfig.from_dict(entry["config"])
    if entry["kind"] == "point":
        return run_point(cfg, entry["pattern"], entry["load"],
                         entry["warmup"], entry["measure"])
    return run_drain(cfg, entry["pattern"], entry["packets_per_node"],
                     entry["max_cycles"])


def main() -> int:
    entries = scenario_matrix()
    for i, entry in enumerate(entries):
        entry["record"] = canonical_record_json(run_entry(entry))
        print(f"[{i + 1:2d}/{len(entries)}] {entry['config']['routing']:8s} "
              f"{entry['config']['flow_control']} {entry['kind']}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"seed_commit": "d7548dd", "entries": entries},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(entries)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
