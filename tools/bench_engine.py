#!/usr/bin/env python3
"""Benchmark the cycle-engine backends against each other.

Runs a pinned scenario set on the registered engines — the frozen seed
hot path (``reference``), the live timing-wheel object engine
(``wheel``) and the same simulator with the numpy structure-of-arrays
core attached where it wins the point (``auto``) — checks that
every emitted record is byte-identical across engines, and writes
``BENCH_engine.json`` with cycles/sec and per-scenario speedups.

Scenario families (all record-gated, speedup-gated where marked):

* ``low_load_probe_*`` / ``burst_drain_superstep_*`` — the PR-3 wheel
  gates: sparse traffic where the timing wheel's idle fast-forward is
  the whole story (>= 2x over the seed engine).
* ``saturated_burst_*`` — the PR-7 array-core gates: a fully
  backpressured fabric draining an adversarial-global burst at h=4
  scale (1056 nodes).  Every router stays busy, so the wheel pays a
  Python pass per active router per cycle while the array core does a
  fixed number of numpy kernel calls regardless of fabric size
  (>= 5x over the wheel).
* ``saturated_bernoulli_*`` — formerly honesty rows, now gated on the
  vct row (>= 4x over the wheel): the batched-injection protocol
  (``BernoulliTraffic.inject_batch``, a duck-typed method only the
  array core calls) lets the core consume a whole cycle's Bernoulli
  arrivals as (srcs, dsts) vectors, and the per-flit
  next-hop cache plus single-flit allocation fast path removed the
  remaining per-cycle numpy overhead.  The RNG stream is a contract
  every engine shares word for word (the core plans it a window of
  cycles at a time, ``StreamRandom.next_cycle``, and still pays for
  every Mersenne Twister word), which is why the gate is 4x rather
  than the drain rows' 5x.  Measured over a long
  steady window (warmup excluded) because walking the routes of a cold
  fabric otherwise dilutes the steady-state ratio.
* ``sparse_hotspot_backlog`` — the array core's worst case, reported
  and not gated: every node sends to one hot node, so after the first
  cycles a handful of routers hold all the flits.  The allocator scans
  the occupied ports only (it reads them from ``_ip_buffered``) and
  sleeps through the cycles in which every head waits on a serialising
  port, which keeps the row near parity — and no further: the pattern
  is off-paper (no figure, no ``bench_e2e`` workload, no served job
  draws it), the wheel is the engine for a backlog this thin, and the
  per-cycle caches that once bought the last few percent here taxed
  every saturated row.  The row's ``note`` carries the measured ratio.
* ``low_load_bernoulli`` / ``burst_drain_dense`` / ``mid_load`` /
  ``adversarial`` / ``saturated_uniform_par62_wh`` /
  ``adversarial_pb_vct`` — wheel-vs-seed context rows (see PR 3; the
  last two cover the mechanisms the paper's figures use beyond
  olm/rlm).  ``low_load_bernoulli_vct`` alone is gated (wheel >= 1x the
  seed engine): a near-idle window is all injection, the wheel's
  injection call is the seed engine's, and the row read 0.67x while
  the wheel still took batches it had to undo.  ``auto`` is not timed on them: an ineligible ``auto``
  point carries no core and runs the very functions ``wheel`` runs
  (``tests/test_engine_selection.py`` pins that structurally).

The ``auto`` engine is in the smoke matrix on every row, so CI proves
its records match on the array core and on the wheel alike.  Which of
the two an ``auto`` run took is printed with the row and stored as its
``engine_path`` (``Simulator.engine_path`` / ``engine_why``): ``auto``
decides at the first step, from the offered load
(``repro.network.corechoice``), and the h=2 fabrics of the smoke matrix
are the wheel's.  The smoke rows that exist to run on the core are
marked ``core_row``: two moved to h=3, where the rule sends them there,
and the two that need a thin backlog on a small fabric (the allocator's
sparse scan and its closed gate) pin the rule for exactly their
``auto`` runs (``pin_core``).  ``--smoke`` exits non-zero when a
``core_row`` ran on the wheel, ``--tap`` included: a hub reads what
both engines keep, so it leaves a core where it is.

* ``rule_*`` (full mode) — whole points either side of the rule's two
  constants: construction, warm-up and measurement inside the clock,
  CPU time, wheel and ``auto`` interleaved in one process on a warm
  fabric, best of ``--repeat`` x 3.  On the rows the rule gives to the
  wheel ``auto`` *is* a wheel run plus one decision, gated at
  ``speedup_auto_vs_wheel >= 0.95``; the rows it gives to the core are
  reported.

**Cold and warm fabrics.**  A process compiles a fabric once
(``repro.topology.fabric``) and the repeats of a row share this
process, so left alone the 2nd and 3rd repeat of an ``auto`` row would
quietly time a warm fabric — no layout to compile, no route to walk.
Every ``auto`` repeat is therefore run twice: with the memo cleared
first (what the row always measured; ``engines.auto`` and every gate
read this one, and ``cpu_s_cold_fabric`` is its CPU time) and again
with the fabric that run left behind (``cpu_s_warm_fabric``).  Both
records join the row's equality check, which is also how ``--smoke``
proves that a point on a borrowed fabric emits the bytes of a point on
its own.  ``second_point_same_fabric_*`` (minimal, uniform, 120 + 120
cycles at h=3 and h=4, construction inside the clock) is the number a
sweep cares about: the first point of a fresh process against its
replica on the now-warm fabric.  The array core (and numpy with it) is
imported before the first row, so no row's clock holds a one-time
import.

Speed gates are ``{"metric", "operator", "value"}`` targets; every
gated row reports ``gate_met`` and the report lists the misses, but a
miss is never a CI failure (CI machines are noisy).  Record equality
is always asserted.
``--smoke`` runs a short matrix over all engines and exits
non-zero on any record mismatch — the CI engine-equivalence gate —
when a ``core_row`` ran on the wheel (a ``rule_*`` row on the engine
the rule does not give it to, in full mode),
or when ``wheel`` and ``reference`` leave ``rng_route`` in different
states: the wheel's stall-aware head retry may only skip ``decide``
calls that draw no random number.

Usage::

    PYTHONPATH=src python tools/bench_engine.py              # full bench
    PYTHONPATH=src python tools/bench_engine.py --smoke      # CI gate
    PYTHONPATH=src python tools/bench_engine.py --engine auto
    PYTHONPATH=src python tools/bench_engine.py --profile --engine auto
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import operator
import os
import random
import time
from pathlib import Path

from repro.facade import Session, point_record
from repro.network import corechoice
from repro.network.config import SimConfig
from repro.network.simulator import build_simulator
from repro.runplan import canonical_record_json
from repro.topology.fabric import clear_fabrics
from repro.traffic.extra import TraceReplay
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BurstTraffic

SEED = 11

ENGINE_NAMES = ("reference", "wheel", "auto")
GATE_OPERATORS = {">=": operator.ge}
#: why ``sparse_hotspot_backlog`` carries no speed target; ``{ratio}`` is
#: the row's own measured auto-vs-wheel speedup
HOTSPOT_NOTE = (
    "auto runs {ratio:.2f}x the wheel here, reported and not gated: an "
    "off-paper pattern (no figure, bench_e2e workload or served job draws "
    "it) on which a handful of routers hold every flit, so the wheel is "
    "the engine for it; the allocator scans the occupied ports only and "
    "sleeps through serialising cycles, and keeps no cache to go further")


def _at_least(times: float, engine: str, baseline: str) -> dict:
    """Speed target: ``engine`` runs >= ``times`` x ``baseline``."""
    return {"metric": f"speedup_{engine}_vs_{baseline}", "operator": ">=",
            "value": times}


def _cfg(fc: str, routing: str, **over) -> dict:
    base = dict(h=2, routing=routing, seed=SEED, flow_control=fc)
    if fc == "wh":
        base.update(packet_phits=40, flit_phits=10)
    base.update(over)
    return base


@contextlib.contextmanager
def _rule_pinned(pin: bool):
    """``auto``'s offered-load rule answering "the core wins" (``pin_core`` rows)."""
    real = corechoice.core_wins
    if pin:
        corechoice.core_wins = lambda *point: (True, "pinned by bench_engine")
    try:
        yield
    finally:
        corechoice.core_wins = real


def _uniform_trace(topo, cycles_and_sources, rng_seed: int) -> list[tuple]:
    """(cycle, src, uniform dst) records; deterministic per rng_seed."""
    rng = random.Random(rng_seed)
    n = topo.num_nodes
    records = []
    for cycle, src in cycles_and_sources:
        d = rng.randrange(n - 1)
        d = d if d < src else d + 1
        records.append((cycle, src, d))
    return records


def scenarios(smoke: bool) -> list[dict]:
    w, m = (600, 600) if smoke else (3000, 3000)
    probes = 24 if smoke else 144
    steps = 2 if smoke else 4
    gated = [
        dict(name="low_load_probe_vct", kind="probe", cfg=_cfg("vct", "olm"),
             spacing=131, probes=probes, gate=_at_least(2, "wheel", "reference"),
             engines=("reference", "wheel")),
        dict(name="burst_drain_superstep_vct", kind="superstep",
             cfg=_cfg("vct", "olm"), period=5000, steps=steps,
             packets_per_node=1, gate=_at_least(2, "wheel", "reference"),
             engines=("reference", "wheel")),
    ]
    if smoke:
        # the CI gate: short windows, every engine on every row —
        # including saturated minimal-routing rows that actually run on
        # the array core (on olm rows ``auto`` is a plain wheel run): at
        # h=3, where the offered-load rule sends a burst (judged at load
        # 1.0: 42.8 flits a cycle) and a saturated wormhole window (30.8)
        # to the core under both of its constants
        gated[0]["engines"] = gated[1]["engines"] = ENGINE_NAMES
        return gated + [
            dict(name="saturated_burst_vct_h3", kind="drain",
                 cfg=_cfg("vct", "minimal", h=3), pattern="advg+1",
                 packets_per_node=2, max_cycles=200_000, gate=None,
                 engines=ENGINE_NAMES, core_row=True),
            dict(name="saturated_bernoulli_wh_h3", kind="point",
                 cfg=_cfg("wh", "minimal", h=3), pattern="uniform", load=0.9,
                 warmup=100, measure=100, gate=None, engines=ENGINE_NAMES,
                 core_row=True),
            # the three consumers of the core's injection plan, each over
            # a few dozen plan windows: UN's chained draws, a
            # deterministic pattern's bare gates, ADVG's generic walker
            *(dict(name=f"plan_windows_{pattern.split('+')[0]}_vct_h3",
                   kind="point", cfg=_cfg("vct", "minimal", h=3),
                   pattern=pattern, load=load, warmup=200, measure=200,
                   gate=None, engines=ENGINE_NAMES, core_row=True)
              for pattern, load in (("uniform", 0.9), ("shift", 0.9),
                                    ("advg+1", 0.3))),
            # multi-flit *and* repeated sources, which neither row above
            # enqueues: a burst's packets share their nodes' injection VCs
            dict(name="saturated_burst_wh_h3", kind="drain",
                 cfg=_cfg("wh", "minimal", h=3), pattern="advg+1",
                 packets_per_node=2, max_cycles=200_000, gate=None,
                 engines=ENGINE_NAMES, core_row=True),
            # ... and the two rows that take the allocator's other ways:
            # the sparse scan (few occupied ports) and the closed gate.
            # They need a thin backlog on a small fabric, which the rule
            # gives to the wheel, so their ``auto`` runs pin it
            dict(name="light_bernoulli_vct", kind="point",
                 cfg=_cfg("vct", "minimal"), pattern="uniform", load=0.05,
                 warmup=200, measure=400, gate=None, engines=ENGINE_NAMES,
                 core_row=True, pin_core=True),
            dict(name="sparse_hotspot_backlog_h2", kind="drain",
                 cfg=_cfg("vct", "minimal"), pattern="hotspot",
                 pattern_kwargs={"hot_node": 0}, packets_per_node=5,
                 max_cycles=200_000, gate=None, engines=ENGINE_NAMES,
                 core_row=True, pin_core=True),
            # an h=2 window under the real rule: ``auto`` goes to the
            # wheel through the undecided stand-in
            dict(name="saturated_bernoulli_vct_h2_rule", kind="point",
                 cfg=_cfg("vct", "minimal"), pattern="uniform", load=0.9,
                 warmup=200, measure=200, gate=None, engines=ENGINE_NAMES),
            *figure_mechanism_rows(200, 200),
        ]
    return gated + [
        dict(name="low_load_probe_wh", kind="probe", cfg=_cfg("wh", "rlm"),
             spacing=131, probes=probes, gate=_at_least(2, "wheel", "reference"),
             engines=("reference", "wheel")),
        dict(name="burst_drain_superstep_wh", kind="superstep",
             cfg=_cfg("wh", "rlm"), period=5000, steps=steps,
             packets_per_node=1, gate=_at_least(2, "wheel", "reference"),
             engines=("reference", "wheel")),
        # ---- PR-7 array-core gates: saturated drains at h=4 scale.
        # The reference engine is omitted on the h=4 rows (several
        # minutes per repetition adds nothing: the wheel is already
        # record-gated against it on every other row).
        dict(name="saturated_burst_advg_vct_h4", kind="drain",
             cfg=_cfg("vct", "minimal", h=4), pattern="advg+1",
             packets_per_node=40, max_cycles=500_000,
             gate=_at_least(5, "auto", "wheel"), engines=("wheel", "auto"),
             repeat=1),
        dict(name="saturated_burst_advg_wh_h4", kind="drain",
             cfg=_cfg("wh", "minimal", h=4), pattern="advg+1",
             packets_per_node=15, max_cycles=500_000,
             gate=_at_least(5, "auto", "wheel"), engines=("wheel", "auto"),
             repeat=1),
        # ---- PR-9 array-core gates: the two former honesty rows.
        # The Bernoulli row measures a long steady window: on a cold
        # fabric the array core pays ~0.5s of route walks (Python, one
        # per hot router pair) that would dilute the steady-state
        # ratio the row exists to report — per-cycle it runs ~4.5-5x
        # the wheel at this saturation.
        dict(name="saturated_bernoulli_vct_h3", kind="point",
             cfg=_cfg("vct", "minimal", h=3), pattern="uniform", load=0.9,
             warmup=1000, measure=15000, gate=_at_least(4, "auto", "wheel"),
             engines=("wheel", "auto"), repeat=4),
        dict(name="saturated_burst_uniform_vct_h3", kind="drain",
             cfg=_cfg("vct", "minimal", h=3), pattern="uniform",
             packets_per_node=200, max_cycles=500_000, gate=None,
             engines=("wheel", "auto"), repeat=2),
        dict(name="sparse_hotspot_backlog", kind="drain",
             cfg=_cfg("vct", "minimal", h=3), pattern="hotspot",
             pattern_kwargs={"hot_node": 0}, packets_per_node=5,
             max_cycles=500_000, gate=None, note=HOTSPOT_NOTE,
             engines=("wheel", "auto"), repeat=4),
        # ---- what the second point on a fabric saves (ungated): the
        # first point compiles the fabric, its replica borrows it
        *(dict(name=f"second_point_same_fabric_h{h}", kind="second_point",
               cfg=_cfg("vct", "minimal", h=h), pattern="uniform", load=0.7,
               warmup=120, measure=120, gate=None, engines=("wheel", "auto"))
          for h in (3, 4)),
        # ---- either side of ``auto``'s offered-load rule
        # (``repro.network.corechoice``: the array core from 10 offered
        # flits a cycle under VCT, 18 under WH).  Whole points, CPU time,
        # interleaved on a warm fabric (``_rule_row``); the rows the rule
        # gives to the wheel are gated: ``auto`` there is a wheel run
        # plus one decision
        *(dict(name=f"rule_{fc}_h{h}_load{load}", kind="rule",
               cfg=_cfg(fc, "minimal", h=h,
                        **({"packet_phits": 80} if fc == "wh" else {})),
               pattern=pattern, load=load,
               warmup=120, measure=120, path=path,
               gate=_at_least(0.95, "auto", "wheel") if path == "wheel" else None,
               engines=("wheel", "auto"))
          # the presets ``repro sweep`` runs: 8-phit VCT packets, 80-phit
          # WH packets in 10-phit flits
          for fc, h, pattern, load, path in (
              ("vct", 2, "uniform", 1.0, "wheel"),   # 9.0 flits a cycle
              ("vct", 3, "uniform", 0.2, "wheel"),   # 8.6
              ("vct", 3, "uniform", 0.4, "core"),    # 17.1
              ("vct", 4, "uniform", 0.1, "core"),    # 13.2
              ("wh", 3, "advg+1", 0.1, "wheel"),     # 3.4
              ("wh", 4, "uniform", 0.1, "wheel"),    # 10.6
          )),
        # ---- wheel-vs-seed context rows (PR 3).  The first is gated
        # since PR 18: injection is all a near-idle Bernoulli window
        # does, and the wheel injects exactly as the seed engine does
        dict(name="low_load_bernoulli_vct", kind="point", cfg=_cfg("vct", "olm"),
             pattern="uniform", load=0.02, warmup=w, measure=m,
             gate=_at_least(1, "wheel", "reference"),
             engines=("reference", "wheel")),
        dict(name="burst_drain_dense_vct", kind="drain", cfg=_cfg("vct", "olm"),
             pattern="uniform", packets_per_node=10, max_cycles=500_000,
             gate=None, engines=("reference", "wheel")),
        dict(name="burst_drain_dense_wh", kind="drain", cfg=_cfg("wh", "rlm"),
             pattern="uniform", packets_per_node=4, max_cycles=500_000,
             gate=None, engines=("reference", "wheel")),
        dict(name="mid_load_vct", kind="point", cfg=_cfg("vct", "olm"),
             pattern="uniform", load=0.4, warmup=w, measure=m, gate=None,
             engines=("reference", "wheel")),
        dict(name="adversarial_vct", kind="point", cfg=_cfg("vct", "olm"),
             pattern="advg+1", load=0.3, warmup=w, measure=m, gate=None,
             engines=("reference", "wheel")),
        *figure_mechanism_rows(w, m),
    ]


def figure_mechanism_rows(warmup: int, measure: int) -> list[dict]:
    """Ungated wheel-vs-seed rows for what the figures run beyond olm/rlm."""
    return [
        dict(name="saturated_uniform_par62_wh", kind="point",
             cfg=_cfg("wh", "par62"), pattern="uniform", load=0.9,
             warmup=warmup, measure=measure, gate=None,
             engines=("reference", "wheel")),
        dict(name="adversarial_pb_vct", kind="point", cfg=_cfg("vct", "pb"),
             pattern="advg+1", load=0.3, warmup=warmup, measure=measure,
             gate=None, engines=("reference", "wheel")),
    ]


def _timed(fn) -> tuple[tuple[float, float], object]:
    """((wall, CPU) seconds, result) of ``fn()`` with the cyclic GC parked.

    Collect before the clock starts and disable the collector while it
    runs: GC pauses otherwise land in one engine's window and tilt the
    near-parity ratios (the sparse-hotspot row) by a few percent.
    """
    gc.collect()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn()
        return (time.perf_counter() - wall, time.process_time() - cpu), result
    finally:
        gc.enable()


def run_scenario(sc: dict, engine: str, with_tap: bool = False) -> tuple:
    """(``[(wall, CPU) seconds]``, cycles simulated, canonical record,
    final ``rng_route`` state, ``"engine_path: engine_why"``) for one
    engine name; a ``second_point`` scenario times two points and its
    list has two entries.

    Every row runs through a :class:`~repro.facade.Session`, so every
    engine, ``reference`` included, is timed watched by the session's
    own MetricsHub (one boundary sampler, one delivery observer).
    ``with_tap`` attaches a second MetricsHub and a LatencyTap
    (:func:`_instrument`) before the run — the instrumentation-overhead
    gate: the emitted record must stay byte-identical to the reference
    engine's, which carries the session's hub alone.
    """
    with _rule_pinned(engine == "auto" and sc.get("pin_core", False)):
        return _run_scenario(sc, engine, with_tap)


def _instrument(sim) -> None:
    """Attach a MetricsHub (a second boundary sampler and delivery
    observer, beside the Session's own hub) and a LatencyTap (a third
    delivery observer)."""
    from repro.metrics.hub import LatencyTap, MetricsHub

    MetricsHub(sim, bucket=500)
    LatencyTap(sim)


def _ran_on(sim) -> str:
    return f"{sim.engine_path}: {sim.engine_why}"


def _run_scenario(sc: dict, engine: str, with_tap: bool) -> tuple:
    cfg = SimConfig(**sc["cfg"])  # the record's config: engine-free
    kind = sc["kind"]
    if kind == "second_point":
        return _second_point(sc, cfg, engine, with_tap)
    session = Session(sim=build_simulator(cfg.with_(engine=engine)))
    sim = session.sim
    if with_tap:
        _instrument(sim)
    if kind == "point":
        # Warm-up is outside the clock: steady-state rows compare the
        # engines' per-cycle rate, not one-time setup (on a cold fabric
        # the array core walks its routes during the first injected cycles).
        session.bernoulli(sc["pattern"], sc["load"]).warmup(sc["warmup"])
        elapsed, result = _timed(lambda: session.measure(sc["measure"]))
        record = point_record(result, cfg, pattern=sc["pattern"], load=sc["load"])
    elif kind == "drain":
        pattern = pattern_by_name(sc["pattern"], sim.topo,
                                  **sc.get("pattern_kwargs", {}))
        session.with_traffic(BurstTraffic(pattern, sc["packets_per_node"]))
        elapsed, result = _timed(lambda: session.drain(sc["max_cycles"]))
        record = point_record(result, cfg, pattern=sc["pattern"],
                              packets_per_node=sc["packets_per_node"])
    elif kind == "probe":
        n = sim.topo.num_nodes
        pairs = [(i * sc["spacing"], (i * 5) % n) for i in range(sc["probes"])]
        sim.traffic = TraceReplay(_uniform_trace(sim.topo, pairs, SEED))
        elapsed, result = _timed(lambda: session.drain(500_000))
        record = result.to_dict()
    else:  # superstep
        n = sim.topo.num_nodes
        pairs = [(s * sc["period"], node)
                 for s in range(sc["steps"]) for node in range(n)
                 for _ in range(sc["packets_per_node"])]
        sim.traffic = TraceReplay(_uniform_trace(sim.topo, pairs, SEED))
        elapsed, result = _timed(lambda: session.measure(sc["steps"] * sc["period"]))
        record = result.to_dict()
    cycles = sim.now - (sc["warmup"] if kind == "point" else 0)
    return ([elapsed], cycles, canonical_record_json(record),
            sim.rng_route.getstate(), _ran_on(sim))


def _whole_point(sc: dict, config: SimConfig, engine: str,
                 with_tap: bool = False) -> tuple:
    """``(simulator, record)`` of one steady point of ``sc`` on ``engine``,
    construction included: what the callers put inside the clock."""
    session = Session(sim=build_simulator(config.with_(engine=engine)))
    if with_tap:
        _instrument(session.sim)
    session.bernoulli(sc["pattern"], sc["load"]).warmup(sc["warmup"])
    return session.sim, point_record(
        session.measure(sc["measure"]), config, pattern=sc["pattern"],
        load=sc["load"])


def _second_point(sc: dict, cfg: SimConfig, engine: str, with_tap: bool) -> tuple:
    """A point and its replica (the next seed), each timed whole —
    construction, warm-up and measurement — and back to back: under
    ``auto`` the replica borrows the fabric the point compiled.  The
    record is both points' records."""
    first, (_, record) = _timed(
        lambda: _whole_point(sc, cfg, engine, with_tap))
    second, (sim, replica) = _timed(
        lambda: _whole_point(sc, cfg.with_(seed=cfg.seed + 1), engine, with_tap))
    return ([first, second], sim.now,
            canonical_record_json({"point": record, "replica": replica}),
            sim.rng_route.getstate(), _ran_on(sim))


def _rule_row(sc: dict, repeat: int) -> dict:
    """One ``rule_*`` row of the report.

    A whole point — construction, warm-up, measurement — on ``wheel``
    and on ``auto``, interleaved in this process with the order
    alternating, CPU time, best of ``repeat``; the fabric is warm from
    the first pass on, as it is for every point of a sweep but the first.
    """
    cfg = SimConfig(**sc["cfg"])
    best: dict[str, float] = {}
    recs: dict[str, str] = {}
    ran_on = ""
    for rep in range(repeat + 1):  # pass 0 warms the fabric, untimed
        for name in ("wheel", "auto") if rep % 2 else ("auto", "wheel"):
            (_, cpu), (sim, record) = _timed(
                lambda: _whole_point(sc, cfg, name))
            recs[name] = canonical_record_json(record)
            if name == "auto":
                ran_on = _ran_on(sim)
            if rep:
                best[name] = min(best.get(name, cpu), cpu)
    cycles = sc["warmup"] + sc["measure"]
    return {
        "scenario": sc["name"],
        "gate": sc["gate"],
        "cycles": cycles,
        "clock": "CPU s of a whole point (construction + warm-up + "
                 "measurement), wheel / auto interleaved, warm fabric",
        "engines": {name: {"seconds": round(s, 4),
                           "cycles_per_sec": round(cycles / s, 1)}
                    for name, s in best.items()},
        "records_identical": recs["wheel"] == recs["auto"],
        "speedup_auto_vs_wheel": round(best["wheel"] / best["auto"], 3),
        "engine_path": ran_on,
        "rule_expected_path": sc["path"],
    }


def _previous_rows(path: str | None) -> dict[str, dict]:
    """Scenario rows of the report about to be overwritten, by name."""
    if not path or not Path(path).exists():
        return {}
    return {row["scenario"]: row
            for row in json.loads(Path(path).read_text()).get("scenarios", [])}


def _denominator_note(row: dict, before: dict | None) -> str | None:
    """Why an auto-vs-wheel ratio fell, when it is not the array core's doing.

    The ratio's denominator is the wheel: a faster wheel shrinks it even
    when the array core runs exactly as fast as it did.  Within 5 %
    (run-to-run noise of these rows) counts as "did not fall".
    """
    old_ratio = (before or {}).get("speedup_auto_vs_wheel")
    if old_ratio is None or row["speedup_auto_vs_wheel"] >= old_ratio:
        return None
    old, new = before["engines"], row["engines"]
    auto_old, auto_new = (e["auto"]["cycles_per_sec"] for e in (old, new))
    wheel_old, wheel_new = (e["wheel"]["cycles_per_sec"] for e in (old, new))
    if auto_new < 0.95 * auto_old or wheel_new <= wheel_old:
        return None
    return (f"auto/wheel fell {old_ratio:.2f} -> "
            f"{row['speedup_auto_vs_wheel']:.2f} because the wheel (the "
            f"denominator) rose {wheel_old:.0f} -> {wheel_new:.0f} cycles/s; "
            f"auto cycles/s did not fall ({auto_old:.0f} -> {auto_new:.0f})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="short matrix, all engines, no report file "
                         "unless --out is given (the CI equivalence gate)")
    ap.add_argument("--engine", choices=(*ENGINE_NAMES, "all"), default="all",
                    help="time only this engine (records are still "
                         "cross-checked against every other engine the "
                         "scenario lists); default: all")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions per scenario (best-of, default 3)")
    ap.add_argument("--profile", action="store_true",
                    help="after timing, run each timed engine once more "
                         "under cProfile and print the top 10 functions "
                         "by cumulative time (profiled runs are never "
                         "used for the timings in the report)")
    ap.add_argument("--tap", action="store_true",
                    help="attach a second MetricsHub and a LatencyTap to "
                         "the non-reference engines (every row already runs "
                         "under its Session's hub): records must stay "
                         "byte-identical to the seed engine's (the "
                         "instrumentation-overhead gate)")
    ap.add_argument("--out", default=None,
                    help="report path (default BENCH_engine.json; smoke: none)")
    args = ap.parse_args(argv)

    out = args.out or (None if args.smoke else "BENCH_engine.json")
    previous = _previous_rows(out)
    # the process's first core point would otherwise pay the one-time
    # numpy and array-core imports inside its clock, and a one-run
    # ``--smoke`` row would read that cost as the core losing the point
    import repro.network.arraysim  # noqa: F401
    rows, mismatches, rng_drift, missed, off_core = [], [], [], [], []
    for sc in scenarios(args.smoke):
        if sc["kind"] == "rule":
            if args.engine != "all":
                continue  # a ratio of two engines: nothing to time alone
            row = _rule_row(sc, 3 * args.repeat)
            if not row["records_identical"]:
                mismatches.append(sc["name"])
            if not row["engine_path"].startswith(sc["path"] + ":"):
                off_core.append(sc["name"])
            if sc["gate"] is not None:
                row["gate_met"] = row["speedup_auto_vs_wheel"] >= sc["gate"]["value"]
                if not row["gate_met"]:
                    missed.append(sc["name"])
            rows.append(row)
            cpu = {n: e["seconds"] for n, e in row["engines"].items()}
            verdict = {True: "  gate met", False: "  GATE MISSED"}.get(
                row.get("gate_met"), "")
            print(f"{sc['name']:30s} {row['cycles']:7d} cyc  whole point, "
                  f"CPU s: wheel {cpu['wheel']:.4f}  auto {cpu['auto']:.4f}  "
                  f"auto/wheel x{row['speedup_auto_vs_wheel']:5.2f}  "
                  f"{'OK' if row['records_identical'] else 'RECORD MISMATCH'}"
                  f"{verdict}\n{'':30s} auto ran on {row['engine_path']}")
            continue
        repeat = 1 if args.smoke else max(1, sc.get("repeat", args.repeat))
        engines = sc["engines"]
        timed = engines if args.engine == "all" else tuple(
            e for e in engines if e == args.engine)
        secs: dict[str, float] = {}
        #: best CPU seconds of the ``auto`` runs, by fabric state
        fabric_cpu: dict[str, float] = {}
        recs: dict[str, str] = {}
        rng_states: dict[str, tuple] = {}
        ran_on = None  # which way ``auto`` went, and why
        cycles = 0
        # rep-major order: each repetition cycles through every engine,
        # so slow drift of the host machine (frequency scaling, noisy
        # neighbours) biases all engines alike instead of whichever one
        # happened to run last — and the within-rep order rotates each
        # repetition, because under monotone drift a fixed order still
        # systematically taxes the engine in the last slot (visible as
        # a few percent on the near-parity rows); untimed
        # engines still run once for the record cross-check
        reps_of = {name: repeat if name in timed else 1 for name in engines}
        for rep in range(max(reps_of.values())):
            k = rep % len(engines)
            for name in engines[k:] + engines[:k]:
                if rep >= reps_of[name]:
                    continue
                tap = args.tap and name != "reference"
                clear_fabrics()  # every run compiles its own fabric ...
                times, cycles, recs[name], rng_states[name], path = run_scenario(
                    sc, name, with_tap=tap)
                if name == "auto":
                    ran_on = path
                    if len(times) == 1:  # ... and ``auto`` reruns on the one it left
                        warm, _, recs["auto, warm fabric"], _, _ = run_scenario(
                            sc, name, with_tap=tap)
                        times += warm
                    for state, (_, cpu) in zip(("cold", "warm"), times):
                        fabric_cpu[state] = min(fabric_cpu.get(state, cpu), cpu)
                if name in timed:
                    secs[name] = min(secs.get(name, times[0][0]), times[0][0])
        if args.profile:
            import cProfile
            import pstats

            for name in timed:
                prof = cProfile.Profile()
                prof.enable()
                run_scenario(sc, name,
                             with_tap=args.tap and name != "reference")
                prof.disable()
                print(f"--- profile: {sc['name']} / {name} ---")
                pstats.Stats(prof).sort_stats("cumulative").print_stats(10)
        identical = len(set(recs.values())) == 1
        if not identical:
            mismatches.append(sc["name"])
        # the wheel skips ``decide`` calls it knows to be RNG-free refusals;
        # the seed engine makes every one of them, so equal final states
        # mean equally many ``rng_route`` draws
        if ({"wheel", "reference"} <= rng_states.keys()
                and rng_states["wheel"] != rng_states["reference"]):
            rng_drift.append(sc["name"])
        row = {
            "scenario": sc["name"],
            "gate": sc["gate"],
            "cycles": cycles,
            "engines": {name: {"seconds": round(s, 4),
                               "cycles_per_sec": round(cycles / s, 1)}
                        for name, s in secs.items()},
            "records_identical": identical,
        }
        if ran_on is not None:
            row["engine_path"] = ran_on
            if sc.get("core_row") and not ran_on.startswith("core:"):
                off_core.append(sc["name"])
        if "reference" in secs and "wheel" in secs:
            row["speedup_wheel_vs_reference"] = round(
                secs["reference"] / secs["wheel"], 3)
        if "wheel" in secs and "auto" in secs:
            row["speedup_auto_vs_wheel"] = round(
                secs["wheel"] / secs["auto"], 3)
            notes = (sc.get("note", "").format(
                         ratio=row["speedup_auto_vs_wheel"]),
                     _denominator_note(row, previous.get(sc["name"])))
            if any(notes):
                row["note"] = "; ".join(filter(None, notes))
        if "auto" in secs:
            row["cpu_s_cold_fabric"] = round(fabric_cpu["cold"], 4)
            row["cpu_s_warm_fabric"] = round(fabric_cpu["warm"], 4)
            row["speedup_warm_vs_cold_fabric"] = round(
                fabric_cpu["cold"] / fabric_cpu["warm"], 3)
        gate = sc["gate"]
        if gate is not None and gate["metric"] in row:
            row["gate_met"] = GATE_OPERATORS[gate["operator"]](
                row[gate["metric"]], gate["value"])
            if not row["gate_met"]:
                missed.append(sc["name"])
        rows.append(row)
        cps = {n: cycles / s for n, s in secs.items()}
        perf = "  ".join(f"{n} {v:10.0f} cyc/s" for n, v in cps.items())
        ratios = "  ".join(
            f"{num}/{den} x{row[f'speedup_{num}_vs_{den}']:5.2f} "
            f"({cps[num]:.0f}/{cps[den]:.0f})"
            for num, den in (("wheel", "reference"), ("auto", "wheel"))
            if f"speedup_{num}_vs_{den}" in row)
        if "auto" in secs:
            ratios += (f"  fabric cold {fabric_cpu['cold']:.3f} / warm "
                       f"{fabric_cpu['warm']:.3f} CPU s")
        verdict = {True: "  gate met", False: "  GATE MISSED"}.get(
            row.get("gate_met"), "")
        print(f"{sc['name']:30s} {cycles:7d} cyc  {perf}  {ratios}  "
              f"{'OK' if identical else 'RECORD MISMATCH'}{verdict}")
        if ran_on is not None:
            print(f"{'':30s} auto ran on {ran_on}")
        if "note" in row:
            print(f"{'':30s} note: {row['note']}")

    report = {
        "bench": "engine-backends",
        "mode": "smoke" if args.smoke else "full",
        "engine_filter": args.engine,
        "tap_attached": args.tap,
        "repeat": args.repeat,
        "cpu_count": os.cpu_count(),
        "scenarios": rows,
        "gates_missed": missed,
        "gate": "records byte-identical across engines on every scenario; "
                "speed targets per row in 'gate' as {metric, operator, "
                "value}, evaluated into 'gate_met' and summarised in "
                "'gates_missed' (wheel >= 2x the seed engine on sparse "
                "rows and >= 1x on the low-load Bernoulli window, auto >= "
                "5x the wheel on saturated h=4 drains, >= 4x "
                "on the saturated Bernoulli steady window; the "
                "sparse-hotspot row is reported, not gated; auto >= 0.95x "
                "the wheel on the rule_* rows the offered-load rule gives "
                "to the wheel, which are whole points in CPU seconds, "
                "wheel and auto interleaved on a warm fabric); "
                "'engine_path' is the way an auto run went and the clause "
                "that sent it there; a row's "
                "'note' says why it is not gated, or when an "
                "auto-vs-wheel ratio fell below the previous report's only "
                "because the wheel, its denominator, got faster; every "
                "engine time and gate is a run that compiled its own "
                "fabric (memo cleared first), 'cpu_s_cold_fabric' / "
                "'cpu_s_warm_fabric' are auto's CPU seconds on that run "
                "and on a rerun borrowing the fabric it left (on the "
                "second_point_same_fabric rows: a whole point, "
                "construction included, and its replica)",
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if missed:
        print(f"speed gates missed (reported, never a failure): {missed}")
    if mismatches:
        print(f"ERROR: record mismatch in {mismatches}", flush=True)
    if rng_drift:
        print(f"ERROR: wheel and reference drew differently from rng_route "
              f"in {rng_drift}", flush=True)
    if off_core:
        print(f"ERROR: auto took the other engine path than the row lists "
              f"in {off_core}", flush=True)
    return 1 if mismatches or rng_drift or off_core else 0


if __name__ == "__main__":
    raise SystemExit(main())
