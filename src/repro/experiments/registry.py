"""The figure catalogue, and the one function that runs an entry.

One row per figure/table id: what it simulates (a plan builder from
:mod:`repro.experiments.figures`), which column it plots, its
description, its shape check and the paper's expectation.  Latency and
throughput figures that share a sweep (4a/5a, 7b/8b, ...) name the
*same builder object*, so they share one memo slot and ``run all``
simulates each sweep once.  Adding a figure is one row here plus one
builder there.

A builder says *what* to simulate; :func:`run_experiment` is the only
code that decides *how* — pool size, result cache, shard, progress
stream, memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.analysis.invariants import Check
from repro.experiments import figures, verify
from repro.experiments.presets import Scale, get_scale
from repro.runplan import aggregate_replicas, execute, parse_shard, series_map


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible element of the paper's evaluation."""

    id: str
    #: ``build(scale, seed, seeds, **opts) -> FigurePlan``
    build: Callable[..., figures.FigurePlan]
    #: the record column the figure plots
    metric: str
    description: str
    #: shape check: ``check(result) -> list[Check]``
    check: Callable[[dict], list[Check]]
    #: what the paper reports for this element
    expectation: str
    #: ``False``: nothing to simulate, ``build()`` is the finished payload
    simulated: bool = True


EXPERIMENTS: dict[str, ExperimentSpec] = {row.id: row for row in (
    ExperimentSpec("fig4a", figures.vct_uniform, "mean_latency",
                   "Latency vs offered load, UN, VCT (Fig 4a)",
                   verify.check_vct_uniform,
                   "PAR-6/2 ≳ OLM ≳ RLM > minimal > PB; adaptive pays latency at low load"),
    ExperimentSpec("fig4b", figures.vct_advg1, "mean_latency",
                   "Latency vs offered load, ADVG+1, VCT (Fig 4b)",
                   verify.check_vct_advg1,
                   "adaptive saturate later than Valiant/PB"),
    ExperimentSpec("fig4c", figures.vct_advgh, "mean_latency",
                   "Latency vs offered load, ADVG+h, VCT (Fig 4c)",
                   verify.check_vct_advgh,
                   "Valiant/PB capped near 1/h; adaptive well above"),
    ExperimentSpec("fig5a", figures.vct_uniform, "throughput",
                   "Accepted vs offered load, UN, VCT (Fig 5a)",
                   verify.check_vct_uniform,
                   "same sweep as 4a; paper: OLM +24.2% over PB under UN at h=8"),
    ExperimentSpec("fig5b", figures.vct_advg1, "throughput",
                   "Accepted vs offered load, ADVG+1, VCT (Fig 5b)",
                   verify.check_vct_advg1,
                   "adaptive > Valiant > PB under ADVG+1"),
    ExperimentSpec("fig5c", figures.vct_advgh, "throughput",
                   "Accepted vs offered load, ADVG+h, VCT (Fig 5c)",
                   verify.check_vct_advgh,
                   "paper (h=8): PAR/OLM ≈0.35, RLM ≈0.3, Valiant/PB <0.125"),
    ExperimentSpec("fig6a", figures.mixed_vct, "throughput",
                   "Throughput vs %global (ADVG+h/ADVL+1), VCT (Fig 6a)",
                   verify.check_mixed,
                   "paper at 0% global: OLM/PAR 0.79, RLM 0.61, PB ≈0.5"),
    ExperimentSpec("fig6b", figures.burst_vct, "drain_cycles",
                   "Burst consumption time vs %global, VCT (Fig 6b)",
                   verify.check_burst,
                   "paper: OLM ≈36%, RLM ≈42.5% of PB's drain time"),
    ExperimentSpec("fig7a", figures.wh_uniform, "mean_latency",
                   "Latency vs offered load, UN, WH (Fig 7a)",
                   verify.check_wh_uniform,
                   "PAR-6/2 best; RLM ≈ PB"),
    ExperimentSpec("fig7b", figures.wh_advg1, "mean_latency",
                   "Latency vs offered load, ADVG+1, WH (Fig 7b)",
                   verify.check_wh_adv,
                   "RLM/PAR above PB and Valiant"),
    ExperimentSpec("fig7c", figures.wh_advgh, "mean_latency",
                   "Latency vs offered load, ADVG+h, WH (Fig 7c)",
                   verify.check_wh_adv,
                   "gap to Valiant/PB grows for ADVG+h"),
    ExperimentSpec("fig8a", figures.wh_uniform, "throughput",
                   "Accepted vs offered load, UN, WH (Fig 8a)",
                   verify.check_wh_uniform,
                   "same sweep as 7a"),
    ExperimentSpec("fig8b", figures.wh_advg1, "throughput",
                   "Accepted vs offered load, ADVG+1, WH (Fig 8b)",
                   verify.check_wh_adv,
                   "paper: PAR highest, RLM close"),
    ExperimentSpec("fig8c", figures.wh_advgh, "throughput",
                   "Accepted vs offered load, ADVG+h, WH (Fig 8c)",
                   verify.check_wh_adv,
                   "local misrouting required"),
    ExperimentSpec("fig9a", figures.mixed_wh, "throughput",
                   "Throughput vs %global (ADVG+h/ADVL+1), WH (Fig 9a)",
                   partial(verify.check_mixed, mechs=figures.WH_MIX_MECHS),
                   "paper at 0%: PAR 0.59, RLM 0.54, PB 0.39; at 100%: 0.39/0.34/0.125"),
    ExperimentSpec("fig9b", figures.burst_wh, "drain_cycles",
                   "Burst consumption time vs %global, WH (Fig 9b)",
                   partial(verify.check_burst, olm_expected=None,
                           rlm_expected=0.43),
                   "paper: RLM ≈43% of PB's drain time"),
    ExperimentSpec("fig10", figures.threshold_uniform, "throughput",
                   "RLM threshold sweep, UN, VCT (Figs 10a/10b)",
                   verify.check_threshold_uniform,
                   "low thresholds win under UN"),
    ExperimentSpec("fig11", figures.threshold_advg1, "throughput",
                   "RLM threshold sweep, ADVG+1, VCT (Figs 11a/11b)",
                   verify.check_threshold_advg,
                   "high thresholds win under ADVG+1; 45% balanced"),
    ExperimentSpec("tab1", figures.table1, "allowed",
                   "Parity-sign hop combination table (Table I)",
                   verify.check_table1,
                   "Table I regenerated exactly", simulated=False),
    ExperimentSpec("xtopo1", figures.cross_topology, "throughput",
                   "Accepted vs offered load per fabric (Dragonfly / "
                   "flattened butterfly / 2-D torus), minimal & Valiant "
                   "at matched node counts, UN, VCT",
                   verify.check_cross_topology,
                   "not in the paper: the topology-agnostic engine routing the "
                   "same minimal/Valiant baselines over three fabrics at "
                   "matched node counts — fabric-independent orderings only"),
    ExperimentSpec("trans1", figures.burst_response, "recovery_cycles",
                   "Transient burst response: recovery time vs burst size "
                   "(load step, VCT; §II congestion dynamics)",
                   verify.check_burst_response,
                   "not in the paper: §II's congestion dynamics as a time series "
                   "— a burst stepped onto steady load drains fastest under "
                   "local-misrouting mechanisms"),
)}


class FigureInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-figure; ``partial`` holds the curves so far.

    A ``KeyboardInterrupt`` subclass, so existing interrupt handling
    (shells, test runners) is unchanged — but a consumer that wants the
    progressive results (the CLI emits them as a ``"partial": true``
    figure JSON) finds everything that landed before the interrupt,
    already aggregated and grouped per series.
    """

    def __init__(self, partial: dict) -> None:
        super().__init__("figure interrupted; partial records attached")
        self.partial = partial


#: finished figure payloads by *value* of everything that shapes them
#: (see :func:`run_experiment`); process-local
_MEMO: dict[tuple, dict] = {}


def clear_cache() -> None:
    """Drop memoized figure payloads (tests and long-lived processes)."""
    _MEMO.clear()


def run_experiment(exp_id: str, scale="tiny", seed: int = 1, *,
                   seeds: int = 1, jobs: int | None = 1, cache=None,
                   shard=None, on_result=None, **opts) -> dict:
    """Run one catalogue entry; returns its records plus metadata.

    ``scale`` / ``seed`` / ``seeds`` and ``opts`` (the figure's own grid
    override: ``loads``, ``percentages``, ``bursts``, ``thresholds``)
    say what to simulate and go to the entry's plan builder.  The rest
    is how, decided here and nowhere else: the whole figure executes in
    one :func:`~repro.runplan.execute` pass — ``jobs`` > 1 fans *all*
    curves over one process pool, ``cache`` replays already-computed
    points, ``shard`` restricts the pass to one partition of the plan,
    ``on_result`` sees every :class:`~repro.runplan.PointOutcome` as it
    lands.  An interrupt raises :class:`FigureInterrupted` carrying the
    partial figure instead of discarding the completed points — which
    are all checkpointed in ``cache`` anyway and replay for free on the
    next run.

    Finished payloads are memoized per process so that twins (fig5a
    after fig4a) reuse one sweep.  The key is built from *values*: the
    builder object, the :class:`Scale` itself (never its name — two
    scales sharing a name do not alias), ``seed``, ``seeds``, the
    normalised shard (``"0/2"`` ≡ ``(0, 2)``), the options with lists
    as tuples, and the cache location — filling ``cache`` is an effect
    the caller asked for, so a payload computed without it does not
    stand in for one with it.  ``jobs`` and ``on_result`` are *not* in
    the key: neither can change a record.  A partial (interrupted)
    figure is never memoized.
    """
    try:
        spec = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    stamp = {"id": exp_id, "metric": spec.metric,
             "description": spec.description}
    if not spec.simulated:
        return {**spec.build(), **stamp}
    if not isinstance(scale, Scale):
        scale = get_scale(scale)
    if shard is not None:
        shard = parse_shard(shard)
    if opts:
        opts = {k: tuple(v) if isinstance(v, list) else v
                for k, v in sorted(opts.items())}
    key = (spec.build, scale, seed, seeds, shard, tuple(opts.items()),
           cache if cache is None else str(getattr(cache, "root", cache)))
    memo = _MEMO.get(key)
    if memo is not None:
        return {**memo, **stamp}

    plan = spec.build(scale, seed, seeds, **opts)
    landed: list[dict] = []

    def collect(outcome) -> None:
        if outcome.record is not None:
            landed.append(outcome.record)
        if on_result is not None:
            on_result(outcome)

    def shaped(records, **extra) -> dict:
        body = {"pattern": plan.pattern, "scale": scale.name, "seeds": seeds,
                "series": series_map(records, plan.order), **extra}
        if shard is not None:
            body["shard"] = "{}/{}".format(*shard)
        return body

    try:
        records = execute(plan.specs, jobs=jobs, cache=cache,
                          aggregate=seeds > 1, shard=shard,
                          on_result=collect)
    except KeyboardInterrupt as e:
        done = aggregate_replicas(landed) if seeds > 1 else landed
        raise FigureInterrupted(shaped(done, partial=True)) from e
    memo = _MEMO[key] = shaped(records)
    return {**memo, **stamp}
