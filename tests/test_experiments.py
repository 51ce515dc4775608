"""Experiment harness: plan-backed sweeps, registry, reporting, persistence."""

import json

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.presets import SCALES, get_scale
from repro.experiments.registry import ExperimentSpec
from repro.experiments.reporting import (
    format_result,
    load_result,
    save_result,
    summarize_saturation,
)
from repro.facade import run_point
from repro.network.config import paper_vct_config
from repro.runplan import RunPoint, RunSpec, execute, execute_points


def test_registry_covers_every_figure_and_table():
    expected = {
        "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
        "fig6a", "fig6b", "fig7a", "fig7b", "fig7c",
        "fig8a", "fig8b", "fig8c", "fig9a", "fig9b",
        "fig10", "fig11", "tab1", "trans1", "xtopo1",
    }
    assert set(EXPERIMENTS) == expected
    for spec in EXPERIMENTS.values():
        assert isinstance(spec, ExperimentSpec)
        assert spec.description


def test_scales_defined():
    for name in ("tiny", "smoke", "small", "paper"):
        assert name in SCALES
    assert get_scale("tiny").h == 2
    assert get_scale(SCALES["tiny"]) is SCALES["tiny"]
    with pytest.raises(ValueError):
        get_scale("galactic")


def test_run_point_record_shape():
    cfg = paper_vct_config(h=2, routing="minimal", seed=1)
    rec = run_point(cfg, "uniform", 0.2, warmup=400, measure=400)
    assert rec["routing"] == "minimal"
    assert rec["pattern"] == "uniform"
    assert rec["load"] == 0.2
    assert 0 < rec["throughput"] <= 0.25
    assert rec["mean_latency"] > 100


def test_load_sweep_monotone_low_loads():
    cfg = paper_vct_config(h=2, routing="minimal", seed=1)
    pts = execute(RunSpec(config=cfg, pattern="uniform", loads=(0.1, 0.3),
                          warmup=400, measure=400))
    assert [p["load"] for p in pts] == [0.1, 0.3]
    assert pts[1]["throughput"] > pts[0]["throughput"]


def test_threshold_points_group_by_coord():
    """One load sweep per misrouting threshold (Figs 10/11), one pool pass."""
    cfg = paper_vct_config(h=2, routing="rlm", seed=1)
    points = [RunPoint(config=cfg.with_(threshold=th), pattern="uniform",
                       load=0.2, warmup=300, measure=300,
                       coords=(("threshold", th),))
              for th in (0.3, 0.6)]
    recs = execute_points(points)
    assert [r["threshold"] for r in recs] == [0.3, 0.6]
    assert points[0].key() != points[1].key()  # the threshold is simulated


def test_run_experiment_tab1():
    res = run_experiment("tab1")
    rows = res["series"]["parity-sign"]
    assert len(rows) == 16
    assert sum(r["allowed"] for r in rows) == 10
    assert res["id"] == "tab1"


def test_run_experiment_unknown():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_run_experiment_smoke_figure():
    res = run_experiment("fig5a", scale="smoke", seed=2)
    assert res["metric"] == "throughput"
    assert set(res["series"]) == {"par62", "olm", "rlm", "minimal", "pb"}
    sat = summarize_saturation(res)
    assert all(v > 0 for v in sat.values())


def test_reporting_roundtrip(tmp_path):
    res = run_experiment("tab1")
    path = tmp_path / "sub" / "tab1.json"
    save_result(res, path)
    again = load_result(path)
    assert again["id"] == "tab1"
    assert json.loads(path.read_text())["metric"] == "allowed"
    text = format_result(res)
    assert "tab1" in text and "odd-" in text and "NO" in text


def test_format_result_numeric_table():
    res = {
        "id": "fig5a", "description": "demo", "scale": "tiny",
        "metric": "throughput",
        "series": {"olm": [{"load": 0.1, "throughput": 0.099}]},
    }
    text = format_result(res)
    assert "olm" in text and "0.099" in text


def test_figure_interrupt_carries_partial_series():
    from repro.experiments.figures import FigureInterrupted, sweep_vct_uniform
    from repro.experiments.registry import clear_cache

    clear_cache()

    def die_after_two(outcome):
        if outcome.completed >= 2:
            raise KeyboardInterrupt

    with pytest.raises(FigureInterrupted) as ei:
        sweep_vct_uniform(scale="tiny", loads=(0.1,), on_result=die_after_two)
    partial = ei.value.partial
    assert partial["partial"] is True
    assert sum(len(v) for v in partial["series"].values()) == 2
    assert isinstance(ei.value, KeyboardInterrupt)  # plain ^C handling works


def test_figure_runner_shard_restricts_and_labels():
    from repro.experiments.figures import sweep_vct_uniform
    from repro.experiments.registry import clear_cache

    clear_cache()
    full = sweep_vct_uniform(scale="tiny", loads=(0.1,))
    part0 = sweep_vct_uniform(scale="tiny", loads=(0.1,), shard="0/2")
    part1 = sweep_vct_uniform(scale="tiny", loads=(0.1,), shard=(1, 2))
    assert "shard" not in full
    assert part0["shard"] == "0/2" and part1["shard"] == "1/2"
    n = sum(len(v) for v in full["series"].values())
    n0 = sum(len(v) for v in part0["series"].values())
    n1 = sum(len(v) for v in part1["series"].values())
    assert n0 + n1 == n


def test_run_experiment_memo_ignores_on_result_callback():
    from repro.experiments.registry import _RUNNER_CACHE, clear_cache

    clear_cache()
    seen = []
    first = run_experiment("fig4a", scale="tiny", loads=(0.1,),
                           on_result=seen.append)
    assert seen  # the callback really streamed outcomes
    assert len(_RUNNER_CACHE) == 1
    again = run_experiment("fig4a", scale="tiny", loads=(0.1,))
    assert len(_RUNNER_CACHE) == 1  # same memo slot despite the callback
    assert again["series"] == first["series"]


def test_progress_printer_formats_outcomes():
    import io

    from repro.experiments.reporting import ProgressPrinter
    from repro.runplan import PointOutcome, RunPoint

    point = RunPoint(config=paper_vct_config(h=2, routing="minimal", seed=7),
                     pattern="uniform", load=0.25, warmup=10, measure=10,
                     coords=(("threshold", 0.4),))
    buf = io.StringIO()
    ticks = iter([0.0, 10.0])
    printer = ProgressPrinter(stream=buf, clock=lambda: next(ticks))
    printer(PointOutcome(index=0, point=point, record={}, error=None,
                         status="computed", attempts=1, completed=1, total=3))
    line = buf.getvalue().strip()
    assert line.startswith("[1/3]")
    assert "computed" in line and "seed=7" in line and "load=0.25" in line
    assert "threshold=0.4" in line
    assert "eta=20s" in line  # 10 s for 1 of 3 points -> 20 s left
