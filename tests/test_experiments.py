"""Experiment harness: plan-backed sweeps, registry, reporting, persistence."""

import json
from dataclasses import replace

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.presets import SCALES, Scale, get_scale
from repro.experiments.registry import (
    _MEMO,
    ExperimentSpec,
    FigureInterrupted,
    clear_cache,
)
from repro.experiments.reporting import (
    format_result,
    load_result,
    save_result,
)
from repro.experiments.verify import saturation
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
    assert all(saturation(pts) > 0 for pts in res["series"].values())


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
    clear_cache()

    def die_after_two(outcome):
        if outcome.completed >= 2:
            raise KeyboardInterrupt

    with pytest.raises(FigureInterrupted) as ei:
        run_experiment("fig4a", scale="tiny", loads=(0.1,),
                       on_result=die_after_two)
    partial = ei.value.partial
    assert partial["partial"] is True
    assert sum(len(v) for v in partial["series"].values()) == 2
    assert isinstance(ei.value, KeyboardInterrupt)  # plain ^C handling works
    assert not _MEMO  # a partial figure is never memoized


def test_figure_runner_shard_restricts_and_labels():
    clear_cache()
    full = run_experiment("fig4a", scale="tiny", loads=(0.1,))
    part0 = run_experiment("fig4a", scale="tiny", loads=(0.1,), shard="0/2")
    part1 = run_experiment("fig4a", scale="tiny", loads=(0.1,), shard=(1, 2))
    assert "shard" not in full
    assert part0["shard"] == "0/2" and part1["shard"] == "1/2"
    n = sum(len(v) for v in full["series"].values())
    n0 = sum(len(v) for v in part0["series"].values())
    n1 = sum(len(v) for v in part1["series"].values())
    assert n0 + n1 == n
    # both spellings of a shard are one memo slot
    assert len(_MEMO) == 3
    again = run_experiment("fig4a", scale="tiny", loads=(0.1,), shard=(0, 2))
    assert len(_MEMO) == 3 and again["series"] is part0["series"]


def test_run_experiment_memo_ignores_on_result_callback():
    clear_cache()
    seen = []
    first = run_experiment("fig4a", scale="tiny", loads=(0.1,),
                           on_result=seen.append)
    assert seen  # the callback really streamed outcomes
    assert len(_MEMO) == 1
    # neither a callback nor a pool size can change a record: same slot
    again = run_experiment("fig4a", scale="tiny", loads=(0.1,), jobs=2)
    assert len(_MEMO) == 1
    assert again["series"] is first["series"]


def test_run_experiment_memo_keys_on_the_scale_value_not_its_name():
    """Regression: two scales sharing a ``name`` used to alias — the
    second call returned the first call's (shorter-window) records."""
    clear_cache()
    starts = [
        run_experiment("fig4a", scale=replace(SCALES["smoke"], warmup=cycles,
                                              measure=cycles),
                       loads=(0.2,))["series"]["minimal"][0]["start_cycle"]
        for cycles in (100, 300)]
    assert starts == [100, 300]


def test_run_experiment_memo_takes_list_options():
    """Regression: ``loads=[0.2]`` raised ``TypeError: unhashable type``;
    a list now lands in the slot of its tuple spelling."""
    clear_cache()
    scale = SCALES["smoke"]
    quick = Scale(name="quick", h=2, warmup=60, measure=60,
                  loads_uniform=scale.loads_uniform,
                  loads_adversarial=scale.loads_adversarial,
                  burst_vct=2, burst_wh=1)
    as_list = run_experiment("fig4a", scale=quick, loads=[0.2])
    as_tuple = run_experiment("fig5a", scale=quick, loads=(0.2,))
    assert len(_MEMO) == 1 and as_list["series"] is as_tuple["series"]
    mixes = run_experiment("fig6b", scale=quick, percentages=[0, 100])
    assert [p["global_pct"] for p in mixes["series"]["pb"]] == [0, 100]
    run_experiment("fig6b", scale=quick, percentages=(0, 100))
    assert len(_MEMO) == 2


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
