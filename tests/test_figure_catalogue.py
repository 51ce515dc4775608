"""The figure catalogue: what every id simulates, and that every id runs.

Three things are pinned here.

* **Plan manifest** — ``tests/data/figure_plans.json`` holds, for every
  simulated id × scale ∈ {smoke, tiny, small} × seeds ∈ {1, 3} (plus a
  few option overrides), the ``pattern`` label, the legend order and a
  sha256 over the ordered ``(point.key(), series, coords)`` list of the
  expanded plan.  It was captured from the pre-catalogue figure runners
  (PR 17's parent), so matching it proves — exhaustively, without
  simulating — that every figure still asks for the same cache keys in
  the same order.  A deliberate change to a figure regenerates it:
  ``PYTHONPATH=src python tests/test_figure_catalogue.py``.
* **Every id runs** — each id once through ``run_experiment`` at a
  micro scale: payload shape, legend order, non-empty series, and the
  row's shape check returns claims (pass/fail is not asserted at this
  scale; ``experiments/verify.py`` on ``results/`` is that gate).
* **Catalogue table** — one complete row per id, twins share a builder
  object and a memo slot, the committed ``results/`` pass all 46 shape
  checks and EXPERIMENTS.md still renders from them byte-identically.
"""

import hashlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.analysis.invariants import Check
from repro.experiments import EXPERIMENTS, Scale, figures, registry, run_experiment
from repro.experiments.presets import get_scale
from repro.experiments.reporting import load_result
from repro.experiments.verify import render_experiments_md
from repro.runplan import expand_specs

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "figure_plans.json"
SIMULATED = [exp_id for exp_id, row in EXPERIMENTS.items() if row.simulated]


# ------------------------------------------------------------ plan manifest
def plan_entry(exp_id: str, scale: str, seeds: int, opts: dict) -> dict:
    """One manifest entry, from the catalogue, without simulating."""
    plan = EXPERIMENTS[exp_id].build(
        get_scale(scale), 1, seeds, **{k: tuple(v) for k, v in opts.items()})
    points = expand_specs(plan.specs)
    rows = [[p.key(), p.series, [list(c) for c in p.coords]] for p in points]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {"id": exp_id, "scale": scale, "seeds": seeds, "opts": opts,
            "pattern": plan.pattern, "series": list(plan.order),
            "points": len(points),
            "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def manifest_inputs():
    for exp_id in sorted(SIMULATED):
        for scale in ("smoke", "tiny", "small"):
            for seeds in (1, 3):
                yield exp_id, scale, seeds, {}
    yield "fig4a", "tiny", 1, {"loads": [0.1]}
    yield "fig6b", "tiny", 1, {"percentages": [0, 100]}
    yield "fig9b", "tiny", 1, {"percentages": [0, 100]}


def test_every_figure_plan_matches_the_manifest():
    pinned = json.loads(MANIFEST.read_text())
    inputs = list(manifest_inputs())
    assert [(e["id"], e["scale"], e["seeds"], e["opts"]) for e in pinned] \
        == [tuple(i) for i in inputs], "manifest rows != catalogue ids"
    assert sum(e["points"] for e in pinned) == 7463
    for want, args in zip(pinned, inputs):
        assert plan_entry(*args) == want


# ------------------------------------------------------------ every id runs
MICRO = Scale(name="micro", h=2, warmup=60, measure=60,
              loads_uniform=(0.5,), loads_adversarial=(0.3,),
              burst_vct=2, burst_wh=1, trans_bursts=(2,),
              trans_measure=250, trans_bucket=125)
MICRO_OPTS = {
    "fig6a": {"percentages": (0, 100)}, "fig6b": {"percentages": (0, 100)},
    "fig9a": {"percentages": (0, 100)}, "fig9b": {"percentages": (0, 100)},
    # 30/45/60 %: the three thresholds the Fig 10/11 checks read
    "fig10": {"thresholds": (0.30, 0.45, 0.60)},
    "fig11": {"thresholds": (0.30, 0.45, 0.60)},
}


@pytest.fixture(scope="module")
def micro_run():
    """Every catalogue id once at the micro scale: ``(results, memo slots)``."""
    registry.clear_cache()
    results = {exp_id: run_experiment(exp_id, scale=MICRO, seed=3,
                                      **MICRO_OPTS.get(exp_id, {}))
               for exp_id in EXPERIMENTS}
    slots = len(registry._MEMO)
    registry.clear_cache()
    return results, slots


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_id_runs_end_to_end(micro_run, exp_id):
    row, result = EXPERIMENTS[exp_id], micro_run[0][exp_id]
    assert (result["id"], result["metric"], result["description"]) \
        == (exp_id, row.metric, row.description)
    assert all(points for points in result["series"].values())
    if row.simulated:
        assert list(result) == ["pattern", "scale", "seeds", "series",
                                "id", "metric", "description"]
        assert result["scale"] == "micro" and result["seeds"] == 1
        plan = row.build(MICRO, 3, 1, **MICRO_OPTS.get(exp_id, {}))
        assert result["pattern"] == plan.pattern
        assert list(result["series"]) == list(plan.order)
        assert all(row.metric in point
                   for points in result["series"].values() for point in points)
    claims = row.check(result)
    assert claims and all(isinstance(c, Check) for c in claims)


# ---------------------------------------------------------- catalogue table
TWINS = [("fig4a", "fig5a"), ("fig4b", "fig5b"), ("fig4c", "fig5c"),
         ("fig7a", "fig8a"), ("fig7b", "fig8b"), ("fig7c", "fig8c")]


def test_every_row_is_complete():
    for exp_id, row in EXPERIMENTS.items():
        assert row.id == exp_id
        assert callable(row.build) and callable(row.check)
        assert row.metric and row.description and row.expectation
    assert [exp_id for exp_id in EXPERIMENTS if exp_id not in SIMULATED] == ["tab1"]


def test_builders_say_what_never_how():
    """No function of the figure layer takes a pool size, cache, shard or
    callback, and none can execute: ``run_experiment`` decides all that."""
    how = {"workers", "jobs", "scheduler", "cache", "shard", "on_result"}
    for name, fn in inspect.getmembers(figures, inspect.isfunction):
        assert not how & set(inspect.signature(fn).parameters), name
    assert not hasattr(figures, "execute")


def test_twins_share_one_builder_and_one_memo_slot(micro_run):
    for latency, throughput in TWINS:
        assert EXPERIMENTS[latency].build is EXPERIMENTS[throughput].build
        assert EXPERIMENTS[latency].metric == "mean_latency"
        assert EXPERIMENTS[throughput].metric == "throughput"
    builders = {EXPERIMENTS[exp_id].build for exp_id in SIMULATED}
    assert len(builders) == len(SIMULATED) - len(TWINS)
    results, slots = micro_run
    assert slots == len(builders)  # one simulated sweep per builder
    for latency, throughput in TWINS:
        assert results[latency]["series"] is results[throughput]["series"]


def test_checked_in_results_pass_every_shape_check_and_render_unchanged():
    """The paper's orderings, gated in tier-1 on the committed ``tiny``
    results (what ``benchmarks/`` re-derived at ``smoke`` scale), and
    EXPERIMENTS.md rendered from them byte-identically."""
    results = {}
    for path in sorted((ROOT / "results").glob("*.json")):
        result = load_result(path)
        results[result["id"]] = result
    assert set(results) == set(EXPERIMENTS)
    claims = [c for exp_id, result in results.items()
              for c in EXPERIMENTS[exp_id].check(result)]
    assert len(claims) == 46
    assert all(c.ok for c in claims), [c.check for c in claims if not c.ok]
    assert render_experiments_md(results) == (ROOT / "EXPERIMENTS.md").read_text()



def test_generator_skips_partial_results(tmp_path, capsys):
    """An interrupted ``run --json-dir`` leaves ``<id>.partial.json``
    next to the finished figures; it sorts after ``<id>.json`` and must
    not replace the finished figure in EXPERIMENTS.md."""
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", ROOT / "tools" / "generate_experiments_md.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for path in (ROOT / "results").glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    finished = load_result(ROOT / "results" / "fig6b.json")
    partial = dict(finished, partial=True,
                   series={"olm": finished["series"]["olm"]})
    (tmp_path / "fig6b.partial.json").write_text(json.dumps(partial))
    assert tool.main(["--check", str(tmp_path), str(ROOT / "EXPERIMENTS.md")]) == 0
    assert "fig6b.partial.json" in capsys.readouterr().err


if __name__ == "__main__":  # regenerate the manifest after a deliberate change
    entries = [plan_entry(*args) for args in manifest_inputs()]
    MANIFEST.write_text("[\n" + ",\n".join(
        json.dumps(e, separators=(", ", ": ")) for e in entries) + "\n]\n")
    print(f"wrote {MANIFEST} ({len(entries)} plans, "
          f"{sum(e['points'] for e in entries)} points)")
