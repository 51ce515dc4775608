"""``run.py --repeat-check N``: is the benchmark steady on this machine?

Runs two interleaved sets of N runs per workload (A B A B ..., run *i* of
either set uses seed ``base + i``, so both sets see the same N inputs),
then one traced run per workload.  For every end-to-end metric it prints
each set's ``median ± IQR (n)`` and three relative numbers:

* ``spread`` — IQR / median of a set's N runs, the larger of the two
  sets: host noise *and* what the seed changes in the inputs;
* ``pair`` — median over seeds of |A_i - B_i| / their mean: the same
  input run twice back to back, so host noise alone;
* ``gap`` — how much worse set B's median is than set A's.

It exits 1 if a gap or a spread exceeds the metric's bound from
BENCHMARK.json (``setup_s`` is held to the gap only).  The same numbers
are written to ``out/baseline.json``; copy that file over
``bench_e2e/baseline.json`` to re-baseline after an accepted change.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median,
            "text": f"{median:.5g} ± {q3 - q1:.2g} (n={len(values)})"}


def repeat_check(n: int, seconds: float, base_seed: int) -> int:
    if n < 2:
        raise SystemExit("--repeat-check needs N >= 2 (quartiles of one run "
                         "are undefined)")
    spec = json.loads(SPEC_FILE.read_text())
    import numpy

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "run_seconds": seconds, "runs_per_set": n, "base_seed": base_seed,
        "workloads": {}, "targets": [],
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets: dict[str, dict[str, list[float]]] = {"A": {}, "B": {}}
        for i in range(n):
            for label in ("A", "B"):
                for name, value in one_run(workload, base_seed + i, seconds, 0).items():
                    sets[label].setdefault(name, []).append(value)
        print(f"== {workload}")
        entry = {"end_to_end": {}, "per_layer": one_run(workload, base_seed, seconds, 1)}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = summary(sets["A"][name]), summary(sets["B"][name])
            worse = b["median"] - a["median"]
            if metric["better"] == "higher":
                worse = -worse
            gap = abs(worse) / a["median"]
            spread = max(a["spread"], b["spread"])
            pair = statistics.median(
                abs(x - y) / ((x + y) / 2)
                for x, y in zip(sets["A"][name], sets["B"][name]))
            verdict = "ok"
            if gap > bound or (name != "setup_s" and spread > bound):
                verdict = "TOO NOISY"
                failures.append(f"{workload}/{name}")
            print(f"{name:20s} A {a['text']:30s} B {b['text']:30s} "
                  f"spread {spread:.3f} pair {pair:.3f} gap {gap:.3f} "
                  f"bound {bound} {verdict}")
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "A": a["text"], "B": b["text"],
                "median": a["median"], "spread": spread, "pair": pair,
                "gap": gap, "bound": bound,
                "values": {label: sets[label][name] for label in sets}}
        report["workloads"][workload] = entry
    figs = report["workloads"].get("figs_adaptive_wheel")
    if figs:
        # ROADMAP gate for "make the paper's own figures fast": >= 3x
        report["targets"].append({
            "metric": "wall_s", "workload": "figs_adaptive_wheel",
            "operator": "<=", "value": figs["end_to_end"]["wall_s"]["median"] / 3})
    for workload in report["workloads"]:
        # ROADMAP gate for the breakdown: self times within 5 % of the wall
        if workload != "serve_closed_loop":
            report["targets"].append({"metric": "trace.closure_frac",
                                      "workload": workload,
                                      "operator": ">=", "value": 0.95})
    out = HERE / "out" / "baseline.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    if failures:
        print("over the bound: " + ", ".join(failures))
    return 1 if failures else 0
