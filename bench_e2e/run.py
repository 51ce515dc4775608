"""bench_e2e: the repo's end-to-end benchmark (see README.md beside this file).

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process per workload run.  Prints every metric by name with its
unit, then — as the last line — one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` measures the
end-to-end metrics with nothing installed; ``--trace 1`` is a separate
run that reports the per-layer metrics from timing wrappers installed
around public callables.  Exits 1 when any record check fails.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = HERE / "expected.json"
#: fresh child interpreters whose set-up time is sampled per run
SETUP_RUNS = 5

#: wall clock, for the run's time budget only: what is reported is
#: measured in CPU seconds (``workloads.clock``)
perf_counter = time.perf_counter


def load_program():
    """Make ``repro`` importable and return the workloads module."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"bench_e2e: {src}/repro not found — run from a checkout "
                 "of the repository (the benchmark drives its source tree)")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------------ set-up
def setup_probe(args) -> int:
    """Child mode: import, build the plan, open scratch space; print the
    CPU seconds this interpreter has used since it started."""
    workloads = load_program()
    workload = workloads.WORKLOADS[args.setup_probe](args.seed, args.smoke, OUT)
    try:
        workload.prepare()
        print(repr(time.process_time()))
    finally:
        workload.close()
    return 0


def sample_setup(name: str, seed: int, smoke: bool) -> list[float]:
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe", name,
               "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(1 if smoke else SETUP_RUNS):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -------------------------------------------------------------- host speed
#: iterations of one probe sample, samples taken before every pass, and
#: what a sample takes on the reference box (2.1 GHz Xeon guest, CPython
#: 3.11) when nothing disturbs it
PROBE_LOOPS = 40_000
PROBE_SAMPLES = 60
PROBE_REFERENCE_S = 0.00195


def probe_host(samples: list[float]) -> None:
    """Time a fixed piece of interpreter-bound work, ``PROBE_SAMPLES`` times."""
    clock = time.process_time
    for _ in range(PROBE_SAMPLES):
        start = clock()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        samples.append(clock() - start)


def host_slowdown(samples: list[float]) -> float:
    """How much slower than the undisturbed reference box this host ran
    the probe during the run: the first decile of the samples, the
    probe's pace in the run's good moments — the moments the fastest
    time of every operation comes from too."""
    return statistics.quantiles(samples, n=10)[0] / PROBE_REFERENCE_S


# ------------------------------------------------------------ timed region
def run_passes(workload, seconds: float) -> tuple[list, float]:
    """Repeat whole passes of the fixed work until the budget is used (a
    new pass starts only if the last one would still fit), probing the
    host before each; returns the passes and the host's slowdown."""
    passes, samples = [], []
    begin = perf_counter()
    while True:
        start = perf_counter()
        probe_host(samples)
        passes.append(workload.run_pass())
        now = perf_counter()
        if now - begin + (now - start) > seconds:
            return passes, host_slowdown(samples)


def best_times(passes, attribute: str) -> list[float]:
    """Per operation, its fastest time over the passes.

    Every pass runs the same operations in the same order.  What slows
    one of them down between passes is the host, never the program: on
    the reference box a neighbour's bursts add up to 40 % for seconds at
    a time.  The fastest of an operation's timings is the one least
    disturbed; a slower program raises it as surely as it raises the
    median."""
    return [min(times) for times in zip(*(getattr(p, attribute) for p in passes))]


def cold_seconds(passes) -> float:
    """Seconds of the cold phase: each stretch at its best, added up
    along its lane; the longest lane."""
    return max(sum(min(times) for times in zip(*lanes))
               for lanes in zip(*(p.lanes for p in passes)))


def warm_seconds(passes) -> float:
    """Seconds of the warm phase: each round at its best, added up."""
    return sum(min(times) for times in zip(*(p.warm for p in passes)))


def end_to_end(passes, slowdown, setup_samples, peak_rss_kb) -> dict:
    """Every time is CPU seconds divided by the host's slowdown."""
    done = [t / slowdown for t in best_times(passes, "done")]
    first = [t / slowdown for t in best_times(passes, "first")]
    cold = cold_seconds(passes) / slowdown
    warm = warm_seconds(passes) / slowdown
    return {
        "wall_s": cold + warm,
        "setup_s": statistics.median(setup_samples) / slowdown,
        "points_per_s": len(done) / cold,
        "sim_cycles_per_s": passes[0].sim_cycles / cold,
        "done_p50_s": statistics.median(done),
        "done_p90_s": percentile(done, 0.90),
        "first_row_p50_s": statistics.median(first),
        "warm_points_per_s": len(passes[0].warm) * passes[0].warm_points / warm,
        "peak_rss_mb": peak_rss_kb / 1024,
        "sim_cycles": passes[0].sim_cycles,
    }


def per_layer(tracer, passes, reference_wall, cpu_s, gen2) -> dict:
    from tracing import CALLS, SELF, TOTAL

    n = len(passes)
    counts = tracer.counts
    layers = tracer.layers

    def layer(name, column=TOTAL):
        return layers[name][column] if name in layers else 0

    def per_pass(name, column=TOTAL):
        return layer(name, column) / n

    def ratio(a, b):
        return a / b if b else 0.0

    figure_time: dict[str, float] = {}
    for _, _, name, start, end, _, label in tracer.spans:
        if name == "experiments.run":
            figure_time[label] = figure_time.get(label, 0.0) + end - start
    delivered = counts.get("network.delivered_packets", 0)
    out = {f"experiments.{fig}_s": figure_time.get(fig, 0.0) / n
           for fig in ("fig4a", "fig4b", "fig7a", "fig6b", "fig9b", "trans1")}
    out.update({
        "experiments.shape_s": per_pass("experiments.run", SELF),
        "runplan.expand_s": per_pass("runplan.expand"),
        "runplan.key_s": per_pass("runplan.key"),
        "runplan.key_calls": per_pass("runplan.key", CALLS),
        "runplan.cache_get_s": per_pass("runplan.cache_get"),
        "runplan.cache_get_calls": per_pass("runplan.cache_get", CALLS),
        "runplan.cache_hits": counts.get("runplan.cache_hits", 0) / n,
        "runplan.cache_put_s": per_pass("runplan.cache_put"),
        "runplan.cache_put_calls": per_pass("runplan.cache_put", CALLS),
        "runplan.cache_bytes": statistics.mean(
            p.extra.get("cache_bytes", 0) for p in passes),
        "runplan.aggregate_s": per_pass("runplan.aggregate"),
        "runplan.execute_point_s": per_pass("runplan.execute_point"),
        "runplan.overhead_s": (per_pass("runplan.execute", SELF)
                               + per_pass("runplan.execute_points", SELF)),
        "facade.session_s": per_pass("facade.session", SELF),
        "facade.warmup_s": per_pass("facade.warmup", SELF),
        "facade.measure_s": per_pass("facade.measure", SELF),
        "facade.drain_s": per_pass("facade.drain", SELF),
        "facade.series_s": per_pass("facade.series", SELF),
        "facade.snapshot_s": per_pass("facade.snapshot", SELF),
        "network.build_s": per_pass("network.build"),
        "network.build_calls": per_pass("network.build", CALLS),
        "topology.build_s": per_pass("topology.build"),
        "network.run_s": per_pass("network.run"),
        "network.run_calls": per_pass("network.run", CALLS),
        "network.wheel_cycles_per_s": ratio(
            counts.get("network.wheel_cycles", 0),
            counts.get("network.wheel_run_s", 0)),
        "network.array_cycles_per_s": ratio(
            counts.get("network.array_cycles", 0),
            counts.get("network.array_run_s", 0)),
        "network.wheel_points": counts.get("network.wheel_points", 0) / n,
        "network.array_points": counts.get("network.array_points", 0) / n,
        "network.delivered_packets": delivered / n,
        "network.delivered_phits": counts.get("network.delivered_phits", 0) / n,
        "network.host_us_per_phit": 1e6 * ratio(
            layer("network.run"), counts.get("network.delivered_phits", 0)),
        "core.decide_calls": per_pass("core.decide", CALLS),
        "core.decide_s": per_pass("core.decide"),
        "core.decide_share": ratio(layer("core.decide"), layer("network.run")),
        "core.misroute_local_frac": ratio(
            counts.get("core.misrouted_local", 0), delivered),
        "core.misroute_global_frac": ratio(
            counts.get("core.misrouted_global", 0), delivered),
        "traffic.inject_s": per_pass("traffic.inject"),
        "traffic.inject_calls": per_pass("traffic.inject", CALLS),
        "traffic.generated_packets": counts.get("traffic.generated_packets", 0) / n,
        "metrics.eject_s": per_pass("metrics.eject"),
        "metrics.eject_calls": per_pass("metrics.eject", CALLS),
        "metrics.hub_export_s": per_pass("metrics.hub_export"),
        "analysis.verify_s": per_pass("analysis.verify"),
    })
    ops = [op for p in passes for op in p.extra.get("ops", ())]

    def op_p50(field):
        values = [op[field] for op in ops if field in op]
        return percentile(values, 0.50) if values else 0.0

    def op_sum(field):
        return sum(op[field] for op in ops) / n

    out.update({
        "serve.post_s": op_p50("post"),
        "serve.queue_wait_s": op_p50("queue_wait"),
        "serve.execute_s": op_p50("execute"),
        "serve.stream_lag_s": op_p50("stream_lag"),
        "serve.status_s": op_p50("status"),
        "serve.worker_busy_s": per_pass("serve.run_submission"),
        "serve.rows_streamed": op_sum("rows"),
        "serve.executed_points": op_sum("executed"),
        "serve.deduped": op_sum("deduped"),
        "serve.replayed": op_sum("cached"),
        "serve.rejected_429": op_sum("rejected"),
    })
    traced_wall = sum(p.wall + sum(p.warm) + p.extra.get("untimed_s", 0)
                      for p in passes)
    self_time = sum(row[SELF] for row in layers.values())
    out.update({
        "process.cpu_s": cpu_s / n,
        "process.gc_gen2": gen2 / n,
        "process.tracing_overhead_frac": cold_seconds(passes) / reference_wall - 1,
        "trace.closure_frac": self_time / traced_wall,
        "trace.spans": len(tracer.spans) / n,
    })
    return out


# ---------------------------------------------------------- pinned records
def check_expected(args, sha: str, first_pass, update: bool) -> list[str]:
    """Compare against (or rewrite) the pinned entry for this exact input."""
    pinned = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    entry_key = f"{'smoke' if args.smoke else 'full'}:{args.seed}"
    observed = {"records_sha256": sha, "sim_cycles": first_pass.sim_cycles,
                "operations": first_pass.ops}
    if update:
        pinned.setdefault(args.workload, {})[entry_key] = observed
        EXPECTED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return []
    want = pinned.get(args.workload, {}).get(entry_key)
    if want is None or want == observed:
        return []
    return [f"pinned {name} for {entry_key} is {want[name]!r}, got {observed[name]!r}"
            for name in want if want[name] != observed.get(name)]


# -------------------------------------------------------------------- main
def run_workload(args) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    workloads = load_program()
    if list(workloads.WORKLOADS) != [w["name"] for w in spec["workloads"]]:
        raise SystemExit("bench_e2e: workloads.py and BENCHMARK.json name "
                         "different workloads")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench_e2e: --workload must be one of {list(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    problems: list[str] = []
    try:
        setup_samples = ([] if args.trace else
                         sample_setup(args.workload, args.seed, args.smoke))
        workload.prepare()
        if args.trace:
            metrics, passes, reference = traced_run(workload, args, problems)
            declared = spec["per_layer"]
        else:
            gc.collect()
            passes, slowdown = run_passes(workload, args.seconds)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(passes, slowdown, setup_samples, peak_rss_kb)
            print(f"host slowdown {slowdown:.4f}")
            reference = passes[0]
            declared = spec["end_to_end"]
        sha = workloads.records_sha(reference.records)
        for i, done in enumerate(passes):
            if done.problem:
                problems.append(f"pass {i}: {done.problem}")
            if (workloads.records_sha(done.records) != sha
                    or done.sim_cycles != reference.sim_cycles):
                problems.append(f"pass {i}: records differ from the "
                                + ("untraced pass" if args.trace else "first pass"))
        problems += workload.verify(reference)
        problems += check_expected(args, sha, reference, args.update_expected)
    finally:
        workload.close()

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit("bench_e2e: computed metrics do not match BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(metrics))}")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    if problems:
        failed = attempted  # a record mismatch voids every operation
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}  records {sha[:16]}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    for m in declared:
        print(f"{m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 1 if problems or failed else 0


def traced_run(workload, args, problems):
    """Untraced and traced passes in turn for the whole budget, so both
    kinds meet the same host; writes ``out/trace-<workload>.json``."""
    import tracing

    tracer = tracing.Tracer()
    references, passes = [], []
    cpu = gen2 = 0
    gc.collect()
    begin = perf_counter()
    while True:
        start = perf_counter()
        references.append(workload.run_pass())
        uninstall = tracing.install(tracer, extra_modules=("workloads",))
        try:
            cpu -= time.process_time()
            gen2 -= gc.get_stats()[2]["collections"]
            passes.append(workload.run_pass())
            cpu += time.process_time()
            gen2 += gc.get_stats()[2]["collections"]
        finally:
            uninstall()
        now = perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    metrics = per_layer(tracer, passes, cold_seconds(references), cpu, gen2)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps(tracer.dump(workload.name, args.seed)))
    # everything a pass does sits under a wrapped top-level call, so the
    # layers' self times must add up to the traced CPU seconds (serve runs its
    # simulations on a worker thread beside the callers: reported, not gated)
    closure = metrics["trace.closure_frac"]
    if workload.name != "serve_closed_loop" and abs(closure - 1) > 0.05:
        problems.append(f"trace closure {closure:.3f}: layer self times are "
                        "not within 5% of the traced CPU seconds")
    return metrics, passes, references[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed-region budget; whole passes only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the schema/identity test")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this input's record hash in expected.json")
    parser.add_argument("--repeat-check", type=int, metavar="N",
                        help="two interleaved sets of N runs per workload")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.repeat_check:
        import repeat

        return repeat.repeat_check(args.repeat_check, args.seconds, args.seed)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
