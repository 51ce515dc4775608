"""Per-layer tracing installed from outside the program.

For the duration of a traced run the benchmark rebinds timing wrappers
around public callables of every layer (``install``), records spans in
memory, and puts everything back afterwards (the returned ``uninstall``).
Nothing under ``src/`` knows it is being traced.

A wrapper keeps, per layer name and per thread, the number of calls, the
total time and the *self* time (total minus the time its wrapped callees
took on that thread); readers get the sums over threads.  Coarse
callables also record one span per call ``(id, parent, name, start, end,
thread, label)``; per-packet callables (``decide``, ``inject``, eject
taps, cache reads, point keys) only count, because a span per call would
be millions of rows.  Self times of all layers sum to the duration of
the top-level spans by construction, which is what the closure check in
``run.py`` relies on.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

#: CPU seconds of the calling thread: a layer's time on its own thread,
#: whatever the host or the other thread did meanwhile
clock = time.thread_time
get_ident = threading.get_ident

#: index into a layer row
CALLS, TOTAL, SELF, _ACTIVE = range(4)


class _ThreadState:
    """What one thread has recorded.  Wrapped callables run on the serve
    worker thread and on the event loop at the same time, so every
    counter a wrapper updates is owned by the thread that updates it."""

    __slots__ = ("stack", "rows", "counts", "array_eligible", "hub_depth")

    def __init__(self) -> None:
        self.stack: list = []
        #: layer name -> [calls, total seconds, self seconds, active flag]
        self.rows: dict[str, list] = {}
        #: free-form exact counts (simulated cycles per path, cache hits...)
        self.counts: dict[str, float] = {}
        #: is the point being computed eligible for the array core?
        self.array_eligible = False
        #: > 0 while a MetricsHub-instrumented window is running
        self.hub_depth = 0


class Tracer:
    """Span and counter store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._states: dict[int, _ThreadState] = {}
        self._ids = itertools.count()

    def state(self) -> _ThreadState:
        """The calling thread's state."""
        ident = get_ident()
        state = self._states.get(ident)
        if state is None:
            state = self._states[ident] = _ThreadState()
        return state

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + amount

    @property
    def counts(self) -> dict[str, float]:
        """Counts summed over threads."""
        out: dict[str, float] = {}
        for state in self._states.values():
            for name, amount in state.counts.items():
                out[name] = out.get(name, 0) + amount
        return out

    @property
    def layers(self) -> dict[str, list]:
        """``name -> [calls, total seconds, self seconds]`` over threads."""
        out: dict[str, list] = {}
        for state in self._states.values():
            for name, row in state.rows.items():
                merged = out.setdefault(name, [0, 0.0, 0.0])
                for column in (CALLS, TOTAL, SELF):
                    merged[column] += row[column]
        return out

    def wrap(self, name: str, fn, *, span: bool = True, label=None,
             before=None, after=None):
        """``fn`` timed under layer ``name``.

        A nested call to the same layer on the same thread
        (``super().decide``, ``records`` calling ``bucket_row``) runs
        untimed inside the outer call.  ``label(args)`` names a span;
        ``before(args)`` runs ahead of the call and its value is handed
        to ``after(token, args, result)``.
        """
        states, spans, ids = self._states, self.spans, self._ids
        new_state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = get_ident()
            state = states.get(ident) or new_state()
            row = state.rows.get(name)
            if row is None:
                row = state.rows[name] = [0, 0.0, 0.0, 0]
            elif row[_ACTIVE]:
                return fn(*args, **kwargs)
            stack = state.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(ids) if span else parent]
            token = None if before is None else before(args)
            row[_ACTIVE] = 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                row[_ACTIVE] = 0
                took = end - start
                row[CALLS] += 1
                row[TOTAL] += took
                row[SELF] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if span:
                    spans.append((frame[1], parent, name, start, end, ident,
                                  None if label is None else label(args)))
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def dump(self, workload: str, seed: int) -> dict:
        """JSON-safe trace: spans plus the per-layer totals."""
        rows = []
        for sid, parent, name, start, end, ident, label in self.spans:
            key = getattr(label, "key", None)
            rows.append({"id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "thread": ident,
                         "label": key() if callable(key) else label})
        return {
            "workload": workload,
            "seed": seed,
            "layers": {name: {"calls": row[CALLS], "total_s": row[TOTAL],
                              "self_s": row[SELF]}
                       for name, row in sorted(self.layers.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": rows,
        }


class _Patcher:
    """Remembers every attribute it replaces so it can put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _owners(classes, attr: str):
    """Distinct ``(owner class, raw attribute)`` defining ``attr`` for
    ``classes`` — a method inherited by several registered classes is
    wrapped once, where it is defined."""
    seen = set()
    for cls in classes:
        for owner in cls.__mro__:
            if attr in vars(owner):
                if owner not in seen:
                    seen.add(owner)
                    yield owner, vars(owner)[attr]
                break


def install(tracer: Tracer, extra_modules: tuple[str, ...] = ()):
    """Wrap the public callables of every layer; returns ``uninstall``."""
    import repro.experiments.registry as experiments_registry
    import repro.facade as facade
    import repro.network.simulator as simulator
    import repro.runplan.aggregate as aggregate
    import repro.runplan.runner as runner
    import repro.runplan.spec as spec
    import repro.serve.runner as serve_runner
    from repro.metrics.hub import LatencyTap, MetricsHub
    from repro.registry import (ENGINE_REGISTRY, PROCESS_REGISTRY,
                                ROUTING_REGISTRY, TOPOLOGY_REGISTRY)
    from repro.runplan.cache import ResultCache

    patcher = _Patcher()
    wrap = tracer.wrap

    def rebind(fn, wrapper) -> None:
        """Replace ``fn`` in every namespace that imported it by name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                    or mod_name in extra_modules):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patcher.set(module, attr, wrapper)

    def function(name: str, fn, **kw) -> None:
        rebind(fn, wrap(name, fn, **kw))

    def method(name: str, cls, attr: str, **kw) -> None:
        patcher.set(cls, attr, wrap(name, vars(cls)[attr], **kw))

    def registered(registry):
        return [registry.get(name) for name in registry.available()]

    # ---- array-core eligibility of the point in hand, from public flags
    def eligible(point) -> bool:
        config = point.config
        return bool(
            getattr(ROUTING_REGISTRY.get(config.routing), "array_core", False)
            and config.engine in ("array", "auto")
            and config.arbitration in ("rr", "age"))

    def offline_point(args) -> None:
        point = args[0]
        state = tracer.state()
        state.array_eligible = eligible(point)
        on_array = state.array_eligible and point.kind != "transient"
        tracer.count("network.array_points" if on_array
                     else "network.wheel_points")

    def served_point(args) -> None:
        tracer.state().array_eligible = eligible(args[0])  # until the hub attaches
        tracer.count("network.wheel_points")

    def hub_on(args) -> None:
        tracer.state().hub_depth += 1

    def hub_off(token, args, result) -> None:
        tracer.state().hub_depth -= 1

    def run_started(args) -> tuple:
        return args[0].now, clock()

    def run_ended(token, args, result) -> None:
        cycles_before, started = token
        state = tracer.state()
        path = ("array" if state.array_eligible and not state.hub_depth
                else "wheel")
        tracer.count(f"network.{path}_cycles", args[0].now - cycles_before)
        tracer.count(f"network.{path}_run_s", clock() - started)

    def cache_hit(token, args, result) -> None:
        if result is not None:
            tracer.count("runplan.cache_hits")

    def record_counts(token, args, record) -> None:
        """Exact counts of what each computed point simulated."""
        delivered = record["delivered"]
        tracer.count("network.delivered_packets", delivered)
        tracer.count("network.delivered_phits", record["delivered_phits"])
        tracer.count("traffic.generated_packets", record["generated"])
        if delivered:
            tracer.count("core.misrouted_local",
                         record["local_misroute_rate"] * delivered)
            tracer.count("core.misrouted_global",
                         record["global_misroute_fraction"] * delivered)

    def first_arg(args):
        return args[0]

    # ---- experiments / runplan
    function("experiments.run", experiments_registry.run_experiment,
             label=first_arg)
    function("runplan.execute", runner.execute)
    function("runplan.execute_points", runner.execute_points)
    function("runplan.execute_point", runner.execute_point,
             label=first_arg, before=offline_point)
    function("runplan.expand", spec.expand_specs)
    function("runplan.aggregate", aggregate.aggregate_replicas)
    method("runplan.key", spec.RunPoint, "key", span=False)
    method("runplan.cache_get", ResultCache, "get", span=False, after=cache_hit)
    method("runplan.cache_put", ResultCache, "put", span=False)
    # ---- facade
    function("facade.session", facade.session)
    function("facade.snapshot", facade.point_record, after=record_counts)
    for attr in ("warmup", "warmup_until_steady", "run"):
        method("facade.warmup", facade.Session, attr)
    method("facade.measure", facade.Session, "measure")
    method("facade.drain", facade.Session, "drain")
    method("facade.series", facade.Session, "measure_series",
           before=hub_on, after=hub_off)
    # ---- network / topology
    function("network.build", simulator.build_simulator)
    engines = registered(ENGINE_REGISTRY)
    for attr in ("run", "run_until_drained"):
        for owner, _ in _owners(engines, attr):
            method("network.run", owner, attr, before=run_started,
                   after=run_ended)
    for owner, raw in _owners(registered(TOPOLOGY_REGISTRY), "from_config"):
        if isinstance(raw, classmethod):
            patcher.set(owner, "from_config", classmethod(
                wrap("topology.build", raw.__func__)))
    # ---- per-packet layers: counted, never one span per call
    for owner, _ in _owners(registered(ROUTING_REGISTRY), "decide"):
        method("core.decide", owner, "decide", span=False)
    processes = registered(PROCESS_REGISTRY)
    for attr in ("inject", "inject_batch"):
        for owner, _ in _owners(processes, attr):
            method("traffic.inject", owner, attr, span=False)
    for attr in ("on_eject", "on_eject_batch"):
        method("metrics.eject", LatencyTap, attr, span=False)
    # ---- metrics hub / verification
    for attr in ("series", "records", "meta_row", "bucket_row", "summary_row"):
        method("metrics.hub_export", MetricsHub, attr, span=False)
    method("analysis.verify", MetricsHub, "verify")
    # ---- serve (worker-thread side; the HTTP side is timed by the client)
    function("serve.run_submission", serve_runner.run_submission)
    function("serve.execute_point", serve_runner.execute_point_streamed,
             label=first_arg, before=served_point)
    return patcher.restore
