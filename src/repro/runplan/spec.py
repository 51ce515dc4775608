"""Declarative run plans: what to simulate, not how.

A :class:`RunSpec` describes one experiment series — a base
:class:`~repro.network.config.SimConfig`, a traffic-pattern spec, a
load grid and a tuple of seed replicas — and :meth:`RunSpec.expand`
flattens it into self-contained :class:`RunPoint` jobs.  Points are
mutually independent (each owns its config and RNG seed), which is what
lets a scheduler fan them out over a process pool and the cache
address results by point content alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.network.config import CANONICAL_JSON, SimConfig

#: bump when the record schema produced by the workers changes, so stale
#: cache entries from an older layout are never replayed
#: (v2: transient kind, auto-steady warm-up flag, series bucket width)
POINT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunPoint:
    """One self-contained simulation job (the unit of execution/caching).

    ``kind`` selects the worker: ``"steady"`` runs the warm-up/measure
    workflow (needs ``load``/``warmup``/``measure``), ``"drain"`` runs a
    burst-consumption experiment (needs ``packets_per_node``/
    ``max_cycles``), ``"transient"`` runs the burst-response load step
    (needs ``load`` + ``packets_per_node``; ``bucket`` sets the series
    resolution).  ``steady=True`` replaces the blind warm-up of steady
    points with the auto-detected steady-state rule (``warmup`` becomes
    the cycle cap).  ``series`` labels the curve the record belongs to
    (e.g. the routing mechanism); ``coords`` are extra coordinate pairs
    merged verbatim into the record (e.g. ``(("global_pct", 40),)``).
    """

    config: SimConfig
    pattern: str
    kind: str = "steady"
    load: float | None = None
    warmup: int = 0
    measure: int = 0
    packets_per_node: int | None = None
    max_cycles: int | None = None
    bucket: int | None = None
    steady: bool = False
    series: str = ""
    coords: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("steady", "drain", "transient"):
            raise ValueError(f"unknown RunPoint kind {self.kind!r}; "
                             "expected 'steady', 'drain' or 'transient'")
        if self.kind in ("steady", "transient") and self.load is None:
            raise ValueError(f"{self.kind} RunPoint needs an offered load")
        if self.kind in ("drain", "transient") and self.packets_per_node is None:
            raise ValueError(f"{self.kind} RunPoint needs packets_per_node")

    def describe(self) -> dict:
        """JSON-safe mapping of everything that determines the measurement.

        Display labels (``series``, ``coords``) are deliberately absent:
        they don't influence the simulation, and keeping them out of the
        cache key lets differently-labelled plans share cached results.
        The config enters as :meth:`SimConfig.canonical_dict`, which
        strips ``engine`` for the same reason: every engine backend is
        record-identical by contract, so a point computed on the array
        core must hit the cache entry the wheel engine wrote.
        """
        return {
            "schema": POINT_SCHEMA_VERSION,
            "config": self.config.canonical_dict(),
            "pattern": self.pattern,
            "kind": self.kind,
            "load": self.load,
            "warmup": self.warmup,
            "measure": self.measure,
            "packets_per_node": self.packets_per_node,
            "max_cycles": self.max_cycles,
            "bucket": self.bucket,
            "steady": self.steady,
        }

    def key(self) -> str:
        """Content hash of the point — the result-cache address.

        Two points with equal configs, traffic and windows share a key
        regardless of which spec produced them, how their records are
        labelled, or when they ran.
        """
        blob = CANONICAL_JSON.encode(self.describe())
        return hashlib.sha256(blob.encode()).hexdigest()


def replica_seeds(base_seed: int, replicas: int) -> tuple[int, ...]:
    """The seed tuple for ``replicas`` independent runs starting at ``base_seed``."""
    if replicas < 1:
        raise ValueError("need at least one seed replica")
    return tuple(base_seed + i for i in range(replicas))


@dataclass(frozen=True)
class RunSpec:
    """A declarative experiment series: config x pattern x loads x seeds.

    Units: ``loads`` are offered loads in phits/(node·cycle);
    ``warmup``/``measure``/``max_cycles``/``bucket`` are cycles;
    ``packets_per_node`` counts whole packets.  Expansion
    (:meth:`expand`) is deterministic — seeds outer, loads inner, in
    declaration order — and each point's record depends only on the
    point's content, never on the scheduler that computes it.

    ``seeds`` holds the explicit replica seeds (see :func:`replica_seeds`);
    each expands to its own point with ``config.with_(seed=s)``, so a
    multi-seed spec yields ``len(loads) * len(seeds)`` independent jobs.
    For ``kind="drain"`` specs, ``loads`` is ignored and one point per
    seed is produced from ``packets_per_node``/``max_cycles``; for
    ``kind="transient"`` (burst-response load step) one point per
    (load, seed) pair combines ``loads`` with ``packets_per_node`` /
    ``bucket``.  ``steady=True`` switches steady points to the
    auto-detected warm-up (``warmup`` = cycle cap).
    """

    config: SimConfig
    pattern: str
    loads: tuple[float, ...] = ()
    warmup: int = 0
    measure: int = 0
    seeds: tuple[int, ...] = ()
    kind: str = "steady"
    packets_per_node: int | None = None
    max_cycles: int | None = None
    bucket: int | None = None
    steady: bool = False
    series: str = ""
    coords: tuple[tuple[str, object], ...] = field(default=())

    def expand(self) -> list[RunPoint]:
        """Flatten into independent :class:`RunPoint` jobs (loads x seeds)."""
        seeds = self.seeds or (self.config.seed,)
        points = []
        for seed in seeds:
            cfg = self.config if seed == self.config.seed else self.config.with_(seed=seed)
            if self.kind == "drain":
                points.append(RunPoint(
                    config=cfg, pattern=self.pattern, kind="drain",
                    packets_per_node=self.packets_per_node,
                    max_cycles=self.max_cycles,
                    series=self.series, coords=self.coords))
            elif self.kind == "transient":
                points.extend(
                    RunPoint(config=cfg, pattern=self.pattern, kind="transient",
                             load=load, warmup=self.warmup,
                             measure=self.measure,
                             packets_per_node=self.packets_per_node,
                             bucket=self.bucket,
                             series=self.series, coords=self.coords)
                    for load in self.loads
                )
            else:
                points.extend(
                    RunPoint(config=cfg, pattern=self.pattern, load=load,
                             warmup=self.warmup, measure=self.measure,
                             steady=self.steady,
                             series=self.series, coords=self.coords)
                    for load in self.loads
                )
        return points

    def with_(self, **kwargs) -> "RunSpec":
        """Copy with fields replaced (mirrors ``SimConfig.with_``)."""
        return replace(self, **kwargs)


def expand_specs(specs) -> list[RunPoint]:
    """Expand several specs into one flat job list (one scheduler pass)."""
    points: list[RunPoint] = []
    for spec in specs:
        points.extend(spec.expand())
    return points


def parse_shard(shard) -> tuple[int, int]:
    """Normalise a shard selector — CLI-style ``"i/n"`` or an ``(i, n)``
    pair — into a validated ``(index, count)``.

    ``index`` is zero-based: ``"0/2"`` and ``"1/2"`` together cover a
    plan.  Raises ``ValueError`` with the expected grammar on anything
    else.
    """
    try:
        index_text, count_text = (shard.split("/", 1) if isinstance(shard, str)
                                  else shard)
        index, count = int(index_text), int(count_text)
    except (ValueError, TypeError, AttributeError):
        raise ValueError(
            f"shard selector must look like 'i/n' (e.g. '0/2'), got "
            f"{shard!r}") from None
    _check_shard(index, count)
    return index, count


def _check_shard(index: int, count: int) -> None:
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index} "
            f"(indices are zero-based: the shards of /2 are 0/2 and 1/2)")


def in_shard(point: RunPoint, index: int, count: int) -> bool:
    """Deterministic shard membership by the point's content hash.

    The partition depends only on :meth:`RunPoint.key` — never on list
    order, spec grouping or labels — so any decomposition of a plan
    into shards covers exactly the same points, and the union of shard
    caches is byte-identical to a serial run's cache.
    """
    return int(point.key()[:16], 16) % count == index


def shard_points(points, index: int, count: int) -> list[RunPoint]:
    """The sub-list of ``points`` belonging to shard ``index`` of ``count``.

    Shards are disjoint and their union (over ``index = 0..count-1``)
    is the whole plan, in plan order.  ``count=1`` returns every point.
    """
    _check_shard(index, count)
    if count == 1:
        return list(points)
    return [p for p in points if in_shard(p, index, count)]
