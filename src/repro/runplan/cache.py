"""Content-addressed result cache.

Records are stored one JSON file per run point under
``<root>/<key[:2]>/<key>.json``, where ``key`` is the point's content
hash (:meth:`RunPoint.key` — a SHA-256 over the canonical config dict,
traffic spec and measurement windows).  Because the key covers
everything that determines the record, a hit can be replayed verbatim:
cached records are byte-identical (canonical JSON) to a fresh run with
the same seed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from pathlib import Path

from repro.network.config import CANONICAL_JSON
from repro.runplan.spec import RunPoint

#: per-process counter making temp names unique across threads (the
#: serve worker pool writes from several threads of one pid; ``next``
#: on an ``itertools.count`` is atomic under the GIL)
_TMP_SEQ = itertools.count()


def canonical_record_json(record: dict) -> str:
    """Deterministic JSON for a record (sorted keys, fixed separators).

    The determinism contract ("serial == process == cache replay") is
    checked over this encoding, so dict insertion order never matters.
    """
    return CANONICAL_JSON.encode(record)


class ResultCache:
    """Filesystem cache of run-point records, addressed by content hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._dir = os.fspath(self.root)  # str twin: reads skip Path objects
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, point: RunPoint) -> dict | None:
        """The cached record for ``point``, or ``None`` on a miss."""
        record = self.get_record(point.key())
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def get_record(self, key: str) -> dict | None:
        """Look a record up by its raw content hash (no stats counted).

        The serve layer's ``GET /v1/results/{content_hash}`` endpoint
        reads the cache this way — straight by hash, without a
        :class:`RunPoint` in hand and without touching the job queue.
        A damaged entry — truncated or non-UTF-8 bytes, JSON that is not
        an object, no ``"record"`` or one that is not a dict — is a
        miss like a missing file: the point is recomputed and the next
        :meth:`put` overwrites it.  Never a traceback, never a non-dict
        record.
        """
        path = os.path.join(self._dir, key[:2], key + ".json")
        try:
            with open(path, encoding="utf-8") as f:
                payload = json.loads(f.read())
        except (FileNotFoundError, ValueError):  # JSON / Unicode decode errors
            return None
        record = payload.get("record") if isinstance(payload, dict) else None
        return record if isinstance(record, dict) else None

    def put(self, point: RunPoint, record: dict) -> None:
        """Store ``record`` atomically: temp file in the cache dir + rename.

        The temp name carries this process's pid *and* a per-process
        sequence number, so concurrent writers — pool processes sharing
        a cache directory, or serve worker threads sharing this object —
        never write the same temp file.  ``os.replace`` then publishes
        the complete file in one atomic step: a reader racing the write
        sees either nothing (a miss) or the full record, never a torn
        JSON (``tests/test_cache_atomic.py``).  Whichever rename lands
        last wins with a complete file (both writers computed the same
        deterministic record anyway).
        """
        path = self._path(point.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"point": point.describe(), "record": record}
        tmp = path.with_suffix(f".{os.getpid()}.{next(_TMP_SEQ)}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        tmp.replace(path)

    def __len__(self) -> int:
        """Number of cached records on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def iter_entries(self):
        """Yield ``(key, path)`` for every stored record, sorted by key.

        Only finished entries are visible — in-progress atomic writes
        live under ``.tmp`` names the glob never matches.
        """
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            yield path.stem, path

    def total_bytes(self) -> int:
        """Bytes of record payload on disk (the ``cache stats`` number)."""
        return sum(path.stat().st_size for _, path in self.iter_entries())

    def prune(self, *, older_than: float | None = None,
              keep: set[str] | None = None, now: float | None = None,
              dry_run: bool = False) -> dict:
        """Garbage-collect entries; returns a JSON-safe summary.

        ``older_than`` removes only entries whose file mtime is more
        than that many seconds before ``now`` (wall clock by default).
        ``keep`` is a *protection set* of content-hash keys — typically
        every key of a live plan via :func:`plan_keys` — that are never
        removed, whatever their age.  At least one criterion is
        required: calling with neither would silently wipe the cache.
        ``dry_run`` reports what would be removed without touching disk.
        """
        if older_than is None and keep is None:
            raise ValueError(
                "refusing to prune without a criterion: pass older_than "
                "(age in seconds) and/or keep (a set of plan keys to "
                "protect) — prune(older_than=0) removes everything "
                "unprotected")
        cutoff = None
        if older_than is not None:
            cutoff = (time.time() if now is None else now) - older_than
        removed, kept, protected = [], 0, 0
        for key, path in list(self.iter_entries()):
            if keep is not None and key in keep:
                protected += 1
                continue
            if cutoff is not None and path.stat().st_mtime > cutoff:
                kept += 1
                continue
            removed.append(key)
            if not dry_run:
                path.unlink(missing_ok=True)
        return {"removed": len(removed), "removed_keys": removed,
                "kept": kept, "protected": protected, "dry_run": dry_run}

    #: sidecar (cache-root level, outside the ``xx/`` key shards) holding
    #: the hit/miss totals of the most recent ``repro run`` / ``repro
    #: sweep`` invocation; library calls never write it
    RUN_STATS_NAME = "last_run.json"

    def save_run_stats(self, hits: int, misses: int) -> None:
        """Persist one CLI invocation's hits and misses as the last-run stats.

        ``repro run`` / ``repro sweep`` call this once per invocation,
        however it ends (success, failed points, interrupt), with the
        totals of the one cache object every plan of the invocation
        shared; ``repro cache stats`` reports them.  Plan execution
        (:func:`~repro.runplan.runner.execute_points`) never calls it.
        The sidecar is rewritten (temp file + atomic rename) only when
        its text changes: a replay repeating the last invocation's
        counts writes nothing, and a damaged sidecar gets repaired.  A
        sidecar that cannot be read or written (a directory in its
        place, a read-only cache) is skipped: the invocation's records
        are stored already, and telemetry must not fail them.
        """
        text = json.dumps({"hits": hits, "misses": misses}, sort_keys=True, indent=1)
        path = os.path.join(self._dir, self.RUN_STATS_NAME)
        try:
            with open(path, encoding="utf-8") as f:
                if f.read() == text:
                    return
        except (OSError, ValueError):
            pass
        tmp = os.path.join(self._dir, f".{self.RUN_STATS_NAME}.{os.getpid()}.{next(_TMP_SEQ)}.tmp")
        try:
            os.makedirs(self._dir, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)

    def last_run_stats(self) -> dict | None:
        """The persisted counts of the most recent invocation; ``None`` for
        anything but a JSON object with integer ``hits`` and ``misses``
        (unreadable, non-UTF-8, truncated, a list...), never a traceback."""
        try:
            with open(os.path.join(self._dir, self.RUN_STATS_NAME), encoding="utf-8") as f:
                stats = json.loads(f.read())
        except (OSError, ValueError):  # missing, a directory, unreadable
            return None
        ok = isinstance(stats, dict) and all(
            type(stats.get(name)) is int for name in ("hits", "misses"))
        return stats if ok else None

    def stats(self) -> dict:
        """Hit/miss counters for this cache object's lifetime."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else math.nan,
            "entries": len(self),
        }


def resolve_cache(cache) -> ResultCache | None:
    """``None`` passes through; strings/paths become a :class:`ResultCache`."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def plan_keys(points) -> set[str]:
    """The content-hash keys of a plan — the protection set for
    :meth:`ResultCache.prune`: pruning with ``keep=plan_keys(points)``
    can never delete a record the plan would replay."""
    return {point.key() for point in points}
