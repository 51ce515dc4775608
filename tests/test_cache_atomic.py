"""ResultCache atomicity: readers never observe a torn record.

``ResultCache.put`` writes to a uniquely-named temp file in the cache
directory and publishes it with an atomic rename.  With the serve
layer's worker threads and offline process pools sharing one cache
directory, a reader racing any writer must see either a clean miss or
a complete record — never partial JSON.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.network.config import SimConfig
from repro.runplan.cache import ResultCache
from repro.runplan.spec import RunPoint


def mk_point(seed: int = 1, load: float = 0.2) -> RunPoint:
    return RunPoint(config=SimConfig(h=1, seed=seed), pattern="uniform",
                    load=load, warmup=100, measure=100)


def test_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in range(5):
        cache.put(mk_point(seed=seed + 1), {"seed": seed + 1})
    assert len(cache) == 5
    leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert leftovers == []


def test_record_invisible_until_rename(tmp_path, monkeypatch):
    """Mid-write (temp file fully written, not yet renamed) a reader
    must see the previous state: a miss the first time, the old record
    on overwrite."""
    cache = ResultCache(tmp_path)
    point = mk_point()
    observed = []
    real_replace = Path.replace

    def spying_replace(self, target):
        if str(target).endswith(".json"):
            observed.append(cache.get_record(point.key()))
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", spying_replace)
    cache.put(point, {"version": 1})
    cache.put(point, {"version": 2})
    assert observed == [None, {"version": 1}]
    assert cache.get_record(point.key()) == {"version": 2}


def test_concurrent_writers_and_readers_never_tear(tmp_path):
    """Hammer one key from several writer threads while a reader spins:
    every read is a clean miss or a complete record (per-thread temp
    names keep writers from clobbering each other's files)."""
    cache = ResultCache(tmp_path)
    point = mk_point()
    record = {"payload": list(range(200)), "tag": "x" * 500}
    stop = threading.Event()
    bad: list[object] = []

    def writer():
        reader_cache = ResultCache(tmp_path)
        for _ in range(150):
            reader_cache.put(point, record)

    def reader():
        reader_cache = ResultCache(tmp_path)
        while not stop.is_set():
            got = reader_cache.get_record(point.key())
            if got is not None and got != record:
                bad.append(got)  # torn or partial read

    readers = [threading.Thread(target=reader) for _ in range(2)]
    writers = [threading.Thread(target=writer) for _ in range(4)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert bad == []
    assert cache.get_record(point.key()) == record
    leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    assert leftovers == []


def test_get_record_by_raw_hash(tmp_path):
    """The serve layer's /v1/results path: raw-hash lookup, no stats."""
    cache = ResultCache(tmp_path)
    point = mk_point()
    cache.put(point, {"throughput": 0.5})
    assert cache.get_record(point.key()) == {"throughput": 0.5}
    assert cache.get_record("0" * 64) is None
    assert cache.hits == 0 and cache.misses == 0  # raw lookups: uncounted
    assert cache.get(point) == {"throughput": 0.5}
    assert cache.hits == 1  # point lookups still count


@pytest.mark.parametrize("damage", [
    b'{"point": {}}',          # valid JSON, no record
    b"[]", b"3",               # valid JSON, not an object
    b"\xff\xfe\x00 not utf-8",  # not text at all
    b'{"record": 5}',          # a "record" that is not a record
    b'{"record": {"x": 1',     # truncated write
], ids=["no-record", "list", "number", "non-utf8", "scalar-record",
        "truncated"])
def test_damaged_entry_is_a_miss_and_gets_overwritten(tmp_path, damage):
    """Never a traceback, never a non-dict record: a damaged entry
    reads as a miss, is counted as one, and the next put repairs it."""
    cache = ResultCache(tmp_path)
    point = mk_point()
    cache.put(point, {"version": 1})
    (path,) = [p for _, p in cache.iter_entries()]
    path.write_bytes(damage)
    assert cache.get_record(point.key()) is None
    assert cache.get(point) is None and cache.misses == 1
    cache.put(point, {"version": 2})
    assert cache.get(point) == {"version": 2}


@pytest.mark.parametrize("damage", [
    b'{"hits": 1}',            # valid JSON, no misses
    b"[1, 2]", b"3",           # valid JSON, not an object
    b"\xff\xfe\x00 not utf-8",  # not text at all
    b'{"hits": 1, "misses": "2"}',  # counts that are not integers
    b'{"hits": 1, "misses": 2',     # truncated write
], ids=["no-misses", "list", "number", "non-utf8", "string-count",
        "truncated"])
def test_damaged_run_stats_read_as_none_and_get_rewritten(tmp_path, damage):
    """A damaged ``last_run.json`` is no stats, never a traceback, and
    the next save repairs it even though the counts look unchanged."""
    cache = ResultCache(tmp_path)
    cache.save_run_stats(1, 2)
    sidecar = tmp_path / ResultCache.RUN_STATS_NAME
    sidecar.write_bytes(damage)
    assert cache.last_run_stats() is None
    cache.save_run_stats(1, 2)
    assert cache.last_run_stats() == {"hits": 1, "misses": 2}


def test_unreadable_run_stats_read_as_none(tmp_path):
    (tmp_path / ResultCache.RUN_STATS_NAME).mkdir()  # a directory, not a file
    assert ResultCache(tmp_path).last_run_stats() is None


def test_unwritable_run_stats_are_skipped_and_written_once_possible(tmp_path):
    """A sidecar that cannot be written costs the sidecar only: no
    traceback, no temp file left behind, and the next save after the
    obstacle is gone writes it."""
    sidecar = tmp_path / ResultCache.RUN_STATS_NAME
    sidecar.mkdir()
    cache = ResultCache(tmp_path)
    cache.save_run_stats(3, 0)
    assert sidecar.is_dir() and cache.last_run_stats() is None
    assert not list(tmp_path.glob(".*.tmp"))
    sidecar.rmdir()
    cache.save_run_stats(3, 0)
    assert cache.last_run_stats() == {"hits": 3, "misses": 0}
