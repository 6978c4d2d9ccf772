"""The shared ``CacheStore``: concurrency, eviction, disk hardening.

The link server's tentpole refactor promotes the per-invocation unit
caches to one long-lived, lock-protected store shared by every worker
thread.  These tests stress exactly the properties the server leans
on:

* concurrent hits/misses/evictions over one store
  never produce a torn read — every lookup returns either a miss or
  the one structurally correct value for its key — and every lookup
  emits exactly one ``cache.hit``/``cache.miss`` event (the
  cache-invariant the differential sweeps rely on);
* disk writes are atomic (no ``.tmp`` residue, concurrent writers
  never produce a torn entry) and corrupt entries are unlinked and
  reported as misses;
* eviction under churn is observationally invisible: a store so small
  it constantly evicts produces the same values/outputs as no cache
  at all (the ``tests/test_cache_differential.py`` pattern).
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.lang import terms
from repro.units import cache as ucache
from repro.units.cache import CacheStore, cache_store_scope
from repro.serve.handlers import run_pipeline


def _run_source(i: int) -> str:
    """A served program whose value is ``i``."""
    return (f"(invoke (unit (import) (export) "
            f"(define v (lambda (x) (+ x {i}))) (v 0)))")


def _serve(source: str) -> str:
    """One pycode ``run`` through the pipeline; its value."""
    value, _output = run_pipeline(
        {"op": "run", "source": source, "backend": "pycode"}, {})
    return value


def _module(i: int) -> str:
    """A pycode-shaped module whose ``_main`` answers ``i``."""
    return f"def _main():\n    return {i}\n"


def _store_of_maxsize(maxsize: int, disk_dir=None) -> CacheStore:
    """A store whose every LRU holds ``maxsize`` entries."""
    store = CacheStore(disk_dir)
    for cache in store.caches:
        cache.maxsize = maxsize
    return store


class TestConcurrentStore:
    def test_stress_no_torn_reads_and_invariant_events(self, tmp_path):
        """Hits, misses, and LRU evictions race across
        8 threads; every result is structurally correct and every
        lookup emits exactly one hit-or-miss event."""
        sources = [_run_source(i) for i in range(12)]
        # A parse LRU of 4 entries, so the code riding on them is
        # constantly evicted, with disk hits and writes racing
        # underneath.
        store = _store_of_maxsize(4, tmp_path)
        workers, iters = 8, 120
        errors: list[str] = []

        def work(worker: int) -> None:
            with cache_store_scope(store), obs.collecting() as col:
                for step in range(iters):
                    i = (worker + step) % len(sources)
                    if _serve(sources[i]) != str(i):
                        errors.append(f"torn read for program {i}")
                looked_up = sum(
                    1 for e in col.events
                    if e.kind in ("cache.hit", "cache.miss")
                    and e.fields.get("cache") == "pycode")
                if looked_up != iters:
                    errors.append(
                        f"worker {worker}: {looked_up} hit/miss events "
                        f"for {iters} lookups")

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(work, range(workers)):
                pass
        assert not errors, errors[:5]
        # The LRU bound held under the race.
        assert len(store.parse) <= store.parse.maxsize
        # No temp-file residue from the atomic writes.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_concurrent_scope_isolation(self):
        """Two threads in different store scopes never see each
        other's entries (contextvar scoping, not globals)."""
        a, b = CacheStore(), CacheStore()
        source = _run_source(0)
        barrier = threading.Barrier(2)
        lens = {}

        def use(name: str, store: CacheStore, populate: bool) -> None:
            with cache_store_scope(store):
                barrier.wait()
                if populate:
                    _serve(source)
                barrier.wait()
                with obs.collecting() as col:
                    _serve(source)
                lens[name] = col.counters.get("cache.hit", 0)

        threads = [threading.Thread(target=use, args=("a", a, True)),
                   threading.Thread(target=use, args=("b", b, False))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Only ``a`` hits: its parse entry, then the code riding on it.
        assert lens == {"a": 2, "b": 0}

    def test_lru_bound_holds_under_concurrent_puts(self):
        # Every TermCache locks: racing puts never overrun maxsize and
        # a get sees a miss or the one value stored under its key.
        lru = ucache.TermCache("t", maxsize=4)
        errors: list[str] = []

        def hammer(worker: int) -> None:
            for i in range(400):
                key, probe = (worker + i) % 16, (worker + i + 1) % 16
                lru.put(key, key * 10)
                found = lru.get(probe)
                if found is not ucache._MISS and found != probe * 10:
                    errors.append(f"{probe}: {found!r}")
                if len(lru) > lru.maxsize:
                    errors.append(f"size {len(lru)}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert errors == []
        assert len(lru) == lru.maxsize

    def test_admission_state_holds_under_concurrent_sightings(self):
        # The parse store's window and ghost list change under its
        # table's lock: racing sightings never leave a window key out
        # of the table, a ghost in it, or more than maxsize entries.
        lru = ucache.AdmittingCache("t", maxsize=4)
        errors: list[str] = []

        def hammer(worker: int) -> None:
            for i in range(400):
                key = (worker + i * 7) % 9
                lru.put(key, key * 10)
                probe = (key + worker) % 9
                found = lru.get(probe)
                if found is not ucache._MISS and found != probe * 10:
                    errors.append(f"{probe}: {found!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(hammer, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(lru) <= lru.maxsize
        assert len(lru._window) <= ucache._WINDOW
        assert set(lru._window) <= set(lru._table)
        assert not set(lru._ghosts) & set(lru._table)
        assert len(lru._ghosts) <= lru.maxsize


class TestDiskTierHardening:
    def test_atomic_write_no_residue(self, tmp_path):
        store = CacheStore(tmp_path)
        store.disk_write_pycode("abc123", _module(1))
        path = store._disk_path("abc123")
        assert path.read_text().startswith("def _main")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_corrupt_entry_unlinked_on_read(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store._disk_path("deadbeef")
        path.parent.mkdir(parents=True)
        path.write_text("def _main(:\n")  # not even valid Python
        assert store.disk_read_pycode("deadbeef") is None
        assert not path.exists()

    def test_corrupt_pycode_entry_unlinked(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store._disk_path("feedface")
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n")  # valid Python, but no _main
        assert store.disk_read_pycode("feedface") is None
        assert not path.exists()

    def test_unwritable_disk_degrades_to_memory(self, tmp_path,
                                                monkeypatch):
        store = CacheStore(tmp_path)
        monkeypatch.setattr(
            ucache.os, "replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("full")))
        with cache_store_scope(store), obs.collecting() as col:
            assert _serve(_run_source(7)) == "7"
            assert _serve(_run_source(7)) == "7"
        hits = [e.fields["tier"] for e in col.events
                if e.kind == "cache.hit" and e.fields["cache"] == "pycode"]
        assert hits == ["memory"]
        assert not list(tmp_path.rglob("*.tmp"))


class TestEvictionChurnDifferential:
    """A store too small to hold anything must be observationally
    invisible (the ``test_cache_differential`` pattern, pointed at
    eviction instead of hits)."""

    SOURCES = [
        """(invoke (unit (import) (export go)
             (define go (lambda (n) (* n 3))) (go 14)))""",
        """(invoke (compound (import) (export out)
             (link ((unit (import) (export mk)
                      (define mk (lambda (x) (+ x 1))) mk)
                    (with) (provides mk))
                   ((unit (import mk) (export out)
                      (define out (lambda () (mk 41))) (out))
                    (with mk) (provides out)))))""",
    ]

    def _observe(self, store: "CacheStore | None"):
        out = []
        scope = (cache_store_scope(store) if store is not None
                 else terms.caching(False))
        # Churn: revisit every program, back to back, then interleaved
        # (each revisit a ghost re-sighting in the parse store).
        order = [source for source in self.SOURCES for _ in range(3)]
        order += self.SOURCES * 3
        with scope:
            for source in order:
                out.append(run_pipeline(
                    {"op": "run", "source": source, "backend": "interp"},
                    {}))
        return out

    def test_churning_store_matches_uncached(self):
        tiny = _store_of_maxsize(1)  # every LRU holds one entry
        with obs.collecting() as col:
            cached = self._observe(tiny)
        uncached = self._observe(None)
        assert cached == uncached
        evictions = [e for e in col.events if e.kind == "cache.evict"]
        assert evictions, "churn never evicted — not exercising LRU"
