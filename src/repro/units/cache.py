"""Content-addressed caches for parsed, linked, and compiled units.

Units are syntax, and structurally identical syntax flattens and
compiles identically — so the Figure 11 linker, the pycode backend,
and the dynamic-linking archive can reuse results keyed by stable
digests.  Two stores live in a :class:`CacheStore`:

* the **parse store** (``dynlink``) — one :class:`ParseEntry` per
  program text (archive retrievals and served programs), so the same
  text parses once.  The entry also carries the *verdict*, the
  strictness modes in which :func:`repro.units.check.check_program`
  passed on that syntax (Figure 10 depends on nothing else), and the
  compiled pycode code object (Figure 12 compiles a unit once and
  reuses that body).  Failures never record either, so their errors
  and trace events re-fire;
* the **flatten memo** — see its section below.  It is what makes a
  warm re-link cheap: it stores whole flattened compound subtrees, so
  individual Figure 11 merges are never cached on their own (a merge
  is cheaper to redo than to key and store).  The Section 4.2.4
  optimizer and the per-unit Figure 10 checks are not cached: a memo
  in front of either cost more than it saved (docs/PERFORMANCE.md).

Scoping: the caches are **inactive by default** and enabled per scope.
:func:`unit_cache_scope` creates a *fresh* :class:`CacheStore` for the
dynamic extent of the block — the CLI wraps each invocation in one
(one invocation behaves like one process), benches and tests open
their own.  :func:`cache_store_scope` instead installs an *existing*
store, which is how ``repro serve`` shares one long-lived,
concurrency-safe store across requests: the daemon constructs a
``CacheStore`` once and every worker thread enters
``cache_store_scope(store)`` for its request.  Scoping is
:mod:`contextvars`-based, so concurrent requests each see exactly the
store their scope installed and a library caller can never observe
another caller's cache state.  ``--no-term-cache`` (the
:mod:`repro.lang.terms` switch) also disables them.

Concurrency: every store guards each in-memory LRU with a lock and
the disk tier with striped per-digest locks.  No lock is ever held
across a ``compute()`` callback, so two racing misses on the same key
may both compute (a benign stampede — the values are
structurally identical and last-put wins); what the locks rule out is
*torn state*: a reader never observes a half-updated LRU, a
half-written disk entry (writes go to a unique temp file and
``os.replace`` into place), or a concurrent unlink-on-corrupt.

Eviction: every store is size-bounded (LRU); keys are content
digests, so an entry never goes stale and nothing needs invalidating.
:meth:`CacheStore.clear` empties the in-memory stores (the serve
``flush`` op).

Admission: the parse store admits a text to its LRU only on the
text's second sighting (:class:`AdmittingCache`, after 2Q).  A first
sighting waits in a window of :data:`_WINDOW` entries; a text that
leaves the window unhit leaves only its digest, as a ghost, and a
later sighting of a ghost is a miss that admits it.  Served traffic
that never repeats a text (every edit-relink step, every distinct
cold compile) so keeps the syntax and code of two texts, not of 256,
and its ASTs die by reference counting instead of being promoted and
traced by every older-generation collection.  A repeated archive
retrieval or a warm re-send hits from its second sighting on.
Recording a verdict or code (:func:`record_entry`) is not a sighting.

Every lookup emits exactly one ``cache.hit`` or ``cache.miss`` event
(guarded, so nothing is built when observability is off) carrying the
cache's name; LRU evictions emit ``cache.evict``.  The on-disk tier
(enabled by ``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment
variable) holds only generated pycode modules, under a directory
named by :func:`pycode_fingerprint`, so a change to the digest schema
or the generator strands old entries instead of misreading them.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from types import CodeType
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.lang import terms as _terms
from repro.lang.ast import Expr
from repro.obs import current as _obs_current
from repro.serve import chaos as _chaos

_MISS = object()

#: LRU capacity per store.
_SIZES = {"dynlink": 256, "flatten": 512}

#: How many stripes the per-digest disk locks are spread over.
_DIGEST_STRIPES = 64


class TermCache:
    """A bounded, lock-guarded LRU map from digests to results.

    Pure storage: event emission happens in the ``cached_*`` helpers
    below (one event per *logical* lookup, even when a memory miss
    falls through to the disk tier), except eviction, which only this
    class can see.  Keys are content digests, so an entry is never
    stale; the LRU bound alone sheds old results.
    """

    def __init__(self, name: str, maxsize: int):
        self.name = name
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._table: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key: object) -> object:
        with self._lock:
            found = self._table.get(key, _MISS)
            if found is not _MISS:
                self._table.move_to_end(key)
        return found

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            evicted = int(len(self._table) > self.maxsize)
            if evicted:
                self._table.popitem(last=False)
        self._emit_put(evicted)

    def _emit_put(self, evicted: int) -> None:
        col = _obs_current()
        if col is not None:
            for _ in range(evicted):
                col.emit("cache.evict", {"cache": self.name})
            col.gauge(f"cache.occupancy.{self.name}", len(self._table))

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()


#: Entries the parse store holds on probation: the text being served
#: and the one before it.
_WINDOW = 2


class AdmittingCache(TermCache):
    """A :class:`TermCache` that admits a key on its second sighting
    (2Q; Johnson & Shasha, VLDB 1994).

    A first :meth:`put` lands in a FIFO *window* of :data:`_WINDOW`
    entries.  An entry that leaves the window unhit leaves only its
    key behind, in a *ghost* list of at most ``maxsize`` keys.  A
    :meth:`get` that hits the window, or a :meth:`put` of a ghost key,
    admits the key to the LRU.  Window entries live in ``_table`` too
    and count toward ``maxsize``; evictions from the window and from
    the LRU both emit ``cache.evict``.
    """

    def __init__(self, name: str, maxsize: int):
        super().__init__(name, maxsize)
        # Keys of ``_table`` not yet admitted, oldest first.
        self._window: "OrderedDict[object, None]" = OrderedDict()
        self._ghosts: "OrderedDict[object, None]" = OrderedDict()

    def get(self, key: object) -> object:
        with self._lock:
            found = self._table.get(key, _MISS)
            if found is not _MISS:
                self._window.pop(key, None)
                self._table.move_to_end(key)
        return found

    def put(self, key: object, value: object) -> None:
        evicted = 0
        with self._lock:
            seen_before = key in self._table or key in self._ghosts
            self._table[key] = value
            self._table.move_to_end(key)
            if seen_before:
                self._window.pop(key, None)
                self._ghosts.pop(key, None)
            else:
                self._window[key] = None
                if len(self._window) > _WINDOW:
                    self._demote(next(iter(self._window)))
                    evicted += 1
            while len(self._table) > self.maxsize:
                # The least recent admitted key, else the oldest
                # window key; never the key just stored.
                victim = next((k for k in self._table
                               if k not in self._window and k != key),
                              None)
                if victim is None:
                    self._demote(next(k for k in self._window
                                      if k != key))
                else:
                    del self._table[victim]
                evicted += 1
        self._emit_put(evicted)

    def _demote(self, key: object) -> None:
        """Drop a window entry, keeping only its key as a ghost."""
        del self._window[key]
        del self._table[key]
        self._ghosts[key] = None
        if len(self._ghosts) > self.maxsize:
            self._ghosts.popitem(last=False)

    def replace(self, key: object, value: object) -> None:
        """Update the entry of a resident key; an absent one (a ghost,
        or evicted) stays absent.  Not a sighting."""
        with self._lock:
            if key in self._table:
                self._table[key] = value

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self._window.clear()
            self._ghosts.clear()


#: The sources that shape a generated module: the generator, the runtime
#: it calls, the tables it bakes in, and the analysis it branches on.
_PYCODE_SOURCES = ("backend/codegen.py", "backend/runtime.py",
                   "lang/prelude.py", "lang/prims.py", "units/valuable.py")


@functools.cache
def pycode_fingerprint() -> str:
    """The disk tier's directory: the digest schema plus a digest of
    :data:`_PYCODE_SOURCES`, so a module written by other code is
    never read."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for name in _PYCODE_SOURCES:
        digest.update((root / name).read_bytes())
    return f"{_terms.SCHEMA}-{digest.hexdigest()[:16]}"


class CacheStore:
    """One complete set of content-addressed stores plus the disk tier.

    The unit of cache *scoping*: :func:`unit_cache_scope` creates a
    private one per invocation; ``repro serve`` creates one at startup
    and shares it across every request via :func:`cache_store_scope`.
    In multi-process serve mode each worker process instead builds its
    own, and sibling workers share compiled code *only* through the
    pycode disk tier: writes are atomic (per-process temp file +
    ``os.replace``) and keys are content-addressed ``tk2`` digests, so
    concurrent writers of the same key race to install identical
    bytes — last-replace-wins is correct by construction, with no
    cross-process locking.

    Every store locks: one lock per in-memory LRU and
    :data:`_DIGEST_STRIPES` striped locks for disk-tier reads, writes,
    and unlink-on-corrupt.
    """

    def __init__(self, disk_dir: str | Path | None = None):
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.parse = AdmittingCache("dynlink", _SIZES["dynlink"])
        self.flatten = TermCache("flatten", _SIZES["flatten"])
        self.caches = (self.parse, self.flatten)
        self._stripes = tuple(threading.Lock()
                              for _ in range(_DIGEST_STRIPES))

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        """Empty every in-memory store (the disk tier is untouched)."""
        for cache in self.caches:
            cache.clear()

    def occupancy(self) -> dict[str, int]:
        """Entries resident per store, for stats endpoints."""
        return {cache.name: len(cache) for cache in self.caches}

    # -- the pycode disk tier (only when ``disk_dir`` is set) -----------

    def _digest_lock(self, key: str) -> threading.Lock:
        return self._stripes[hash(key) % _DIGEST_STRIPES]

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / pycode_fingerprint() / "pycode" \
            / f"{key}.py"

    def disk_write_pycode(self, key: str, source: str) -> None:
        """Atomically publish one disk entry (temp file + replace).

        Concurrent writers of the same digest write identical content
        (the keys are content addresses), so last-replace-wins is
        correct; a reader racing the replace sees either the old
        complete entry or the new complete entry, never a torn one.
        """
        path = self._disk_path(key)
        tmp: Path | None = None
        with self._digest_lock(key):
            try:
                if _chaos._armed:
                    _chaos.cache_io("pycode.write")
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(
                    f"{path.name}.{os.getpid()}."
                    f"{threading.get_ident()}.tmp")
                tmp.write_text(source, encoding="utf-8")
                os.replace(tmp, path)
            except OSError:
                # A read-only or failing cache dir degrades to
                # memory-only; never leave a temp file behind.
                if tmp is not None:
                    try:
                        tmp.unlink()
                    except OSError:
                        pass

    def disk_read_pycode(self, key: str):
        """Load and compile a pycode disk entry, or ``None``.

        An entry that fails to ``compile()`` — or compiles but does
        not define ``_main`` (a truncation at a line boundary parses
        fine) — is corrupt: unlink it (under the digest lock) and
        report a miss.
        """
        path = self._disk_path(key)
        with self._digest_lock(key):
            try:
                if _chaos._armed:
                    _chaos.cache_io("pycode.read")
                source = path.read_text(encoding="utf-8")
            except OSError:
                return None
            try:
                code = compile(source, "<pycode>", "exec")
                if "_main" not in code.co_names:
                    raise ValueError("no _main in cached module")
                return code
            except (SyntaxError, ValueError):
                try:
                    path.unlink()
                except OSError:
                    pass
                return None


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------

_STORE: ContextVar[CacheStore | None] = ContextVar(
    "repro_unit_cache_store", default=None)

#: Count of entered cache scopes process-wide; ``_active_store()``
#: reads this plain global before touching the contextvar, so the
#: common case — no scope anywhere — costs one integer test.
_scopes_open = 0


def _active_store() -> CacheStore | None:
    """The store in scope, or ``None`` when caching is off entirely."""
    if not _scopes_open or not _terms._enabled:
        return None
    return _STORE.get()


def unit_caches_active() -> bool:
    """Are the content-addressed caches consulted right now?"""
    return _active_store() is not None


@contextmanager
def cache_store_scope(store: CacheStore) -> Iterator[CacheStore]:
    """Make ``store`` the consulted store for the dynamic extent.

    This is the sharing primitive: a long-lived process (``repro
    serve``) constructs one concurrency-safe store and each worker
    thread wraps its request in this scope.  Scoping is contextvar-
    based, so it must be (re-)entered inside the worker — executor
    threads do not inherit the submitting context.  Scopes nest; on
    exit the previous store (possibly none) is restored exactly.
    """
    global _scopes_open
    token = _STORE.set(store)
    _scopes_open += 1
    try:
        yield store
    finally:
        _scopes_open -= 1
        _STORE.reset(token)


@contextmanager
def unit_cache_scope(disk_dir: str | Path | None = None
                     ) -> Iterator[CacheStore]:
    """Activate a fresh private store for the dynamic extent.

    Entering installs empty stores (and optionally a disk directory);
    exiting restores whatever was active before, so scopes nest and a
    library caller can never observe another caller's cache state.
    """
    with cache_store_scope(CacheStore(disk_dir)) as store:
        yield store


def _emit_hit(name: str, tier: str, t_start: float) -> None:
    col = _obs_current()
    if col is not None:
        col.emit("cache.hit", {"cache": name, "tier": tier})
        # Hit service time: digesting the term plus the lookup (and,
        # for a disk hit, reading and compiling the entry).
        col.observe(f"cache.hit.{name}", time.perf_counter() - t_start)


def _emit_miss(name: str, t_start: float) -> None:
    col = _obs_current()
    if col is not None:
        col.emit("cache.miss", {"cache": name})
        # Miss service time: the overhead of *concluding* the miss (key
        # + lookup), not the recomputation the stage spans own.
        col.observe(f"cache.miss.{name}", time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# The parse store: one entry per program text, with the check verdict
# and the compiled code
# ---------------------------------------------------------------------------


class ParseEntry(NamedTuple):
    """One program text: its syntax, the ``strict_valuable`` flags
    ``check_program`` passed with, and its compiled pycode module.
    ``key`` is ``None`` (never recorded) when caching is inactive."""

    key: str | None
    expr: Expr
    verdict: frozenset[bool] = frozenset()
    code: CodeType | None = None


def parse_key(parser: str, origin: str, source: str,
              libraries: Sequence[tuple[str, str]] = ()) -> str:
    """The parse store's key, over ``(text, origin)`` ``libraries``
    too.  Fields are length-prefixed: a separator is not injective,
    since any field may contain it.  JSON text may hold lone
    surrogates, which ``surrogatepass`` encodes injectively."""
    digest = hashlib.sha256()
    fields = [parser, origin, source]
    for text, lib_origin in libraries:
        fields += (lib_origin, text)
    for field in fields:
        data = field.encode("utf-8", "surrogatepass")
        digest.update(b"%d:" % len(data))
        digest.update(data)
    return digest.hexdigest()


def cached_parse(parser: str, origin: str, source: str,
                 compute: Callable[[], Expr],
                 libraries: Sequence[tuple[str, str]] = ()) -> ParseEntry:
    """Parse through the store; ``compute`` must be ``parser`` on
    ``source`` at ``origin`` with ``libraries``, as the key says."""
    store = _active_store()
    if store is None:
        return ParseEntry(None, compute())
    t_start = time.perf_counter()
    key = parse_key(parser, origin, source, libraries)
    found = store.parse.get(key)
    if found is not _MISS:
        _emit_hit("dynlink", "memory", t_start)
        return found  # type: ignore[return-value]
    _emit_miss("dynlink", t_start)
    entry = ParseEntry(key, compute())
    store.parse.put(key, entry)
    return entry


def record_entry(entry: ParseEntry) -> ParseEntry:
    """Replace the stored entry by ``entry`` if its text is still
    resident (no event: not a lookup, nor a sighting).

    Entries are never mutated, so the store's lock covers the update.
    Only a completed check or compile may record one."""
    store = _active_store()
    if store is not None and entry.key is not None:
        store.parse.replace(entry.key, entry)
    return entry


# ---------------------------------------------------------------------------
# Compiling pycode: reuse the parse entry's code, else the disk tier
# ---------------------------------------------------------------------------


def cached_pycode(expr: Expr, generate: Callable[[], str],
                  code: CodeType | None = None) -> CodeType:
    """A program's compiled Python module: ``code`` (the parse
    entry's; the memory tier) if given, else the disk tier's, else
    generated.

    Only the disk tier digests the program: codegen is deterministic
    in its shape, so equal digests mean equal source.  Failures of
    ``generate`` or ``compile`` propagate before anything is stored.
    """
    t_start = time.perf_counter()
    if code is not None:
        _emit_hit("pycode", "memory", t_start)
        return code
    store = _active_store()
    if store is None:
        return compile(generate(), "<pycode>", "exec")
    key = None
    if store.disk_dir is not None:
        key = _terms.try_term_key(expr)
        loaded = store.disk_read_pycode(key) if key is not None else None
        if loaded is not None:
            _emit_hit("pycode", "disk", t_start)
            return loaded
    _emit_miss("pycode", t_start)
    source = generate()
    code = compile(source, "<pycode>", "exec")
    if key is not None:
        store.disk_write_pycode(key, source)
    return code


# ---------------------------------------------------------------------------
# The flatten memo (memory tier only)
# ---------------------------------------------------------------------------
#
# Warm link time is dominated by re-walking the whole program tree.
# The memo caches the
# *flattened result of an entire compound subtree*, keyed on the
# subtree's digest plus everything `_flatten` consults about its
# context: the unit bindings in scope (clause variables resolve through
# them) and the program's assigned-name set (which gates that
# resolution).  A hit skips the subtree walk entirely; the linker
# replays the recorded `link.static`/`reduce.compound` span kinds and
# stat deltas so trace-event counts and `LinkStats` stay
# cache-invariant (the differential sweeps compare both).  Failed
# merges raise out of the compute path before anything is stored.


def flatten_key(expr: Expr, units_in_scope: dict,
                assigned: frozenset) -> tuple | None:
    """The context-complete memo key for one compound subtree."""
    if not unit_caches_active():
        return None
    key = _terms.try_term_key(expr)
    if key is None:
        return None
    scope_sig = []
    for name in sorted(units_in_scope):
        unit_key = _terms.try_term_key(units_in_scope[name])
        if unit_key is None:
            return None
        scope_sig.append((name, unit_key))
    return (key, tuple(scope_sig), tuple(sorted(assigned)))


def flatten_lookup(key: tuple | None):
    """The stored ``(result, merged, dynamic, replay)`` entry, or
    ``None`` (emitting the hit/miss event either way)."""
    if key is None:
        return None
    store = _active_store()
    if store is None:
        return None
    t_start = time.perf_counter()
    found = store.flatten.get(key)
    if found is not _MISS:
        _emit_hit("flatten", "memory", t_start)
        return found
    _emit_miss("flatten", t_start)
    return None


def flatten_store(key: tuple | None, entry: tuple) -> None:
    store = _active_store()
    if key is not None and store is not None:
        store.flatten.put(key, entry)


def replay_link_events(replay: tuple) -> None:
    """Re-emit the span/event *kinds* a memoized flatten produced.

    Each marker is ``("m", defns)`` for a static merge (a
    ``link.static`` span enclosing the ``reduce.compound`` span, as the
    computed path nests them) or ``("d",)`` for a compound left
    dynamic (a flat ``link.static`` event) — so event counts per kind
    are identical with and without the memo.
    """
    col = _obs_current()
    if col is None:
        return
    for marker in replay:
        if marker[0] == "m":
            with col.span("link.static", {"merged": True, "replay": True}):
                with col.span("reduce.compound", {"defns": marker[1],
                                                  "replay": True}):
                    pass
        else:
            col.emit("link.static", {"merged": False, "replay": True})
