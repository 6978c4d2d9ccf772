"""The content-addressed unit caches: scoping, events, disk, CLI.

The invariants under test:

* caches are inert by default and strictly scoped — library callers
  never observe another caller's cache state;
* every lookup emits exactly one ``cache.hit``/``cache.miss`` event
  naming its cache, and evictions emit ``cache.evict``;
* the parse store admits a text on its second sighting: a first one
  waits in a small window, a text that leaves it unhit leaves only its
  digest, and recording a verdict or code is not a sighting;
* the parse entry's check verdict skips re-checking a served program
  only in the strictness mode it passed, never for a failure or an
  exhausted check; libraries are part of the text it was given for;
* the parse key is injective over its fields (parser, origin, source,
  libraries);
* a cold cached link does no pretty-printing (merges are not stored);
* the flatten memo shares one merge among structural copies, keyed
  on a digest that ignores source locations but not link shape;
* a store has two tiers, and only pycode modules reach the disk;
* a served repeat reuses the code object on its parse entry; the
  pycode disk tier round-trips generated modules across scopes, treats
  corrupt entries as misses, and never reads an entry written under
  another generator fingerprint;
* ``repro trace report`` renders a cache-efficiency section, and the
  CLI flags (``--no-term-cache``, ``--cache-dir``, ``bench``) work.
"""

import inspect
import json

import pytest

from repro import obs
from repro.lang import terms
from repro.lang.errors import CheckError, LangError
from repro.limits import Budget, BudgetExceeded, budget_scope
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.units import cache
from repro.units.cache import (
    TermCache,
    unit_cache_scope,
    unit_caches_active,
)
from repro.serve import handlers
from repro.units.check import check_program
from repro.dynlink.archive import UnitArchive

UNIT_SRC = ("(unit (import a) (export f)"
            " (define f (lambda (x) (+ x a))) (void))")


def _unit(source=UNIT_SRC):
    return parse_program(source)


def _canon(text):
    """Rename gensym'd ``name%N`` tokens by first occurrence, so two
    alpha-equivalent printed terms compare equal."""
    import re

    seen = {}

    def repl(match):
        return seen.setdefault(match.group(0), f"@{len(seen)}")

    return re.sub(r"[^\s()\"]+%\d+", repl, text)


def _cache_events(col, kind):
    return [e for e in col.events if e.kind == kind]


def _request(source=UNIT_SRC, timings=None, **fields):
    """One served pipeline request (``check`` unless ``op`` is given);
    its parse is a lookup in the ``dynlink`` tier."""
    req = {"op": "check", "source": source, **fields}
    return handlers.run_pipeline(req, {} if timings is None else timings)


class TestTermCacheStore:
    def test_lru_eviction_emits_event(self):
        store = TermCache("t", maxsize=2)
        with obs.collecting() as col:
            store.put("a", 1)
            store.put("b", 2)
            store.get("a")  # refresh 'a' so 'b' is the LRU victim
            store.put("c", 3)
        assert len(store) == 2
        assert store.get("b") is not store.get("a")
        evicts = _cache_events(col, "cache.evict")
        assert [e.fields["cache"] for e in evicts] == ["t"]


class TestParseStoreAdmission:
    """The parse store admits a text to its LRU on the second sighting
    (2Q): a first sighting waits in a small window, and a text that
    leaves the window unhit leaves only its digest, as a ghost."""

    def _lookup(self, key):
        """One ``cached_parse`` sighting of ``key``; its events."""
        with obs.collecting() as col:
            cache.cached_parse("p", "o", key, lambda: key)
        return [e.kind for e in col.events
                if e.kind in ("cache.hit", "cache.miss", "cache.evict")]

    def test_first_sighting_is_held_only_in_the_window(self):
        store = cache.CacheStore().parse
        store.put("a", 1)
        assert list(store._window) == ["a"]
        assert list(store._table) == ["a"] and not store._ghosts

    def test_hit_in_the_window_admits(self):
        store = cache.CacheStore().parse
        store.put("a", 1)
        assert store.get("a") == 1
        assert "a" in store._table and not store._window

    def test_ghost_resighting_misses_then_admits(self, monkeypatch):
        monkeypatch.setattr(cache, "_WINDOW", 1)
        with unit_cache_scope() as scope:
            store = scope.parse
            assert self._lookup("A") == ["cache.miss"]
            # B pushes A out of the window: only A's digest stays.
            assert self._lookup("B") == ["cache.miss", "cache.evict"]
            a_key = cache.parse_key("p", "o", "A")
            assert list(store._ghosts) == [a_key]
            assert a_key not in store._table
            assert self._lookup("A") == ["cache.miss"]
            assert a_key in store._table and a_key not in store._window
            assert not store._ghosts
            assert self._lookup("A") == ["cache.hit"]

    def test_record_entry_is_not_a_sighting(self, monkeypatch):
        monkeypatch.setattr(cache, "_WINDOW", 1)
        with unit_cache_scope() as scope:
            store = scope.parse
            first = cache.cached_parse("p", "o", "A", lambda: "A")
            recorded = cache.record_entry(
                first._replace(verdict=frozenset({True})))
            assert list(store._window) == [first.key]
            assert store._table[first.key] == recorded
            cache.cached_parse("p", "o", "B", lambda: "B")
            cache.record_entry(first._replace(verdict=frozenset({False})))
            assert first.key not in store._table
            assert list(store._ghosts) == [first.key]

    def test_clear_forgets_the_ghosts(self):
        store = cache.CacheStore().parse
        for key in "abcd":
            store.put(key, key)
        assert store._ghosts
        store.clear()
        assert not (store._table or store._window or store._ghosts)
        store.put("a", "a")
        assert list(store._window) == ["a"]  # a first sighting again

    @pytest.mark.parametrize("maxsize", [1, 2, 3, 8])
    def test_size_bound_holds(self, maxsize):
        store = cache.AdmittingCache("t", maxsize)
        for step in range(400):
            key = (step * 7919) % 13
            if step % 3:
                store.put(key, key)
            elif store.get(key) is not cache._MISS:
                assert store._table[key] == key
            assert len(store) <= maxsize
            assert len(store._ghosts) <= maxsize
            assert set(store._window) <= set(store._table)
            assert not set(store._ghosts) & set(store._table)


class TestScoping:
    def test_inactive_by_default(self):
        assert not unit_caches_active()
        with obs.collecting() as col:
            check_program(_unit(), strict_valuable=False)
            check_program(_unit(), strict_valuable=False)
        assert not any(e.kind.startswith("cache.") for e in col.events)
        assert col.counters["check.unit"] == 2

    def test_scope_activates_and_restores(self):
        with unit_cache_scope():
            assert unit_caches_active()
            with unit_cache_scope():
                assert unit_caches_active()
            assert unit_caches_active()
        assert not unit_caches_active()

    def test_each_scope_starts_cold(self):
        def misses():
            with obs.collecting() as col:
                _request()
            return len(_cache_events(col, "cache.miss"))

        with unit_cache_scope():
            assert misses() == 1
        with unit_cache_scope():
            assert misses() == 1  # nothing leaked from the first scope

    def test_nested_scope_does_not_see_outer_entries(self):
        with unit_cache_scope():
            _request()
            with unit_cache_scope(), obs.collecting() as col:
                _request()
            assert len(_cache_events(col, "cache.miss")) == 1

    def test_no_term_cache_disables_content_caches_too(self):
        with terms.caching(False), unit_cache_scope():
            assert not unit_caches_active()
            with obs.collecting() as col:
                _request()
            assert not any(e.kind.startswith("cache.")
                           for e in col.events)


class TestCheckVerdict:
    """The parse entry carries the strictness modes its program passed
    Figure 10 in; a served repeat in one of them skips the checker."""

    LENIENT_ONLY = ("(invoke (unit (import) (export)"
                    " (define x (display \"hi\")) x))")

    @staticmethod
    def _check_spans(col):
        return [e for e in col.events if e.kind.startswith("check.")]

    def test_warm_repeat_skips_check_but_still_times_it(self):
        with unit_cache_scope():
            with obs.collecting() as cold:
                _request()
            timings = {}
            with obs.collecting() as warm:
                assert _request(timings=timings) == ("ok", "")
        assert cold.counters["check.unit"] == 1
        assert not self._check_spans(warm)
        assert warm.counters["stage.check"] == 1
        assert "check" in timings
        # The verdict rode on the parse lookup: no extra event.
        assert [e.kind for e in warm.events
                if e.kind.startswith("cache.")] == ["cache.hit"]

    def test_failing_program_errors_identically_every_time(self):
        bad = "(invoke (unit (import) (export nope) (define x 1) x))"
        errors = []
        with unit_cache_scope(), obs.collecting() as col:
            for _ in range(3):
                with pytest.raises(CheckError) as err:
                    _request(bad)
                errors.append((str(err.value), str(err.value.loc)))
        assert len(set(errors)) == 1
        assert col.counters["check.unit"] == 3
        assert len(_cache_events(col, "cache.hit")) == 2  # parse only

    def test_lenient_verdict_does_not_satisfy_strict(self):
        with unit_cache_scope():
            assert _request(self.LENIENT_ONLY, lenient=True)[0] == "ok"
            with pytest.raises(CheckError, match="not valuable"):
                _request(self.LENIENT_ONLY)
            with obs.collecting() as col:
                _request(self.LENIENT_ONLY, lenient=True)
        assert not self._check_spans(col)

    def test_libraries_get_a_verdict_of_their_own(self):
        library = ("(define five (invoke (unit (import) (export) 5)))",
                   "<lib>")
        with unit_cache_scope():
            _request()  # a verdict for the bare text
            with obs.collecting() as col:
                for _ in range(2):
                    _request(libraries=[library])
            # The first request checked both units and recorded a
            # verdict for the program with its library; the bare
            # text's verdict was never mistaken for it.
            assert col.counters["check.unit"] == 2
            with obs.collecting() as col:
                _request(UNIT_SRC + " ", libraries=[library])
                _request(UNIT_SRC + " ")
        assert col.counters["check.unit"] == 3

    def test_exhausted_check_records_no_verdict(self, monkeypatch):
        """A check the deadline aborts must not mark the text as
        passed, or a later healthy run would skip real premises."""
        import time

        real_check = handlers.check_program
        entered = []

        def slow_check(expr, strict_valuable):
            entered.append(expr)
            time.sleep(0.25)  # outlive the deadline inside the check
            return real_check(expr, strict_valuable=strict_valuable)

        with unit_cache_scope():
            monkeypatch.setattr(handlers, "check_program", slow_check)
            with budget_scope(Budget(deadline_s=0.2)):
                with pytest.raises(BudgetExceeded):
                    _request()
            assert entered, "the deadline fired before the check ran"
            monkeypatch.setattr(handlers, "check_program", real_check)
            with obs.collecting() as col:
                _request()
            assert col.counters["check.unit"] == 1
            # Only the completed check recorded a verdict.
            with obs.collecting() as col:
                _request()
            assert not self._check_spans(col)


class TestParseKey:
    def test_fields_never_run_together(self):
        """Moving text between the origin and the source, or between a
        library's origin and text, changes the key."""
        key = cache.parse_key
        assert key("p", "a\x00(+ 1 2)", "42") != key("p", "a",
                                                      "(+ 1 2)\x0042")
        assert key("p", "o", "s", [("t", "lo")]) != key(
            "p", "o", "s", [("", "lot")])
        assert key("p", "o", "s", [("t", "o")]) != key("p", "o", "s")
        assert key("parse_script", "o", "s") != key("parse_program",
                                                    "o", "s")

    def test_origin_and_source_do_not_collide(self):
        """Two requests whose origin + NUL + source strings are equal
        are still two texts: the second is parsed on its own, and fails
        as it does uncached."""
        with unit_cache_scope():
            assert _request("42", op="run",
                            origin="a\x00(+ 1 2)") == ("42", "")
            with pytest.raises(LangError, match="unbound variable"):
                _request("(+ 1 2)\x0042", op="run", origin="a")

    def test_lone_surrogates_are_keyed(self):
        """JSON text may carry a lone surrogate: keying it must not
        fail the request, nor make it collide with a real pair."""
        key = cache.parse_key
        assert key("p", "o", "\ud83d\ude00") != key("p", "o", "\U0001f600")
        with unit_cache_scope():
            assert _request('(string-length "\ud800")',
                            op="run") == ("1", "")

    def test_archive_and_served_parses_do_not_share_entries(self):
        """An archive retrieval (``parse_program``) and a served request
        (``parse_script``) of one text under one origin are two
        entries."""
        archive = UnitArchive()
        archive.put_unit("lib", _unit())
        with unit_cache_scope(), obs.collecting() as col:
            archive.retrieve_untyped("lib", ("a",), ("f",))
            _request(UNIT_SRC, origin="<archive:lib>")
        assert [e.fields["cache"] for e in
                _cache_events(col, "cache.miss")] == ["dynlink", "dynlink"]


class TestStoreShape:
    def test_store_has_two_tiers(self):
        with unit_cache_scope() as store:
            assert sorted(store.occupancy()) == ["dynlink", "flatten"]
            assert len(store.caches) == 2
        assert sorted(cache._SIZES) == ["dynlink", "flatten"]

    def test_store_and_lru_take_only_their_sizes(self):
        assert list(inspect.signature(cache.CacheStore).parameters) == [
            "disk_dir"]
        assert list(inspect.signature(TermCache).parameters) == [
            "name", "maxsize"]

    def test_check_link_and_compile_write_nothing_to_disk(self, tmp_path):
        """Only generated pycode modules persist: checking, linking,
        optimizing and the Figure 12 compile all stay in memory."""
        from repro.bench import sharing_program
        from repro.units.compile import compile_expr
        from repro.units.linker import link_and_optimize

        program = sharing_program(4)
        with unit_cache_scope(disk_dir=tmp_path):
            check_program(program)
            linked, _ = link_and_optimize(program)
            compile_expr(linked)
        assert not list(tmp_path.rglob("*"))


class TestCompile:
    def test_scoped_output_matches_unscoped(self):
        """Figure 12 compilation is not cached: inside a cache scope
        it consults no store and produces the same term as outside."""
        from repro.units.compile import compile_expr

        with unit_cache_scope(), obs.collecting() as col:
            scoped = compile_expr(_unit())
            again = compile_expr(_unit())
        assert again is not scoped
        assert not any(e.kind.startswith("cache.") for e in col.events)
        assert col.counters["unit.compile"] == 2
        assert _canon(show(scoped)) == _canon(show(compile_expr(_unit())))


COMPOUND_SRC = """
(compound (import) (export f)
  (link ((unit (import) (export g)
           (define g (lambda (x) (+ x 1))) (void))
         (with) (provides g))
        ((unit (import g) (export f)
           (define f (lambda (y) (g y))) (void))
         (with g) (provides f))))
"""


def _compound(source=COMPOUND_SRC):
    return parse_program(source)


class TestLinkCache:
    def test_structural_copies_share_one_merge(self):
        """The flatten memo stores the merged compound: a structural
        copy linked in the same scope reuses it, and the replayed
        spans keep ``reduce.compound`` counts cache-invariant."""
        from repro.units.linker import flatten

        with unit_cache_scope(), obs.collecting() as col:
            first = flatten(_compound())
            second = flatten(_compound())
        assert second is first
        hits = _cache_events(col, "cache.hit")
        assert [e.fields["cache"] for e in hits] == ["flatten"]
        assert col.counters["reduce.compound"] == 2

    def test_key_ignores_locs_but_not_shape(self):
        from repro.units.cache import flatten_key

        def key(expr):
            return flatten_key(expr, {}, frozenset())

        with unit_cache_scope():
            key_a = key(_compound())
            # Shifting every line moves the source locations only.
            key_b = key(parse_program(COMPOUND_SRC.replace("\n", "\n ")))
            assert key_a is not None and key_a == key_b
            # Hiding an export changes the link-graph shape, not the
            # constituents; the key must still change.
            hidden = _compound(COMPOUND_SRC.replace(
                "(with g) (provides f)", "(with g) (provides)"))
            assert key(hidden) != key_a

    def test_cold_link_never_pretty_prints(self, monkeypatch):
        """Merges are recomputed, not stored: a cold cached link with
        no disk tier must not serialize merged units."""
        from repro.bench import sharing_program
        from repro.lang import pretty
        from repro.units.linker import link_and_optimize

        calls = []

        def counting_show(*args, **kwargs):
            calls.append(args)
            return show(*args, **kwargs)

        program = sharing_program(16)
        monkeypatch.setattr(pretty, "show", counting_show)
        with unit_cache_scope():
            link_and_optimize(program)
        assert not calls


PROGRAM_SRC = ("(invoke (unit (import) (export)"
               " (define f (lambda (x) (* x x))) (f 7)))")


class TestPycodeCache:
    """Code reuse: the parse entry's code object in memory, generated
    Python on disk under ``<fingerprint>/pycode/``.

    Same contract as every other store — strictly scoped, corrupt
    entries are misses that get unlinked, the layout is versioned by
    the digest schema and the generator's sources — plus one of its
    own: an entry must hold a compilable module that defines
    ``_main``, or it is treated as corrupt."""

    def _run(self):
        from repro import backend

        expr = parse_program(PROGRAM_SRC)
        return backend.compile_program(expr).run()

    def _serve(self):
        return _request(PROGRAM_SRC, op="run", backend="pycode")

    def _pycode_events(self, col, kind):
        return [e for e in _cache_events(col, kind)
                if e.fields.get("cache") == "pycode"]

    def test_round_trip_across_scopes(self, tmp_path):
        with unit_cache_scope(disk_dir=tmp_path):
            value, output = self._run()
        entries = list(tmp_path.rglob("*.py"))
        assert entries, "pycode disk tier wrote nothing"
        with unit_cache_scope(disk_dir=tmp_path), obs.collecting() as col:
            revalue, reoutput = self._run()
        hits = self._pycode_events(col, "cache.hit")
        assert [e.fields["tier"] for e in hits] == ["disk"]
        assert not self._pycode_events(col, "cache.miss")
        assert (revalue, reoutput) == (value, output)

    def test_memory_tier_hits_within_scope(self):
        with unit_cache_scope(), obs.collecting() as col:
            first = self._serve()
            second = self._serve()
        assert second == first == ("49", "")
        hits = self._pycode_events(col, "cache.hit")
        assert [e.fields["tier"] for e in hits] == ["memory"]
        assert len(self._pycode_events(col, "cache.miss")) == 1
        assert col.counters["pycode.codegen"] == 2

    def test_code_rides_on_the_parse_entry(self):
        """The entry of a served text holds its code; a different
        text, or a direct compile of an equal tree, generates anew."""
        with unit_cache_scope() as store, obs.collecting() as col:
            self._serve()
            self._run()
            _request(PROGRAM_SRC + " ", op="run", backend="pycode")
        entries = list(store.parse._table.values())
        assert len(entries) == 2
        assert all(e.code is not None and e.verdict == {True}
                   for e in entries)
        assert len(self._pycode_events(col, "cache.miss")) == 3
        assert not self._pycode_events(col, "cache.hit")

    def test_failed_compile_records_no_code(self, monkeypatch):
        from repro import backend

        def exhausted(expr):
            raise BudgetExceeded("deadline", 0.1, 0.2)

        with unit_cache_scope(), obs.collecting() as col:
            monkeypatch.setattr(backend, "generate_source", exhausted)
            with pytest.raises(BudgetExceeded):
                self._serve()
            monkeypatch.undo()
            assert self._serve() == ("49", "")
        assert len(self._pycode_events(col, "cache.miss")) == 2
        assert not self._pycode_events(col, "cache.hit")

    def test_only_the_disk_tier_takes_a_digest(self, tmp_path,
                                               monkeypatch):
        from repro.backend import generate_source

        expr = parse_program(PROGRAM_SRC)
        source = generate_source(expr)
        calls = []
        for name in ("term_key", "try_term_key"):
            real = getattr(terms, name)
            monkeypatch.setattr(
                terms, name, lambda e, real=real: calls.append(e) or real(e))
        with unit_cache_scope():
            cache.cached_pycode(expr, lambda: source)
        assert not calls
        with unit_cache_scope(disk_dir=tmp_path):
            cache.cached_pycode(expr, lambda: source)
        assert calls

    def test_corrupt_entry_is_a_miss_and_unlinked(self, tmp_path):
        with unit_cache_scope(disk_dir=tmp_path):
            value, _ = self._run()
        entry = next(tmp_path.rglob("*.py"))
        entry.write_text("def broken(", encoding="utf-8")
        with unit_cache_scope(disk_dir=tmp_path), obs.collecting() as col:
            revalue, _ = self._run()
        assert [e.fields["cache"] for e in
                _cache_events(col, "cache.miss")] == ["pycode"]
        assert not _cache_events(col, "cache.hit")
        assert revalue == value
        # The corrupt entry was unlinked and replaced by the miss's
        # write: what is on disk now compiles.
        compile(entry.read_text(encoding="utf-8"), str(entry), "exec")

    def test_truncated_entry_without_main_is_also_corrupt(self, tmp_path):
        """A parseable module that lost its ``_main`` (a torn write
        that still happens to be valid Python) must be discarded, not
        loaded."""
        with unit_cache_scope(disk_dir=tmp_path):
            value, _ = self._run()
        entry = next(tmp_path.rglob("*.py"))
        entry.write_text("x = 1\n", encoding="utf-8")
        with unit_cache_scope(disk_dir=tmp_path), obs.collecting() as col:
            revalue, _ = self._run()
        assert [e.fields["cache"] for e in
                _cache_events(col, "cache.miss")] == ["pycode"]
        assert revalue == value
        assert entry.read_text(encoding="utf-8") != "x = 1\n"

    def test_nested_scopes_share_the_disk_tier(self, tmp_path):
        """Memory tables are per scope, the disk tier is per directory:
        an inner scope pointed at the same directory starts with a cold
        table but still reads the outer scope's entry from disk."""
        with unit_cache_scope(disk_dir=tmp_path):
            value = self._serve()
            with unit_cache_scope(disk_dir=tmp_path), \
                    obs.collecting() as col:
                assert self._serve() == value
            inner_hits = self._pycode_events(col, "cache.hit")
            assert [e.fields["tier"] for e in inner_hits] == ["disk"]
            # Back in the outer scope: its parse entry kept the code.
            with obs.collecting() as col:
                assert self._serve() == value
            outer_hits = self._pycode_events(col, "cache.hit")
            assert [e.fields["tier"] for e in outer_hits] == ["memory"]

    def test_versioned_layout(self, tmp_path):
        with unit_cache_scope(disk_dir=tmp_path):
            self._run()
        entry = next(tmp_path.rglob("*.py"))
        assert entry.parent.name == "pycode"
        assert entry.parent.parent.name == cache.pycode_fingerprint()
        assert cache.pycode_fingerprint().startswith(f"{terms.SCHEMA}-")

    def test_fingerprint_covers_the_generator_sources(self):
        from pathlib import Path

        from repro.backend import codegen, runtime
        from repro.lang import prelude

        root = Path(inspect.getfile(cache)).parent.parent
        covered = {root / name for name in cache._PYCODE_SOURCES}
        for module in (codegen, runtime, prelude):
            assert Path(inspect.getfile(module)) in covered

    def test_other_fingerprints_are_never_read(self, tmp_path):
        """A module written by other code (an older generator, or a
        runtime with another ABI) sits under another directory and is
        never served, however well formed."""
        key = terms.term_key(parse_program(PROGRAM_SRC))
        stale = tmp_path / f"v1-{terms.SCHEMA}" / "pycode" / f"{key}.py"
        stale.parent.mkdir(parents=True)
        stale.write_text("def _main(rt):\n    return rt.removed_helper()\n",
                         encoding="utf-8")
        with unit_cache_scope(disk_dir=tmp_path), obs.collecting() as col:
            assert self._run() == (49, "")
        assert len(self._pycode_events(col, "cache.miss")) == 1
        assert not self._pycode_events(col, "cache.hit")
        assert "removed_helper" in stale.read_text(encoding="utf-8")


class TestParseCache:
    def test_repeated_retrieval_parses_once(self):
        archive = UnitArchive()
        archive.put_unit("lib", _unit())
        with unit_cache_scope(), obs.collecting() as col:
            first = archive.retrieve_untyped("lib", ("a",), ("f",))
            second = archive.retrieve_untyped("lib", ("a",), ("f",))
        assert second is first
        hits = [e for e in _cache_events(col, "cache.hit")
                if e.fields["cache"] == "dynlink"]
        assert len(hits) == 1


class TestReportSection:
    def test_cache_efficiency_rendered(self):
        with unit_cache_scope(), obs.collecting() as col:
            _request()
            _request()
        text = obs.render_report(col.events)
        assert "cache efficiency:" in text
        assert "dynlink" in text
        assert "50.0% hit rate" in text

    def test_section_absent_without_cache_events(self):
        with obs.collecting() as col:
            check_program(_unit(), strict_valuable=False)
        assert "cache efficiency:" not in obs.render_report(col.events)


class TestCLI:
    PROGRAM = "(invoke (unit (import) (export) 42))"

    def _write(self, tmp_path, source):
        path = tmp_path / "prog.scm"
        path.write_text(source)
        return str(path)

    def test_no_term_cache_flag_runs(self, tmp_path, capsys):
        from repro.cli import main

        status = main(["--no-term-cache", "run",
                       self._write(tmp_path, self.PROGRAM)])
        assert status == 0
        assert "=> 42" in capsys.readouterr().out
        assert terms.caching_enabled()  # restored after the invocation

    def test_demo_metrics_show_cache_hits(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        status = main(["--metrics-out", str(metrics), "demo",
                       self._write(tmp_path, self.PROGRAM)])
        assert status == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"].get("cache.hit", 0) >= 1
        # The second archive retrieval hits the parse (dynlink) tier,
        # and both retrievals still run their Figure 7 check.
        assert snapshot["histograms"]["cache.hit.dynlink"]["count"] >= 1
        assert snapshot["counters"]["check.unit"] >= 3

    def test_cache_dir_flag_persists_compiles(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        program = self._write(tmp_path, self.PROGRAM)
        assert main(["--cache-dir", str(cache_dir), "run",
                     "--backend", "pycode", program]) == 0
        entries = list(cache_dir.rglob("*"))
        assert [p.parent.name for p in entries if p.is_file()] \
            == ["pycode"]
        metrics = tmp_path / "metrics.json"
        assert main(["--cache-dir", str(cache_dir), "--metrics-out",
                     str(metrics), "run", "--backend", "pycode",
                     program]) == 0
        hists = json.loads(metrics.read_text())["histograms"]
        assert hists["cache.hit.pycode"]["count"] == 1
        assert "cache.miss.pycode" not in hists
        capsys.readouterr()

    def test_cache_dir_before_bare_trace_still_means_steps(
            self, tmp_path, capsys):
        from repro.cli import main

        status = main(["--cache-dir", str(tmp_path / "c"), "trace",
                       self._write(tmp_path, "(+ 1 2)")])
        assert status == 0
        assert "[0]" in capsys.readouterr().out

    def test_bench_quick(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        snap = tmp_path / "snap.json"
        status = main(["bench", "--quick", "--out", str(out),
                       "--snapshot", str(snap)])
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "bench1"
        assert payload["cases"]
        for case in payload["cases"]:
            assert case["uncached_s"] > 0
            assert case["cached_s"] > 0
            assert case["warm_s"] > 0
        assert payload["warm_counters"].get("cache.hit", 0) > 0
        snapshot = json.loads(snap.read_text())
        assert snapshot["counters"].get("cache.hit", 0) > 0
        capsys.readouterr()
