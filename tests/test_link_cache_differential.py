"""Link caching must be observationally invisible: a corpus sweep.

The cache sweep established the discipline; this suite holds the
link stage's store (the ``flatten`` memo) to the same standard.  Every
corpus program — untyped and typed — is statically linked and run
three ways:

* **off** — exactly as ``--no-term-cache`` would: term memoization
  off, content caches inert;
* **cold** — a fresh :func:`unit_cache_scope`, every link a miss;
* **warm** — the same scope, second pass, every link a hit.

All three must agree on the linked program (alpha-normalized: a
cached merge legitimately reuses the first computation's gensym'd
names), the evaluated value and output, and the multiset of
non-``cache.*`` trace-event kinds — a hit skips the merge work, never
the ``reduce.compound``/``link.static`` spans around it.  Link
*failures* must reproduce identically too: a clause violation raises
the same error fresh and warm, because failed links are never cached.
"""

import itertools
import re
from collections import Counter
from contextlib import nullcontext

import pytest

from repro import obs
from repro.lang import subst as lang_subst
from repro.lang import terms
from repro.lang.errors import UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.lang.values import to_write_string
from repro.units.cache import unit_cache_scope
from repro.units.check import check_program
from repro.units.linker import link_and_optimize

from tests.test_corpus import CASES, _matches
from tests.test_corpus_typed import CASES as TYPED_CASES

_GENSYM = re.compile(r"[^\s()\"]+%\d+")


def _canon(text):
    """Rename gensym'd tokens by first occurrence: alpha-normalization
    for printed terms."""
    seen = {}

    def repl(match):
        return seen.setdefault(match.group(0), f"@{len(seen)}")

    return _GENSYM.sub(repl, text)


def _observe_link(case, mode):
    """Link and run one corpus case; returns the comparable observation.

    ``mode`` is ``"off"`` (no caches), ``"cold"`` (fresh scope), or
    ``"warm"`` (fresh scope, but a priming pass runs first).
    """
    lang_subst._counter = itertools.count()
    out = {}
    with terms.caching(mode != "off"):
        scope = unit_cache_scope() if mode != "off" else nullcontext()
        with scope:
            if mode == "warm":
                link_and_optimize(parse_program(case.source))
            with obs.collecting() as col:
                expr = parse_program(case.source)
                check_program(expr, strict_valuable=not case.lenient)
                linked, stats = link_and_optimize(expr)
                out["linked"] = _canon(show(linked))
                out["merged"] = stats.merged
                out["left_dynamic"] = stats.left_dynamic
                interp = Interpreter()
                out["value"] = to_write_string(interp.eval(linked))
                out["output"] = interp.port.getvalue()
    out["events"] = Counter(e.kind for e in col.events
                            if not e.kind.startswith("cache."))
    return out


class TestLinkCacheIsObservationallyInvisible:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_corpus_case(self, case):
        if case.skip_compile:
            pytest.skip("corpus case opts out of the static-link path")
        off = _observe_link(case, "off")
        cold = _observe_link(case, "cold")
        warm = _observe_link(case, "warm")
        for key in off:
            assert cold[key] == off[key], f"cold differs on {key}"
            assert warm[key] == off[key], f"warm differs on {key}"

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_warm_linked_run_still_matches_golden(self, case):
        """The warm-linked program still satisfies the corpus goldens
        (not just self-agreement with the uncached run)."""
        if case.skip_compile:
            pytest.skip("corpus case opts out of the static-link path")
        with unit_cache_scope():
            for _ in range(2):  # second pass links fully warm
                expr = parse_program(case.source)
                check_program(expr, strict_valuable=not case.lenient)
                linked, _stats = link_and_optimize(expr)
                interp = Interpreter()
                value = interp.eval(linked)
        assert _matches(value, case.expect_value)
        if case.expect_output is not None:
            assert interp.port.getvalue() == case.expect_output


class TestTypedCorpusUnderLinkCache:
    """The typed pipeline runs the same rewriting semantics after type
    erasure, so a warm link store must not perturb it either."""

    @pytest.mark.parametrize("case", TYPED_CASES, ids=lambda c: c.name)
    def test_typed_case_fresh_vs_warm(self, case):
        from repro.types.pretty import show_type
        from repro.unitc.parser import parse_typed_program
        from repro.unitc.run import run_typed_expr

        def run():
            lang_subst._counter = itertools.count()
            result, ty, output = run_typed_expr(
                parse_typed_program(case.source))
            return to_write_string(result), show_type(ty), output

        fresh = run()
        with unit_cache_scope():
            cold = run()
            warm = run()
        assert cold == fresh
        assert warm == fresh
        assert fresh[0] == case.expect_value
        assert fresh[1] == case.expect_type


BAD_COMPOUND = """
(invoke
  (compound (import) (export f)
    (link ((unit (import missing) (export g)
             (define g (lambda (x) x)) (void))
           (with) (provides g))
          ((unit (import g) (export f)
             (define f (lambda (y) (g y))) (void))
           (with g) (provides f)))))
"""

UNPROVIDED_COMPOUND = """
(invoke
  (compound (import) (export f)
    (link ((unit (import) (export g)
             (define g (lambda (x) x)) (void))
           (with) (provides g h))
          ((unit (import g) (export f)
             (define f (lambda (y) (g y))) (void))
           (with g) (provides f)))))
"""


class TestLinkFailuresReproduce:
    """Failed links are never cached: the same violation re-raises the
    same error (and re-emits its miss) on every attempt."""

    @pytest.mark.parametrize("source,fragment", [
        (BAD_COMPOUND, "imports exceed its with clause"),
        (UNPROVIDED_COMPOUND, "does not provide"),
    ])
    def test_same_error_fresh_and_warm(self, source, fragment):
        def attempt():
            with pytest.raises(UnitLinkError) as err:
                link_and_optimize(parse_program(source))
            return str(err.value)

        fresh = attempt()
        with unit_cache_scope(), obs.collecting() as col:
            first = attempt()
            second = attempt()
        assert fresh == first == second
        assert fragment in fresh
        assert not [e for e in col.events if e.kind == "cache.hit"]

    def test_failed_merge_leaves_store_empty(self):
        expr = parse_program(BAD_COMPOUND)
        with unit_cache_scope() as store:
            with pytest.raises(UnitLinkError):
                link_and_optimize(expr)
            assert len(store.flatten) == 0
