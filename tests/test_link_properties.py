"""Property-based tests for incremental linking over random link DAGs.

Hypothesis generates dependency DAGs (chains, diamonds, wide fan-in
and everything between arise from the random edge sets; the named
shapes are pinned as explicit examples), each compiled to a nest of
binary compounds by :class:`repro.linking.graph.LinkGraph`.  The
properties:

* **equivalence** — the statically linked program and its evaluated
  value are identical fresh, cold-cached, and warm-cached (modulo
  alpha-renaming of gensym'd privates), and the value matches the
  DAG's arithmetic meaning computed independently in Python;
* **key stability** — :func:`repro.units.cache.flatten_key` ignores
  source locations: the same graph parsed from two different origins
  produces the same keys, and a warm store primed from one origin
  serves the other with hits only;
* **rejection survives caching** — a compound whose constituents
  violate their clauses, and a typed compound whose linkage creates a
  cyclic type definition, are rejected identically on cold and warm
  paths (failures are never cached).
"""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lang import subst as lang_subst
from repro.lang.ast import Expr
from repro.lang.errors import TypeCheckError, UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.lang.values import to_write_string
from repro.linking.graph import LinkGraph
from repro.units.ast import CompoundExpr, InvokeExpr
from repro.units.cache import flatten_key, unit_cache_scope
from repro.units.linker import link_and_optimize

_GENSYM = re.compile(r"[^\s()\"]+%\d+")


def _canon(text):
    seen = {}

    def repl(match):
        return seen.setdefault(match.group(0), f"@{len(seen)}")

    return _GENSYM.sub(repl, text)


# ---------------------------------------------------------------------------
# DAG generation
# ---------------------------------------------------------------------------

#: Named shapes pinned as explicit examples (indices into predecessors).
CHAIN = ((), (0,), (1,), (2,))
DIAMOND = ((), (0,), (0,), (1, 2))
FAN_IN = ((), (), (), (0, 1, 2))


@st.composite
def link_dags(draw):
    """A dependency DAG: box k depends on a subset of boxes 0..k-1."""
    n = draw(st.integers(min_value=2, max_value=7))
    deps = [()]
    for k in range(1, n):
        picks = draw(st.lists(st.integers(0, k - 1), unique=True,
                              max_size=min(k, 3)))
        deps.append(tuple(sorted(picks)))
    return tuple(deps)


def _sum_expr(terms_):
    """Right-nested binary additions (``+`` is binary in the calculus)."""
    out = "1"
    for t in terms_:
        out = f"(+ {t} {out})"
    return out


def _graph_source(deps):
    """One box per DAG node; box k exports a thunk ``vk`` whose value
    is 1 plus the sum of its dependencies' values."""
    boxes = []
    for k, ds in enumerate(deps):
        imports = " ".join(f"v{i}" for i in ds)
        body = _sum_expr([f"(v{i})" for i in ds])
        boxes.append(f"(unit (import {imports}) (export v{k})"
                     f" (define v{k} (lambda () {body})) (void))")
    last = len(deps) - 1
    driver = f"(unit (import v{last}) (export) (v{last}))"
    return boxes, driver


def _build_program(deps) -> Expr:
    boxes, driver = _graph_source(deps)
    graph = LinkGraph(exports=())
    for k, source in enumerate(boxes):
        graph.add_box(f"b{k}", source)
    graph.add_box("driver", driver)
    return InvokeExpr(graph.to_compound_expr(), ())


def _meaning(deps) -> int:
    """The DAG's value, computed independently of the calculus."""
    memo = {}

    def value(k):
        if k not in memo:
            memo[k] = 1 + sum(value(i) for i in deps[k])
        return memo[k]

    return value(len(deps) - 1)


def _link_and_run(deps):
    lang_subst._counter = itertools.count()
    linked, stats = link_and_optimize(_build_program(deps))
    interp = Interpreter()
    value = to_write_string(interp.eval(linked))
    return _canon(show(linked)), stats.merged, value


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestFreshVsCachedEquivalence:
    @settings(max_examples=30, deadline=None)
    @example(CHAIN)
    @example(DIAMOND)
    @example(FAN_IN)
    @given(link_dags())
    def test_linked_program_and_value_agree(self, deps):
        fresh = _link_and_run(deps)
        with unit_cache_scope():
            cold = _link_and_run(deps)
            warm = _link_and_run(deps)
        assert cold == fresh
        assert warm == fresh
        assert fresh[2] == str(_meaning(deps))

    @settings(max_examples=15, deadline=None)
    @example(DIAMOND)
    @given(link_dags())
    def test_warm_pass_hits_the_link_store(self, deps):
        with unit_cache_scope():
            _link_and_run(deps)
            with obs.collecting() as col:
                _link_and_run(deps)
        link_events = [e for e in col.events
                       if e.kind.startswith("cache.")
                       and e.fields.get("cache") == "flatten"]
        assert link_events, "warm pass consulted no link store"
        assert all(e.kind == "cache.hit" for e in link_events)

    def test_shared_subtrees_collapse(self):
        """Structurally identical sibling sub-compounds share one
        merge: resolving the first primes the second, within a single
        cold pass.  The flatten memo serves the second sibling whole:
        the flattened subtree, not just the merge."""
        inner = """
            (compound (import) (export f)
              (link ((unit (import) (export g)
                       (define g (lambda (x) x)) (void))
                     (with) (provides g))
                    ((unit (import g) (export f)
                       (define f (lambda (y) (g y))) (void))
                     (with g) (provides f))))
        """
        program = parse_program(
            "(invoke (compound (import) (export)"
            f" (link ({inner} (with) (provides f))"
            f"       ({inner} (with) (provides)))))")
        with unit_cache_scope(), obs.collecting() as col:
            linked, stats = link_and_optimize(program)
        hits = [e for e in col.events if e.kind == "cache.hit"
                and e.fields.get("cache") == "flatten"]
        assert stats.merged == 3  # two identical inner merges + outer
        assert hits, "identical sibling merges missed every store"


class TestKeyStability:
    def _outer_compound(self, deps, origin) -> CompoundExpr:
        boxes, driver = _graph_source(deps)
        graph = LinkGraph(exports=())
        for k, source in enumerate(boxes):
            graph.add_box(f"b{k}", parse_program(source, origin=origin))
        graph.add_box("driver", parse_program(driver, origin=origin))
        return graph.to_compound_expr()

    @settings(max_examples=15, deadline=None)
    @example(CHAIN)
    @example(FAN_IN)
    @given(link_dags())
    def test_flatten_key_ignores_source_locations(self, deps):
        a = self._outer_compound(deps, "a.scm")
        b = self._outer_compound(deps, "b.scm")
        with unit_cache_scope():
            key_a = flatten_key(a, {}, frozenset())
            key_b = flatten_key(b, {}, frozenset())
        assert key_a is not None
        assert key_a == key_b

    @settings(max_examples=10, deadline=None)
    @example(DIAMOND)
    @given(link_dags())
    def test_warm_store_serves_relocated_source(self, deps):
        """Priming from one origin serves the same graph parsed from
        another origin with hits only — locs are not part of the key."""
        boxes, driver = _graph_source(deps)
        text = ("(invoke (compound (import) (export) (link ("
                + boxes[0] + " (with) (provides v0)) ("
                + driver.replace(f"v{len(deps) - 1}", "v0")
                + " (with v0) (provides)))))")
        with unit_cache_scope():
            link_and_optimize(parse_program(text, origin="here.scm"))
            with obs.collecting() as col:
                link_and_optimize(parse_program(text, origin="there.scm"))
        link_events = [e for e in col.events
                       if e.kind.startswith("cache.")
                       and e.fields.get("cache") == "flatten"]
        assert link_events
        assert all(e.kind == "cache.hit" for e in link_events)


CYCLIC_TYPED = """
(compound/t (import) (export)
  (link ((unit/t (import (type a)) (export (type b))
           (type b (-> a a)) (void))
         (with (type a)) (provides (type b)))
        ((unit/t (import (type b)) (export (type a))
           (type a (-> b b)) (void))
         (with (type b)) (provides (type a)))))
"""


class TestRejectionSurvivesCaching:
    @settings(max_examples=10, deadline=None)
    @example(CHAIN)
    @given(link_dags())
    def test_clause_violation_rejected_cold_and_warm(self, deps):
        """Dropping a needed import from a with clause fails the same
        way no matter how warm the store is."""
        boxes, driver = _graph_source(deps)
        graph = LinkGraph(exports=())
        for k, source in enumerate(boxes):
            graph.add_box(f"b{k}", source)
        # The driver claims it needs nothing, but its unit imports the
        # last provider: merge_compound must reject every time.
        graph.add_box("driver", driver, withs=(), provides=())
        program = InvokeExpr(graph.to_compound_expr(), ())

        def attempt():
            with pytest.raises(UnitLinkError) as err:
                link_and_optimize(program)
            return str(err.value)

        fresh = attempt()
        with unit_cache_scope():
            assert attempt() == fresh
            assert attempt() == fresh
        assert "exceed" in fresh

    def test_cyclic_type_link_rejected_on_cached_path(self):
        from repro.unitc.run import typecheck

        def attempt():
            with pytest.raises(TypeCheckError) as err:
                typecheck(CYCLIC_TYPED)
            return str(err.value)

        fresh = attempt()
        with unit_cache_scope():
            cold = attempt()
            warm = attempt()
        assert cold == fresh
        assert warm == fresh
        assert "cyclic" in fresh
