"""The parsed AST stays cheap for CPython's cyclic garbage collector.

A link server keeps parsed programs in its caches for its whole life,
and every full collection traces all of them.  Two shapes keep that
trace short: source locations are plain ``(line, col, origin)`` tuples
of atoms, which the collector stops tracking, and memo fields are read
without materialising a node's instance ``__dict__``.  The second half
pins the ``origin:line:col`` text those plain tuples still print as in
trace events.
"""

from __future__ import annotations

import dataclasses
import gc
import re
from collections import Counter

import pytest

from repro import obs
from repro.lang.interp import run_program
from repro.lang.parser import parse_script
from repro.lang.pretty import show
from repro.lang.subst import free_vars
from repro.lang.terms import term_key
from repro.limits import Budget, BudgetExceeded, budget_scope
from repro.linking.graph import LinkGraph
from repro.unitc.check import check_typed_program
from repro.unitc.parser import parse_typed_program
from repro.units.ast import InvokeExpr


def tracked_census(root: object) -> Counter:
    """Count the GC-tracked objects reachable from ``root`` by type.

    Classes are not entered: a node's class reaches its module and,
    from there, the whole interpreter.
    """
    census: Counter = Counter()
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        census[type(obj)] += 1
        for ref in gc.get_referents(obj):
            if (gc.is_tracked(ref) and not isinstance(ref, type)
                    and id(ref) not in seen):
                seen.add(id(ref))
                stack.append(ref)
    return census


def node_count(census: Counter) -> int:
    """How many AST nodes (frozen dataclass instances) a census holds."""
    return sum(n for cls, n in census.items()
               if dataclasses.is_dataclass(cls))


def dag_program(n: int) -> str:
    """N units, each importing the two before it, plus a driver."""
    graph = LinkGraph(exports=())
    graph.add_box("u0", "(unit (import) (export v0)"
                        " (define v0 (lambda () 1)) (void))")
    graph.add_box("u1", "(unit (import v0) (export v1)"
                        " (define v1 (lambda () (+ (v0) 1))) (void))")
    for k in range(2, n):
        graph.add_box(f"u{k}", f"""
            (unit (import v{k - 2} v{k - 1}) (export v{k})
              (define v{k} (lambda () (let ((a (v{k - 2})) (b (v{k - 1})))
                                        (if (< a b) (+ a b) (- a b)))))
              (void))
        """)
    graph.add_box("driver", f"(unit (import v{n - 1}) (export) (v{n - 1}))")
    return show(InvokeExpr(graph.to_compound_expr(), ()))


def _nodes(root: object):
    stack = [root]
    while stack:
        obj = stack.pop()
        if dataclasses.is_dataclass(obj):
            yield obj
            stack.extend(getattr(obj, f.name)
                         for f in dataclasses.fields(obj))
        elif isinstance(obj, tuple):
            stack.extend(obj)


class TestAstHeapShape:
    def test_memoized_ast_holds_only_nodes_tuples_and_memo_sets(self):
        expr = parse_script(dag_program(24), origin="dag.scm")
        term_key(expr)
        free_vars(expr)
        gc.collect()
        census = tracked_census(expr)
        nodes = node_count(census)
        assert nodes > 500
        # No SrcLoc (a tracked tuple subclass) and no materialised
        # instance dict: every other tracked object is a child tuple
        # holding nodes, or a memoized free-variable set.
        others = {cls.__name__: n for cls, n in census.items()
                  if not dataclasses.is_dataclass(cls)
                  and cls not in (tuple, frozenset)}
        assert others == {}
        located = [node for node in _nodes(expr)
                   if getattr(node, "loc", None) is not None]
        assert len(located) > nodes // 2
        assert not any(gc.is_tracked(node.loc) for node in located)


def _event_locs(col: obs.Collector, kind: str) -> list[str]:
    return [e.fields["loc"] for e in col.events
            if e.kind == kind and "loc" in e.fields]


LOC_TEXT = re.compile(r"^(?P<origin>.+):(?P<line>\d+):(?P<col>\d+)$")


class TestTraceLocationText:
    def test_limit_exceeded_loc_reads_origin_line_col(self):
        loop = "(letrec ((spin (lambda (n)\n  (spin (+ n 1))))) (spin 0))"
        with obs.collecting() as col:
            with budget_scope(Budget(eval_steps=50)):
                with pytest.raises(BudgetExceeded) as exc:
                    run_program(loop, origin="loop.scm")
        [loc] = _event_locs(col, "limit.exceeded")
        assert LOC_TEXT.match(loc)["origin"] == "loop.scm"
        assert loc == str(exc.value.loc)

    def test_unitc_check_span_loc_reads_origin_line_col(self):
        source = "\n  (unit/t (import) (export) 42)"
        with obs.collecting() as col:
            check_typed_program(parse_typed_program(source,
                                                    origin="typed.scm"))
        assert _event_locs(col, "check.unit")[0] == "typed.scm:2:3"
