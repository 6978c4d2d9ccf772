"""Tests for the whole-program static linker (flatten + optimize)."""

import pytest

from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr
from repro.units.linker import LinkStats, flatten, link_and_optimize


def contains_compound(expr) -> bool:
    from repro.lang.subst import children

    if isinstance(expr, CompoundExpr):
        return True
    try:
        kids = children(expr)
    except TypeError:
        return False
    return any(contains_compound(k) for k in kids)


NESTED = """
    (invoke
      (compound (import) (export)
        (link ((compound (import) (export a b)
                 (link ((unit (import) (export a) (define a 10) (void))
                        (with) (provides a))
                       ((unit (import a) (export b)
                          (define b (lambda () (+ a 1))) (void))
                        (with a) (provides b))))
               (with) (provides a b))
              ((unit (import a b) (export) (+ a (b)))
               (with a b) (provides)))))
"""


class TestFlatten:
    def test_known_compounds_merged(self):
        stats = LinkStats()
        flat = flatten(parse_program(NESTED), stats)
        assert stats.merged == 2
        assert stats.left_dynamic == 0
        assert not contains_compound(flat)
        assert isinstance(flat, InvokeExpr)
        assert isinstance(flat.expr, UnitExpr)

    def test_behaviour_preserved(self):
        direct, _ = run_program(NESTED)
        flat = flatten(parse_program(NESTED))
        assert Interpreter().eval(flat) == direct == 21

    def test_let_bound_unit_literal_resolved(self):
        # A variable bound directly to a unit literal is "known": the
        # linker resolves it at the clause position and merges.
        program = parse_program("""
            (let ((mystery (unit (import) (export v) (define v 1) (void))))
              (invoke
                (compound (import) (export)
                  (link (mystery (with) (provides v))
                        ((unit (import v) (export) v)
                         (with v) (provides))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 1
        assert stats.left_dynamic == 0
        assert not contains_compound(flat)
        assert Interpreter().eval(flat) == 1

    def test_truly_dynamic_compound_left_alone(self):
        # The constituent is chosen at run time: nothing to merge.
        program = parse_program("""
            (let ((mystery (if (< 1 2)
                               (unit (import) (export v) (define v 1) (void))
                               (unit (import) (export v) (define v 2) (void)))))
              (invoke
                (compound (import) (export)
                  (link (mystery (with) (provides v))
                        ((unit (import v) (export) v)
                         (with v) (provides))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert stats.left_dynamic == 1
        assert contains_compound(flat)
        assert Interpreter().eval(flat) == 1

    def test_assigned_binding_not_resolved(self):
        # The binding is mutated before linking; resolution would be
        # wrong, so the compound stays dynamic.
        program = parse_program("""
            (let ((mystery (unit (import) (export v) (define v 1) (void))))
              (begin
                (set! mystery (unit (import) (export v)
                                (define v 9) (void)))
                (invoke
                  (compound (import) (export)
                    (link (mystery (with) (provides v))
                          ((unit (import v) (export) v)
                           (with v) (provides)))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert Interpreter().eval(flat) == 9

    def test_lambda_parameter_not_resolved(self):
        program = parse_program("""
            ((lambda (u)
               (invoke
                 (compound (import) (export)
                   (link (u (with) (provides v))
                         ((unit (import v) (export) v)
                          (with v) (provides))))))
             (unit (import) (export v) (define v 5) (void)))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 0
        assert Interpreter().eval(flat) == 5

    def test_mixed_static_and_dynamic(self):
        program = parse_program("""
            (let ((dyn (unit (import) (export x) (define x 2) (void))))
              (+ (invoke (compound (import) (export)
                           (link ((unit (import) (export y)
                                    (define y 3) (void))
                                  (with) (provides y))
                                 ((unit (import y) (export) y)
                                  (with y) (provides)))))
                 (invoke (compound (import) (export)
                           (link (dyn (with) (provides x))
                                 ((unit (import x) (export) x)
                                  (with x) (provides)))))))
        """)
        stats = LinkStats()
        flat = flatten(program, stats)
        assert stats.merged == 2  # the let-bound literal also resolves
        assert stats.left_dynamic == 0
        assert Interpreter().eval(flat) == 5

    def test_stats_render(self):
        stats = LinkStats(merged=3, left_dynamic=1)
        assert "3 compound(s)" in str(stats)


class TestLinkAndOptimize:
    def test_pipeline_strips_cross_unit_dead_code(self):
        program = parse_program("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export used dead)
                         (define used (lambda () (+ 20 1)))
                         (define dead (lambda () 0))
                         (void))
                       (with) (provides used dead))
                      ((unit (import used) (export) (* 2 (used)))
                       (with used) (provides)))))
        """)
        linked, stats = link_and_optimize(program)
        assert stats.merged == 1
        assert isinstance(linked, InvokeExpr)
        unit = linked.expr
        assert isinstance(unit, UnitExpr)
        assert "dead" not in unit.defined
        assert Interpreter().eval(linked) == 42

    def test_pipeline_folds_across_boundaries(self):
        program = parse_program("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export k) (define k (* 6 7)) (void))
                       (with) (provides k))
                      ((unit (import k) (export) k)
                       (with k) (provides)))))
        """)
        linked, _ = link_and_optimize(program)
        assert Interpreter().eval(linked) == 42

    PROGRAMS = [
        NESTED,
        "(invoke (unit (import) (export) (+ 1 2)))",
        """(let ((u (unit (import n) (export) (* n n))))
             (+ (invoke u (n 2)) (invoke u (n 3))))""",
        """(invoke (compound (import) (export)
             (link ((unit (import pong) (export ping)
                      (define ping (lambda (n)
                        (if (zero? n) 0 (pong (- n 1))))) (void))
                    (with pong) (provides ping))
                   ((unit (import ping) (export pong)
                      (define pong (lambda (n)
                        (if (zero? n) 1 (ping (- n 1)))))
                      (ping 9))
                    (with ping) (provides pong)))))""",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_pipeline_preserves_behaviour(self, source):
        direct, _ = run_program(source)
        linked, _ = link_and_optimize(parse_program(source))
        assert Interpreter().eval(linked) == direct

    def test_phonebook_through_the_linker(self):
        from repro.phonebook.program import build_ipb, run_ipb
        from repro.unitc.erase import erase

        direct_result, direct_output = run_ipb()
        program = InvokeExpr(erase(build_ipb()), ())
        linked, stats = link_and_optimize(program)
        assert stats.merged >= 3  # PhoneBook + the graph's fold steps
        interp = Interpreter()
        assert interp.eval(linked) == direct_result
        assert interp.port.getvalue() == direct_output


class TestLinkScalesWithNesting:
    """A unit nested n deep must not cost the link stage n walks of the
    units inside it (each round of each unit used to re-walk its whole
    subtree, and compare it deeply against the previous round)."""

    @staticmethod
    def _calls(depth: int) -> int:
        """Python calls the link stage makes into the package: every
        walk makes at least one per node it visits, so the count
        stands in for nodes visited without timing anything."""
        import os
        import sys

        import repro
        from repro.lang.parser import parse_script
        from repro.limits import Budget, budget_scope
        from repro.units.cache import unit_cache_scope

        package = os.path.dirname(repro.__file__)
        text = ("(invoke (unit (import) (export) " * depth + "42"
                + "))" * depth)
        calls = 0

        def hook(frame, event, _arg):
            nonlocal calls
            if event == "call" and \
                    frame.f_code.co_filename.startswith(package):
                calls += 1

        with budget_scope(Budget(max_depth=4 * depth)):
            expr = parse_script(text)
            with unit_cache_scope():
                sys.setprofile(hook)
                try:
                    link_and_optimize(expr)
                finally:
                    sys.setprofile(None)
        return calls

    def test_doubling_the_depth_at_most_doubles_the_work(self):
        small, large = self._calls(100), self._calls(200)
        assert large <= 2.2 * small, (small, large)
