"""Tests for the Section 4.2.4 optimizer."""

import pytest

from repro.lang.ast import Lit
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.units.ast import UnitExpr
from repro.units.optimize import (
    fold_constants,
    optimization_report,
    optimize_expr,
    optimize_unit,
)
from repro.units.reduce import reduce_compound_expr


def opt(text: str) -> UnitExpr:
    unit = parse_program(text)
    assert isinstance(unit, UnitExpr)
    return optimize_unit(unit)


class TestConstantFolding:
    def test_arith_folds(self):
        expr = fold_constants(parse_program("(+ 1 (* 2 3))"), frozenset())
        assert expr == Lit(7)

    def test_string_folds(self):
        expr = fold_constants(parse_program('(string-append "a" "b")'),
                              frozenset())
        assert expr == Lit("ab")

    def test_if_on_folded_test(self):
        expr = fold_constants(parse_program("(if (< 1 2) 10 20)"),
                              frozenset())
        assert expr == Lit(10)

    def test_shadowed_prim_not_folded(self):
        expr = fold_constants(
            parse_program("(lambda (+) (+ 1 2))"), frozenset())
        assert show(expr) == "(lambda (+) (+ 1 2))"

    def test_erroring_application_left_alone(self):
        # (modulo 1 0) raises at run time; folding must preserve that.
        source = "(modulo 1 0)"
        expr = fold_constants(parse_program(source), frozenset())
        assert show(expr) == source

    def test_effectful_not_folded(self):
        source = '(display "x")'
        expr = fold_constants(parse_program(source), frozenset())
        assert show(expr) == source


class TestUnitOptimization:
    def test_dead_definition_removed(self):
        unit = opt("""
            (unit (import) (export keep)
              (define keep 1)
              (define dead 2)
              (void))
        """)
        assert unit.defined == ("keep",)

    def test_transitively_dead_removed(self):
        unit = opt("""
            (unit (import) (export)
              (define a (lambda () (b)))
              (define b (lambda () 1))
              42)
        """)
        assert unit.defined == ()

    def test_live_chain_kept(self):
        unit = opt("""
            (unit (import) (export top)
              (define top (lambda () (mid)))
              (define mid (lambda () (bottom)))
              (define bottom (lambda () 1))
              (void))
        """)
        assert set(unit.defined) == {"top", "mid", "bottom"}

    def test_init_roots_definitions(self):
        unit = opt("""
            (unit (import) (export)
              (define used (lambda () 1))
              (used))
        """)
        assert unit.defined == ("used",)

    def test_literal_inlined_and_folded(self):
        unit = opt("""
            (unit (import) (export answer)
              (define six 6)
              (define seven 7)
              (define answer (* six seven))
              (void))
        """)
        assert dict((n, r) for n, r in unit.defns)["answer"] == Lit(42)
        # six/seven were inlined away entirely.
        assert unit.defined == ("answer",)

    def test_assigned_definition_not_inlined(self):
        unit = opt("""
            (unit (import) (export get)
              (define state 0)
              (define get (lambda () state))
              (set! state 1))
        """)
        assert "state" in unit.defined

    def test_exported_literal_kept(self):
        unit = opt("""
            (unit (import) (export k)
              (define k 5)
              (void))
        """)
        assert unit.defined == ("k",)

    def test_interface_unchanged(self):
        before = parse_program("""
            (unit (import a b) (export f)
              (define f (lambda () (a (+ 1 2))))
              (define dead 1)
              (f))
        """)
        after = optimize_unit(before)
        assert after.imports == before.imports
        assert after.exports == before.exports

    def test_report(self):
        before = parse_program("""
            (unit (import) (export) (define dead 1) 2)
        """)
        after = optimize_unit(before)
        report = optimization_report(before, after)
        assert "1 -> 0" in report
        assert "dead" in report


class TestInterUnitOptimization:
    """Merging first, then optimizing, crosses unit boundaries
    (Section 4.2.4's closing observation)."""

    COMPOUND = """
        (compound (import) (export)
          (link ((unit (import) (export lib-used lib-dead)
                   (define lib-used (lambda () 21))
                   (define lib-dead (lambda () 0))
                   (void))
                 (with) (provides lib-used lib-dead))
                ((unit (import lib-used) (export)
                   (* 2 (lib-used)))
                 (with lib-used) (provides))))
    """

    def test_merge_then_optimize_removes_cross_unit_dead_code(self):
        merged = reduce_compound_expr(parse_program(self.COMPOUND))
        optimized = optimize_unit(merged)
        # lib-dead is provided but the merged program exports nothing
        # and never calls it: only whole-program merging can see that.
        assert "lib-dead" not in optimized.defined
        assert "lib-used" in optimized.defined

    def test_optimization_preserves_behaviour(self):
        program = parse_program(f"(invoke {self.COMPOUND})")
        merged = reduce_compound_expr(parse_program(self.COMPOUND))
        from repro.units.ast import InvokeExpr

        direct = Interpreter().eval(program)
        optimized = Interpreter().eval(
            InvokeExpr(optimize_unit(merged), ()))
        assert direct == optimized == 42


PROGRAMS = [
    "(invoke (unit (import) (export) (+ 1 (* 2 3))))",
    """(invoke (unit (import) (export f)
         (define f (lambda (x) (+ x (* 2 5))))
         (define unused 99)
         (f 4)))""",
    """(invoke (compound (import) (export)
         (link ((unit (import) (export v) (define v (* 3 3)) (void))
                (with) (provides v))
               ((unit (import v) (export) (+ v 1))
                (with v) (provides)))))""",
    """(let ((u (unit (import k) (export) (* k (+ 2 2)))))
         (invoke u (k 5)))""",
]


@pytest.mark.parametrize("source", PROGRAMS)
def test_optimize_expr_preserves_results(source):
    direct, _ = run_program(source)
    optimized = Interpreter().eval(optimize_expr(parse_program(source)))
    assert direct == optimized


class TestSetBangBlocksInlining:
    """Assignment anywhere — even buried in a lambda that is never
    obviously called — must veto inlining of the assigned name."""

    def test_set_inside_lambda_blocks_inlining(self):
        unit = opt("""
            (unit (import) (export bump get)
              (define n 0)
              (define bump (lambda () (set! n (+ n 1))))
              (define get (lambda () n))
              (void))
        """)
        assert "n" in unit.defined
        rhs = dict(unit.defns)["get"]
        # get's body still references the variable, not a frozen 0.
        assert "n" in show(rhs)

    def test_set_in_init_blocks_inlining(self):
        unit = opt("""
            (unit (import) (export get)
              (define flag 1)
              (define get (lambda () flag))
              (set! flag 2))
        """)
        assert "flag" in unit.defined
        assert "flag" in show(dict(unit.defns)["get"])

    def test_unassigned_sibling_still_inlines(self):
        # Only the assigned name is pinned; its literal sibling inlines
        # and disappears as usual.
        unit = opt("""
            (unit (import) (export get)
              (define mutable 1)
              (define constant 2)
              (define get (lambda () (+ mutable constant)))
              (set! mutable 10))
        """)
        assert "mutable" in unit.defined
        assert "constant" not in unit.defined
        assert "2" in show(dict(unit.defns)["get"])

    def test_optimized_mutation_still_observable(self):
        source = """
            (invoke (unit (import) (export)
              (define n 0)
              (define bump (lambda () (set! n (+ n 1))))
              (begin (bump) (bump) n)))
        """
        direct, _ = run_program(source)
        optimized = Interpreter().eval(
            optimize_expr(parse_program(source)))
        assert direct == optimized == 2


class TestExportsSurviveDCE:
    """The interface is the optimization boundary: every exported name
    stays defined, along with everything it reaches — even when nothing
    inside the unit uses it."""

    def test_unreferenced_export_kept(self):
        unit = opt("""
            (unit (import) (export api)
              (define api (lambda () 1))
              42)
        """)
        assert unit.defined == ("api",)

    def test_export_roots_its_transitive_dependencies(self):
        unit = opt("""
            (unit (import) (export entry)
              (define entry (lambda () (helper)))
              (define helper (lambda () (leaf)))
              (define leaf (lambda () 7))
              (define orphan (lambda () (leaf)))
              (void))
        """)
        assert set(unit.defined) == {"entry", "helper", "leaf"}

    def test_every_export_survives_repeated_rounds(self):
        unit = opt("""
            (unit (import) (export a b c)
              (define a 1)
              (define b 2)
              (define c 3)
              (define dead 4)
              (void))
        """)
        assert set(unit.defined) == {"a", "b", "c"}
        assert set(unit.exports) <= set(unit.defined)


class TestImpurePrimsNeverFold:
    """Constant folding may only run primitives with no effects and no
    allocation identity; everything else must reach run time intact."""

    IMPURE = [
        '(display "x")',
        "(newline)",
        "(box 1)",
        "(cons 1 2)",  # allocation: folding would break eq?/set-car!
        "(gensym)",
        '(error "boom")',
    ]

    @pytest.mark.parametrize("source", IMPURE)
    def test_left_for_run_time(self, source):
        expr = fold_constants(parse_program(source), frozenset())
        assert show(expr) == source

    def test_foldable_set_is_pure(self):
        from repro.units.optimize import FOLDABLE_PRIMS

        impure = {"display", "write", "newline", "box", "unbox",
                  "set-box!", "cons", "car", "cdr", "set-car!",
                  "set-cdr!", "gensym", "error", "make-string-hash-table",
                  "hash-table-get", "hash-table-put!"}
        assert not (FOLDABLE_PRIMS & impure)

    def test_folding_inside_impure_call_still_happens(self):
        expr = fold_constants(parse_program("(display (+ 1 2))"),
                              frozenset())
        assert show(expr) == "(display 3)"


class TestIdentityAndScope:
    def test_nothing_to_fold_returns_the_same_node(self):
        expr = parse_program("(lambda (x) (if x (f x) (g 1)))")
        assert fold_constants(expr, frozenset()) is expr

    def test_an_optimized_unit_is_its_own_fixpoint(self):
        unit = opt("""
            (unit (import) (export f)
              (define k 2)
              (define f (lambda (x) (* x k)))
              (f 3))
        """)
        assert optimize_unit(unit) is unit

    def test_a_primitive_rebound_around_a_unit_is_not_folded(self):
        # The unit's (+ 1 2) calls the let-bound procedure, not the
        # primitive, so folding it to 3 would change the answer.
        expr = parse_program(
            "(let ((+ (lambda (a b) 0)))"
            " (invoke (unit (import) (export) (+ 1 2))))")
        assert Interpreter().eval(optimize_expr(expr)) == \
            Interpreter().eval(expr) == 0
