"""Tests for typed renaming and substitution: the shared value-namespace
walk (:func:`repro.lang.subst.substitute`) on typed terms, type
substitution by abbreviation expansion, and compound renaming."""

import pytest

from repro.lang.subst import substitute
from repro.types.types import INT, STR, TyVar
from repro.unitc.ast import TLambda, TLit, TVar
from repro.unitc.parser import parse_typed_program
from repro.unitc.pretty import show_texpr
from repro.unitc.reduce import rename_unit_internals
from repro.unite.expand import expand_texpr


class TestValueSubstitution:
    def test_free_variable_replaced(self):
        expr = parse_typed_program("(+ x 1)")
        out = substitute(expr, {"x": TLit(41)})
        assert show_texpr(out) == "(+ 41 1)"

    def test_lambda_param_shadows(self):
        expr = parse_typed_program("(lambda ((x int)) x)")
        assert substitute(expr, {"x": TLit(1)}) == expr

    def test_let_binding_shadows_body(self):
        expr = parse_typed_program("(let ((x 1)) x)")
        out = substitute(expr, {"x": TLit(9)})
        # the binding's rhs is outside the scope; the body is inside
        assert show_texpr(out) == "(let ((x 1)) x)"

    def test_letrec_shadows_everything(self):
        expr = parse_typed_program(
            "(letrec ((f (-> int int) (lambda ((n int)) (f n)))) f)")
        assert substitute(expr, {"f": TLit(0)}) == expr

    def test_unit_interface_shadows(self):
        expr = parse_typed_program(
            "(unit/t (import (val x int)) (export) x)")
        assert substitute(expr, {"x": TLit(1)}) == expr

    def test_set_target_substituted_with_variable(self):
        expr = parse_typed_program("(set! x 1)")
        out = substitute(expr, {"x": TVar("y")})
        assert show_texpr(out) == "(set! y 1)"

    def test_set_target_with_non_variable_rejected(self):
        expr = parse_typed_program("(set! x 1)")
        with pytest.raises(ValueError):
            substitute(expr, {"x": TLit(3)})

    def test_rename_values(self):
        expr = parse_typed_program("(f (g 1))")
        out = substitute(expr, {"f": TVar("f2")})
        assert show_texpr(out) == "(f2 (g 1))"


class TestTypeSubstitution:
    def test_annotation_replaced(self):
        expr = parse_typed_program("(lambda ((x t)) x)")
        out = expand_texpr(expr, {"t": INT})
        assert isinstance(out, TLambda)
        assert out.params[0][1] == INT

    def test_unit_binding_shadows_type(self):
        expr = parse_typed_program("""
            (unit/t (import (type t) (val v t)) (export) v)
        """)
        out = expand_texpr(expr, {"t": INT})
        # t is the unit's own import; annotations keep referring to it.
        assert out == expr

    def test_rename_types(self):
        expr = parse_typed_program("(lambda ((x t)) x)")
        out = expand_texpr(expr, {"t": TyVar("u")})
        assert out.params[0][1] == TyVar("u")


class TestRenameUnitInternals:
    def test_renames_definitions_and_references(self):
        unit = parse_typed_program("""
            (unit/t (import) (export)
              (define helper (-> int int) (lambda ((x int)) (+ x 1)))
              (define top (-> int) (lambda () (helper 1)))
              (top))
        """)
        out = rename_unit_internals(unit, {"helper": "helper2"}, {})
        names = [name for name, _, _ in out.defns]
        assert names == ["helper2", "top"]
        assert "helper2" in show_texpr(out.defns[1][2])
        assert "(helper " not in show_texpr(out)

    def test_renames_datatype_and_type_references(self):
        unit = parse_typed_program("""
            (unit/t (import) (export)
              (datatype t (mk un int) (mk2 un2 void) t?)
              (define v t (mk 1))
              (void))
        """)
        out = rename_unit_internals(unit, {}, {"t": "t2"})
        assert out.datatypes[0].name == "t2"
        assert out.defns[0][1] == TyVar("t2")

    def test_behaviour_preserved(self):
        from repro.unitc.ast import TypedInvokeExpr
        from repro.unitc.run import run_typed_expr

        unit = parse_typed_program("""
            (unit/t (import) (export)
              (define a (-> int) (lambda () 40))
              (define b (-> int) (lambda () (+ (a) 2)))
              (b))
        """)
        renamed = rename_unit_internals(unit, {"a": "aa", "b": "bb"}, {})
        before, _, _ = run_typed_expr(TypedInvokeExpr(unit, (), ()))
        after, _, _ = run_typed_expr(TypedInvokeExpr(renamed, (), ()))
        assert before == after == 42


class TestErasureCommutesWithSubstitution:
    """One walk serves both calculi, so substituting before or after
    erasure gives the same untyped term."""

    def test_on_every_typed_corpus_subterm(self):
        from repro.lang.ast import Lit
        from repro.lang.subst import children, free_vars
        from repro.unitc.erase import erase
        from repro.unitc.prims import PRIM_ERASURE
        from tests.test_corpus_typed import CASES

        pairs = 0
        for case in CASES:
            stack = [parse_typed_program(case.source)]
            while stack:
                expr = stack.pop()
                stack.extend(children(expr))
                for name in sorted(free_vars(expr)):
                    # Erasure renames these primitives, so a typed
                    # substitution for one has no untyped counterpart.
                    if name in PRIM_ERASURE:
                        continue
                    pairs += 1
                    assert erase(substitute(expr, {name: TLit(7)})) == \
                        substitute(erase(expr), {name: Lit(7)}), \
                        (case.name, name, show_texpr(expr))
        assert pairs >= 300
