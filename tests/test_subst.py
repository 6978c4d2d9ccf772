"""Tests for the binding signature, free variables, substitution, and
alpha-renaming."""

import dataclasses
import sys

import pytest

from repro import bench
from repro.lang import ast as core_ast
from repro.lang import terms
from repro.lang.ast import App, Lambda, Lit, Var
from repro.lang.parser import parse_program, parse_script
from repro.lang.pretty import show
from repro.lang.subst import (
    SIGNATURE,
    alpha_rename_unit,
    binder_names,
    children,
    free_vars,
    fresh_like,
    gensym,
    map_children,
    substitute,
)
from repro.limits import Budget, budget_scope
from repro.serve.handlers import MAX_DEPTH
from repro.unitc import ast as typed_ast
from repro.unitc.parser import parse_typed_program
from repro.units import ast as unit_ast


def fv(text: str) -> set[str]:
    return set(free_vars(parse_program(text)))


class TestFreeVars:
    def test_variable(self):
        assert fv("x") == {"x"}

    def test_literal(self):
        assert fv("42") == set()

    def test_lambda_binds(self):
        assert fv("(lambda (x) (x y))") == {"y"}

    def test_let_bindings_scope_body_only(self):
        assert fv("(let ((x y)) x)") == {"y"}

    def test_letrec_bindings_scope_everything(self):
        assert fv("(letrec ((f (lambda () (f g)))) f)") == {"g"}

    def test_set_bang_target_is_free(self):
        assert fv("(set! x 1)") == {"x"}

    def test_unit_imports_and_definitions_bind(self):
        assert fv("""
            (unit (import a) (export f)
              (define f (lambda () (a g f)))
              (f h))
        """) == {"g", "h"}

    def test_compound_free_vars_from_constituents(self):
        assert fv("""
            (compound (import) (export)
              (link (u1 (with) (provides))
                    (u2 (with) (provides))))
        """) == {"u1", "u2"}

    def test_invoke_free_vars(self):
        assert fv("(invoke u (a x))") == {"u", "x"}


class TestSubstitute:
    def test_simple(self):
        expr = substitute(parse_program("(+ x 1)"), {"x": Lit(5)})
        assert show(expr) == "(+ 5 1)"

    def test_bound_occurrence_untouched(self):
        expr = substitute(parse_program("(lambda (x) x)"), {"x": Lit(5)})
        assert show(expr) == "(lambda (x) x)"

    def test_capture_avoided(self):
        # Substituting y -> x under (lambda (x) ...) must rename the binder.
        expr = substitute(parse_program("(lambda (x) (x y))"),
                          {"y": Var("x")})
        assert isinstance(expr, Lambda)
        new_param = expr.params[0]
        assert new_param != "x"
        body = expr.body
        assert isinstance(body, App)
        assert body.fn == Var(new_param)
        assert body.args[0] == Var("x")

    def test_capture_avoided_in_letrec(self):
        expr = substitute(parse_program("(letrec ((f (g y))) f)"),
                          {"y": Var("f")})
        assert "f" in set(free_vars(expr))  # the substituted one

    def test_substituting_into_unit_definitions(self):
        expr = substitute(parse_program("""
            (unit (import) (export f)
              (define f (lambda () target))
              (f))
        """), {"target": Lit(9)})
        assert "target" not in free_vars(expr)

    def test_unit_binders_shadow(self):
        expr = parse_program("""
            (unit (import x) (export f) (define f (lambda () x)) (f))
        """)
        assert substitute(expr, {"x": Lit(1)}) == expr

    def test_set_bang_renamed_variable(self):
        expr = substitute(parse_program("(set! x 1)"), {"x": Var("y")})
        assert show(expr) == "(set! y 1)"

    def test_set_bang_non_variable_replacement_rejected(self):
        with pytest.raises(ValueError):
            substitute(parse_program("(set! x 1)"), {"x": Lit(3)})

    def test_empty_mapping_is_identity(self):
        expr = parse_program("(lambda (x) (x y))")
        assert substitute(expr, {}) is expr


class TestGensym:
    def test_gensym_unique(self):
        assert gensym("a") != gensym("a")

    def test_fresh_like_avoids(self):
        avoid = {gensym("v") for _ in range(5)}
        fresh = fresh_like("v", avoid)
        assert fresh not in avoid


class TestAlphaRenameUnit:
    def test_hidden_definitions_renamed(self):
        unit = parse_program("""
            (unit (import) (export pub)
              (define hidden (lambda () 1))
              (define pub (lambda () (hidden)))
              (pub))
        """)
        renamed = alpha_rename_unit(unit, {"hidden"})
        names = [name for name, _ in renamed.defns]
        assert "hidden" not in names
        assert "pub" in names

    def test_exported_names_kept(self):
        unit = parse_program("""
            (unit (import) (export pub)
              (define pub 1)
              (pub))
        """)
        renamed = alpha_rename_unit(unit, {"pub"})
        assert renamed.exports == ("pub",)
        assert renamed.defined == ("pub",)

    def test_no_conflict_no_change(self):
        unit = parse_program("(unit (import) (export) (define x 1) x)")
        assert alpha_rename_unit(unit, {"y"}) is unit


def _node_classes():
    for module, base in ((core_ast, core_ast.Expr), (unit_ast, core_ast.Expr),
                         (typed_ast, typed_ast.TExpr)):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, base) \
                    and value is not base:
                yield value


class TestBindingSignature:
    def test_every_node_class_of_both_calculi_has_a_signature(self):
        classes = set(_node_classes())
        assert classes == set(SIGNATURE)

    def test_signature_fields_are_dataclass_fields(self):
        for cls, (fields, ref, binders, fixed, _) in SIGNATURE.items():
            declared = {f.name for f in dataclasses.fields(cls)}
            named = [attr for attr, _ in fields] + list(binders) + \
                list(fixed) + ([ref] if ref else [])
            assert set(named) <= declared, cls

    def test_children_in_surface_order(self):
        unit = parse_program(
            "(unit (import a) (export f) (define f (lambda () 1))"
            " (define g 2) (f))")
        assert [show(kid) for kid in children(unit)] == \
            ["(lambda () 1)", "2", "(f)"]
        typed = parse_typed_program(
            "(let ((x 1) (y 2)) (tuple x y))")
        assert [type(kid).__name__ for kid in children(typed)] == \
            ["TLit", "TLit", "TTuple"]

    def test_binder_names_cover_typed_datatype_operations(self):
        unit = parse_typed_program("""
            (unit/t (import (val n int)) (export)
              (datatype t (mk un int) (mk2 un2 void) t?)
              (define v t (mk n))
              (void))
        """)
        assert binder_names(unit) == \
            ["n", "mk", "un", "mk2", "un2", "t?", "v"]
        assert free_vars(unit) == frozenset({"void"})

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError):
            children(object())


class TestMapChildren:
    def test_unchanged_children_return_the_node_itself(self):
        for text in ("(lambda (x) (+ x 1))", "(let ((a 1)) (if a a 2))",
                     "(invoke (unit (import i) (export) i) (i 3))"):
            expr = parse_program(text)
            assert map_children(expr, lambda e: e) is expr

    def test_scoped_children_take_the_scoped_function(self):
        expr = parse_program("(let ((x y)) x)")
        seen = []
        map_children(expr, lambda e: seen.append(("out", show(e))) or e,
                     lambda e: seen.append(("in", show(e))) or e)
        assert seen == [("out", "y"), ("in", "x")]

    def test_a_changed_child_rebuilds_with_the_other_fields(self):
        expr = parse_program("(if a b c)")
        out = map_children(expr, lambda e: Var("z") if e == Var("b") else e)
        assert show(out) == "(if a z c)"
        assert out.test is expr.test and out.orelse is expr.orelse


class TestSharedWalks:
    def test_one_memo_name_on_both_calculi(self):
        assert "_fv" in core_ast.Expr._memos
        assert typed_ast.TExpr._memos == ("_fv",)
        typed = parse_typed_program("(lambda ((x int)) (+ x y))")
        assert free_vars(typed) == frozenset({"+", "y"})
        assert typed.__dict__.get("_fv") == frozenset({"+", "y"})

    def test_recompute_path_writes_no_memo(self):
        with terms.caching(False):
            typed = parse_typed_program("(lambda ((x int)) (+ x y))")
            assert free_vars(typed) == frozenset({"+", "y"})
            assert "_fv" not in typed.__dict__

    def test_identity_short_circuit_on_typed_terms(self):
        typed = parse_typed_program("(lambda ((x int)) (+ x y))")
        assert substitute(typed, {"z": typed_ast.TLit(1)}) is typed
        assert substitute(typed, {"x": typed_ast.TLit(1)}) is typed

    def test_typed_capture_is_avoided(self):
        typed = parse_typed_program("(lambda ((x int)) (+ x y))")
        out = substitute(typed, {"y": typed_ast.TVar("x")})
        (param, _), = out.params
        assert param != "x"
        assert free_vars(out) == frozenset({"+", "x"})

    def test_captured_interface_name_rejected(self):
        unit = parse_program("(unit (import x) (export) (+ x y))")
        with pytest.raises(ValueError, match="interface name x"):
            substitute(unit, {"y": Var("x")})

    def test_subst_nodes_charged_in_both_calculi(self):
        for expr, mapping in (
                (parse_program("(+ x (+ x 1))"), {"x": Lit(1)}),
                (parse_typed_program("(+ x (+ x 1))"),
                 {"x": typed_ast.TLit(1)})):
            budget = Budget()
            with budget_scope(budget):
                substitute(expr, mapping)
            assert budget.used_subst == 7  # every node of both apps


def _nested_sum(depth: int) -> str:
    return ("(unit (import x) (export) " + "(+ x " * depth + "0"
            + ")" * depth + ")")


@pytest.fixture(scope="module")
def deep_terms():
    """Parsed deep-512 and a 3000-deep sum inside a unit (the reader's
    depth policy needs a budget; the walks below run without one)."""
    with budget_scope(Budget(max_depth=MAX_DEPTH)):
        deep = bench.deep_program(512)
        return {"deep-512": (deep, parse_script(deep)),
                "sum-3000": (_nested_sum(3000),
                             parse_script(_nested_sum(3000)))}


class TestDeepWalksAtTheDefaultRecursionLimit:
    @pytest.fixture(autouse=True)
    def default_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    @pytest.mark.parametrize("name", ["deep-512", "sum-3000"])
    def test_show(self, deep_terms, name):
        text, expr = deep_terms[name]
        assert show(expr) == text

    def test_free_vars(self, deep_terms):
        assert free_vars(deep_terms["deep-512"][1]) == \
            frozenset({"+", "void"})
        unit = deep_terms["sum-3000"][1]
        assert free_vars(unit) == frozenset({"+"})
        assert free_vars(unit.init) == frozenset({"+", "x"})
        with terms.caching(False):
            assert free_vars(unit.init) == frozenset({"+", "x"})
