"""Tests for the assembly layer: n-ary compounds, renaming, link graphs."""

import math
import sys

import pytest

from repro.lang.errors import CheckError, TypeCheckError, UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.linking.compound_n import NClause, NCompoundUnitValue, rename_unit
from repro.linking.graph import LinkGraph, TypedLinkGraph
from repro.linking.signatures import SignatureRegistry
from repro.units.ast import CompoundExpr
from repro.units.check import check_program


def unit_value(interp: Interpreter, text: str):
    return interp.run(text)


class TestRenamedUnits:
    def test_export_renaming(self):
        interp = Interpreter()
        unit = unit_value(interp, """
            (unit (import) (export f)
              (define f (lambda () 42))
              (void))
        """)
        renamed = rename_unit(unit, exports={"f": "forty-two"})
        assert renamed.exports == ("forty-two",)
        # Link the renamed unit against a client expecting `forty-two`.
        client = unit_value(interp, """
            (unit (import forty-two) (export) (forty-two))
        """)
        compound = NCompoundUnitValue(
            (), {},
            [NClause(renamed, {}, {"forty-two": "forty-two"}),
             NClause(client, {"forty-two": "forty-two"}, {})])
        assert interp.invoke(compound) == 42

    def test_import_renaming(self):
        interp = Interpreter()
        unit = unit_value(interp,
                          "(unit (import n) (export) (* n 2))")
        renamed = rename_unit(unit, imports={"n": "base"})
        assert renamed.imports == ("base",)
        assert interp.invoke(renamed, {"base": 21}) == 42

    def test_rename_unknown_name_rejected(self):
        interp = Interpreter()
        unit = unit_value(interp, "(unit (import) (export) 1)")
        with pytest.raises(UnitLinkError, match="not an import"):
            rename_unit(unit, imports={"ghost": "x"})

    def test_rename_collision_rejected(self):
        interp = Interpreter()
        unit = unit_value(interp, "(unit (import a b) (export) 1)")
        with pytest.raises(UnitLinkError, match="collides"):
            rename_unit(unit, imports={"a": "x", "b": "x"})


class TestNCompound:
    def build_chain(self, interp: Interpreter, n: int):
        """u1 provides f1; each u_k computes f_k = f_{k-1} + 1."""
        clauses = []
        base = unit_value(interp, """
            (unit (import) (export f1) (define f1 (lambda () 1)) (void))
        """)
        clauses.append(NClause(base, {}, {"f1": "f1"}))
        for k in range(2, n + 1):
            text = f"""
                (unit (import prev) (export f{k})
                  (define f{k} (lambda () (+ (prev) 1)))
                  (void))
            """
            unit = unit_value(interp, text)
            clauses.append(
                NClause(unit, {"prev": f"f{k - 1}"}, {f"f{k}": f"f{k}"}))
        main = unit_value(interp, "(unit (import top) (export) (top))")
        clauses.append(NClause(main, {"top": f"f{n}"}, {}))
        return NCompoundUnitValue((), {}, clauses)

    def test_chain_of_five(self):
        interp = Interpreter()
        assert interp.invoke(self.build_chain(interp, 5)) == 5

    def test_explicit_wiring_with_different_names(self):
        # prev <- f1: source and destination names differ; the binary
        # calculus cannot express this without renaming.
        interp = Interpreter()
        assert interp.invoke(self.build_chain(interp, 2)) == 2

    def test_cyclic_wiring(self):
        interp = Interpreter()
        even = unit_value(interp, """
            (unit (import odd?) (export even?)
              (define even? (lambda (n) (if (zero? n) #t (odd? (- n 1)))))
              (void))
        """)
        odd = unit_value(interp, """
            (unit (import even?) (export odd?)
              (define odd? (lambda (n) (if (zero? n) #f (even? (- n 1)))))
              (odd? 19))
        """)
        compound = NCompoundUnitValue(
            (), {},
            [NClause(even, {"odd?": "odd?"}, {"even?": "even?"}),
             NClause(odd, {"even?": "even?"}, {"odd?": "odd?"})])
        assert interp.invoke(compound) is True

    def test_hidden_exports_get_private_cells(self):
        interp = Interpreter()
        secretive = unit_value(interp, """
            (unit (import) (export secret pub)
              (define secret 99)
              (define pub (lambda () secret))
              (void))
        """)
        user = unit_value(interp, "(unit (import pub) (export) (pub))")
        compound = NCompoundUnitValue(
            (), {},
            [NClause(secretive, {}, {"pub": "pub"}),  # secret hidden
             NClause(user, {"pub": "pub"}, {})])
        assert interp.invoke(compound) == 99

    def test_compound_exports(self):
        interp = Interpreter()
        provider = unit_value(interp, """
            (unit (import) (export v) (define v 7) (void))
        """)
        compound = NCompoundUnitValue(
            (), {"value": "v"},
            [NClause(provider, {}, {"v": "v"})])
        assert compound.exports == ("value",)
        user = unit_value(interp, "(unit (import value) (export) value)")
        outer = NCompoundUnitValue(
            (), {},
            [NClause(compound, {}, {"value": "value"}),
             NClause(user, {"value": "value"}, {})])
        assert interp.invoke(outer) == 7

    def test_unwired_import_rejected(self):
        interp = Interpreter()
        needy = unit_value(interp, "(unit (import x) (export) x)")
        with pytest.raises(UnitLinkError, match="not wired"):
            NCompoundUnitValue((), {}, [NClause(needy, {}, {})])

    def test_duplicate_published_name_rejected(self):
        interp = Interpreter()
        a = unit_value(interp,
                       "(unit (import) (export v) (define v 1) (void))")
        b = unit_value(interp,
                       "(unit (import) (export v) (define v 2) (void))")
        with pytest.raises(UnitLinkError, match="published twice"):
            NCompoundUnitValue(
                (), {},
                [NClause(a, {}, {"v": "v"}), NClause(b, {}, {"v": "v"})])

    def test_import_reexport_rejected(self):
        interp = Interpreter()
        a = unit_value(interp, "(unit (import) (export) 1)")
        with pytest.raises(UnitLinkError, match="no published source"):
            NCompoundUnitValue(("x",), {"x-out": "x"},
                               [NClause(a, {}, {})])


class TestLinkGraph:
    def phonebook_like(self) -> LinkGraph:
        graph = LinkGraph(imports=("error",), exports=("go",))
        graph.add_box("Database", """
            (unit (import error) (export new insert)
              (define table (box 0))
              (define new (lambda () (begin (set-box! table 0) table)))
              (define insert (lambda (db n)
                (set-box! db (+ (unbox db) n))))
              (void))
        """)
        graph.add_box("Gui", """
            (unit (import new insert) (export go)
              (define go (lambda ()
                (let ((db (new)))
                  (begin (insert db 40) (insert db 2) (unbox db)))))
              (void))
        """)
        graph.add_box("Main", "(unit (import go) (export) (go))")
        return graph

    def test_graph_compiles_and_runs(self):
        from repro.lang.interp import run_program
        from repro.lang.pretty import show

        graph = self.phonebook_like()
        expr = graph.to_invoke_expr(
            {"error": parse_program("(lambda (s) (void))")})
        check_program(expr, strict_valuable=False)
        result, _ = run_program(show(expr))
        assert result == 42

    def test_compiled_graph_passes_figure10_checks(self):
        graph = self.phonebook_like()
        check_program(graph.to_compound_expr(), strict_valuable=False)

    def test_unprovided_need_rejected(self):
        graph = LinkGraph()
        graph.add_box("a", "(unit (import ghost) (export) (void))")
        with pytest.raises(CheckError, match="needs 'ghost'"):
            graph.validate()

    def test_duplicate_provider_rejected(self):
        graph = LinkGraph()
        graph.add_box("a", "(unit (import) (export v) (define v 1) (void))")
        graph.add_box("b", "(unit (import) (export v) (define v 2) (void))")
        with pytest.raises(CheckError, match="provided by both"):
            graph.validate()

    def test_export_must_be_provided(self):
        graph = LinkGraph(exports=("ghost",))
        graph.add_box("a", "(unit (import) (export) (void))")
        with pytest.raises(CheckError, match="not provided"):
            graph.validate()

    def test_hiding_through_final_wrapper(self):
        # `helper` is provided internally but not exported by the graph;
        # an outer client cannot link against it.
        graph = LinkGraph(exports=("pub",))
        graph.add_box("impl", """
            (unit (import) (export helper pub)
              (define helper 1)
              (define pub 2)
              (void))
        """)
        expr = graph.to_compound_expr()
        assert expr.exports == ("pub",)

    def test_cyclic_boxes(self):
        graph = LinkGraph()
        graph.add_box("even", """
            (unit (import odd?) (export even?)
              (define even? (lambda (n) (if (zero? n) #t (odd? (- n 1)))))
              (void))
        """)
        graph.add_box("odd", """
            (unit (import even?) (export odd?)
              (define odd? (lambda (n) (if (zero? n) #f (even? (- n 1)))))
              (odd? 19))
        """)
        from repro.lang.interp import Interpreter

        interp = Interpreter()
        unit = interp.eval(graph.to_compound_expr())
        assert interp.invoke(unit) is True

    @pytest.mark.parametrize("boxes", range(1, 10))
    def test_init_order_is_box_order(self, boxes):
        graph = LinkGraph()
        for index in range(boxes):
            graph.add_box(f"b{index}", f"""
                (unit (import) (export) (display "{index}"))
            """)
        from repro.lang.interp import Interpreter

        interp = Interpreter()
        unit = interp.eval(graph.to_compound_expr())
        interp.invoke(unit)
        assert interp.port.getvalue() == "".join(map(str, range(boxes)))

    def test_render(self):
        graph = self.phonebook_like()
        art = graph.render()
        assert "Database" in art
        assert "--go-->" in art
        assert "<imports> --error--> Database" in art

    def test_arrows(self):
        graph = self.phonebook_like()
        assert ("Database", "insert", "Gui") in graph.arrows()


class TestTypedLinkGraph:
    def test_typed_graph_checks_and_runs(self):
        from repro.unitc.run import run_typed_expr

        graph = TypedLinkGraph()
        graph.add_box("Base", """
            (unit/t (import) (export (val base int))
              (define base int 40)
              (void))
        """)
        graph.add_box("Adder", """
            (unit/t (import (val base int)) (export (val result (-> int)))
              (define result (-> int) (lambda () (+ base 2)))
              (void))
        """)
        graph.add_box("Main", """
            (unit/t (import (val result (-> int))) (export)
              (result))
        """)
        result, ty, _ = run_typed_expr(graph.to_invoke_expr())
        from repro.types.types import INT

        assert result == 42
        assert ty == INT

    def test_typed_graph_type_flow(self):
        from repro.unitc.run import run_typed_expr

        graph = TypedLinkGraph()
        graph.add_box("Symbol", """
            (unit/t (import) (export (type sym) (val intern (-> str sym)))
              (datatype sym (mk un str) (mk2 un2 void) first?)
              (define intern (-> str sym) mk)
              (void))
        """)
        graph.add_box("User", """
            (unit/t (import (type sym) (val intern (-> str sym)))
                    (export)
              (define keep (-> sym sym) (lambda ((s sym)) s))
              42)
        """)
        result, _, _ = run_typed_expr(graph.to_invoke_expr())
        assert result == 42

    def test_typed_graph_mismatch_rejected(self):
        from repro.unitc.run import run_typed_expr

        graph = TypedLinkGraph()
        graph.add_box("Base", """
            (unit/t (import) (export (val base str))
              (define base str "x")
              (void))
        """)
        graph.add_box("Adder", """
            (unit/t (import (val base int)) (export)
              (+ base 1))
        """)
        with pytest.raises(TypeCheckError):
            run_typed_expr(graph.to_invoke_expr())

    @pytest.mark.parametrize("boxes", range(1, 10))
    def test_init_order_is_box_order(self, boxes):
        from repro.unitc.run import run_typed_expr

        graph = TypedLinkGraph()
        for index in range(boxes):
            graph.add_box(f"b{index}", f"""
                (unit/t (import) (export) (display "{index}"))
            """)
        _, _, output = run_typed_expr(graph.to_invoke_expr())
        assert output == "".join(map(str, range(boxes)))


def _skip_graph_source(n: int, typed: bool) -> list[tuple[str, str]]:
    """Box sources for ``n`` units: unit k provides ``v{k}`` and
    imports ``v{k-1}`` and ``v{k//2}``, so arrows reach across
    splits, and the last unit's initialization calls its own.  Each
    unit also exports a ``spare{k}`` that nothing links."""
    boxes = []
    for k in range(n):
        deps = sorted({k - 1, k // 2}) if k else []
        rhs = "1"
        for d in deps:
            rhs = f"(+ {rhs} (v{d}))"
        init = f"(v{k})" if k == n - 1 else "(void)"
        if typed:
            imports = " ".join(f"(val v{d} (-> int))" for d in deps)
            boxes.append((f"u{k}", f"""
                (unit/t (import {imports})
                        (export (val v{k} (-> int)) (val spare{k} int))
                  (define v{k} (-> int) (lambda () {rhs}))
                  (define spare{k} int 0)
                  {init})"""))
        else:
            imports = " ".join(f"v{d}" for d in deps)
            boxes.append((f"u{k}", f"""
                (unit (import {imports}) (export v{k} spare{k})
                  (define v{k} (lambda () {rhs}))
                  (define spare{k} 0)
                  {init})"""))
    return boxes


def _skip_graph_value(n: int) -> int:
    values: list[int] = []
    for k in range(n):
        values.append(1 + sum(values[d] for d in sorted({k - 1, k // 2}))
                      if k else 1)
    return values[-1]


def _keys(*spaces) -> set[tuple[int, str]]:
    return {(i, d if isinstance(d, str) else d[0])
            for i, decls in enumerate(spaces) for d in decls}


def _nest_depth(expr, exports: set[tuple[int, str]]) -> int:
    """Compound nesting depth of ``expr``, asserting on the way that
    every clause provides only names its sibling or the enclosing
    compound's exports need."""
    from repro.unitc.ast import TypedCompoundExpr

    if isinstance(expr, CompoundExpr):
        clauses = [(c.expr, _keys(c.withs), _keys(c.provides))
                   for c in (expr.first, expr.second)]
    elif isinstance(expr, TypedCompoundExpr):
        clauses = [(c.expr, _keys(c.with_types, c.with_values),
                    _keys(c.prov_types, c.prov_values))
                   for c in (expr.first, expr.second)]
    else:
        return 0
    depths = []
    for index, (child, _, provides) in enumerate(clauses):
        sibling_withs = clauses[1 - index][1]
        assert provides <= sibling_withs | exports, (provides, exports)
        depths.append(_nest_depth(child, provides))
    return 1 + max(depths)


SHAPE_SIZES = [*range(1, 10), 64]


class TestBalancedLowering:
    """Both graphs lower to a balanced nest that links only the names
    crossing each split."""

    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_untyped_shape_and_value(self, n):
        from repro.lang.interp import run_program
        from repro.lang.pretty import show

        graph = LinkGraph(exports=(f"v{n - 1}",))
        for name, source in _skip_graph_source(n, typed=False):
            graph.add_box(name, source)
        expr = graph.to_compound_expr()
        assert expr.imports == () and expr.exports == (f"v{n - 1}",)
        depth = _nest_depth(expr, _keys(expr.exports))
        assert depth <= math.ceil(math.log2(n)) + 1
        program = graph.to_invoke_expr()
        check_program(program)
        assert run_program(show(program))[0] == _skip_graph_value(n)

    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_typed_shape_and_value(self, n):
        from repro.types.types import INT, Arrow
        from repro.unitc.run import run_typed_expr

        export = (f"v{n - 1}", Arrow((), INT))
        graph = TypedLinkGraph(vexports=(export,))
        for name, source in _skip_graph_source(n, typed=True):
            graph.add_box(name, source)
        expr = graph.to_compound_expr()
        assert expr.vexports == (export,)
        depth = _nest_depth(expr, _keys((), expr.vexports))
        assert depth <= math.ceil(math.log2(n)) + 1
        assert run_typed_expr(graph.to_invoke_expr())[0] == \
            _skip_graph_value(n)

    def test_chain_512_runs_at_default_recursion_limit(self):
        from repro import bench
        from repro.lang.pretty import show

        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            text = show(bench.chain_program(512))
            assert len(text) <= 100_000
            stages = bench._pipeline(text)
        finally:
            sys.setrecursionlimit(before)
        assert stages["total"] > 0

    def test_deep_program_is_left_deep(self):
        from repro import bench
        from repro.lang.interp import run_program
        from repro.lang.parser import parse_program

        program = parse_program(bench.deep_program(6))
        depth, node = 0, program.expr.second.expr
        while isinstance(node, CompoundExpr):
            depth += 1
            node = node.first.expr
        assert depth == 6
        assert run_program(bench.deep_program(6))[0] == 6


class TestSignatureRegistry:
    GUI_SIG = """
        (sig (import (type db) (val new (-> db)))
             (export (val openBook (-> db bool)))
             void)
    """

    def test_define_and_verify(self):
        from repro.types.parser import parse_sig_text

        registry = SignatureRegistry()
        registry.define("GuiSig", self.GUI_SIG)
        actual = parse_sig_text("""
            (sig (import (type db) (val new (-> db)))
                 (export (val openBook (-> db bool)) (val extra int))
                 void)
        """)
        registry.verify(actual, "GuiSig")  # more exports: fine

    def test_verify_failure(self):
        from repro.types.parser import parse_sig_text

        registry = SignatureRegistry()
        registry.define("GuiSig", self.GUI_SIG)
        actual = parse_sig_text("(sig (import) (export) void)")
        with pytest.raises(TypeCheckError, match="does not satisfy"):
            registry.verify(actual, "GuiSig")

    def test_duplicate_definition_rejected(self):
        registry = SignatureRegistry()
        registry.define("S", "(sig (import) (export) void)")
        with pytest.raises(TypeCheckError, match="already defined"):
            registry.define("S", "(sig (import) (export) void)")

    def test_unknown_lookup(self):
        registry = SignatureRegistry()
        with pytest.raises(TypeCheckError, match="unknown"):
            registry.lookup("nope")
