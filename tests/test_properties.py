"""Property-based tests (hypothesis) on the core invariants.

* printing then parsing is the identity on core + unit ASTs,
* the big-step interpreter, the small-step rewriting machine, and the
  compile-to-cells pipeline agree on generated closed programs,
* alpha-renaming a unit's internals never changes observable behaviour,
* signature subtyping is reflexive and monotone under interface
  widening/narrowing,
* abbreviation expansion is idempotent and terminates on generated
  acyclic equation sets.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lang.ast import (
    App,
    Expr,
    If,
    Lambda,
    Let,
    Letrec,
    Lit,
    Seq,
    SetBang,
    Var,
)
from repro.lang.interp import Interpreter
from repro.lang.machine import Machine, is_value
from repro.lang.parser import parse_expr
from repro.lang.sexpr import read_sexpr
from repro.lang.pretty import show
from repro.lang.subst import alpha_rename_unit, free_vars
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr
from repro.units.compile import compile_expr

# ---------------------------------------------------------------------------
# AST round-trip
# ---------------------------------------------------------------------------

_names = st.sampled_from(
    ["x", "y", "z", "f", "g", "acc", "n-1", "tmp%1", "even?"])


def _ast_exprs() -> st.SearchStrategy[Expr]:
    literals = st.one_of(
        st.integers(-100, 100).map(Lit),
        st.booleans().map(Lit),
        st.sampled_from(["a", "b c", ""]).map(Lit),
    )
    atoms = st.one_of(literals, _names.map(Var))

    def extend(children: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
        bindings = st.lists(
            st.tuples(_names, children), min_size=1, max_size=2,
            unique_by=lambda b: b[0]).map(tuple)
        return st.one_of(
            st.builds(Lambda, st.just(("x", "y")), children),
            st.builds(App, children,
                      st.lists(children, max_size=2).map(tuple)),
            st.builds(If, children, children, children),
            st.builds(Let, bindings, children),
            st.builds(Letrec, bindings, children),
            st.builds(SetBang, _names, children),
            st.lists(children, min_size=2, max_size=3).map(
                lambda es: Seq(tuple(es))),
            st.builds(
                UnitExpr,
                st.just(("imp",)),
                st.just(("exp",)),
                st.tuples(st.tuples(st.just("exp"), children)).map(tuple),
                children),
            st.builds(
                InvokeExpr, children,
                st.lists(st.tuples(_names, children), max_size=1,
                         unique_by=lambda l: l[0]).map(tuple)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=150)
@given(_ast_exprs())
def test_print_parse_roundtrip(expr):
    """parse(print(e)) == e, up to the (void) literal normal form."""
    printed = show(expr)
    reparsed = parse_expr(read_sexpr(printed))
    # Lit(None) prints as (void), which reads back as an application;
    # normalize by a second print.
    assert show(reparsed) == printed


# ---------------------------------------------------------------------------
# Semantics agreement on generated closed programs
# ---------------------------------------------------------------------------


@st.composite
def closed_programs(draw, depth: int = 3):
    """Closed, terminating, deterministic programs over ints/bools."""
    env: tuple[str, ...] = ()
    return draw(_program(depth, env))


def _program(depth: int, env: tuple[str, ...]):
    @st.composite
    def go(draw, depth=depth, env=env):
        choices = ["int"]
        if env:
            choices.append("var")
        if depth > 0:
            choices += ["arith", "if", "let", "beta", "seq", "unit",
                        "cyclic", "passed", "cell", "plus"]
        kind = draw(st.sampled_from(choices))
        if kind == "int":
            return Lit(draw(st.integers(-20, 20)))
        if kind == "var":
            return Var(draw(st.sampled_from(list(env))))
        if kind == "arith":
            op = draw(st.sampled_from(["+", "-", "*"]))
            left = draw(_program(depth - 1, env))
            right = draw(_program(depth - 1, env))
            return App(Var(op), (left, right))
        if kind == "if":
            left = draw(_program(depth - 1, env))
            right = draw(_program(depth - 1, env))
            then = draw(_program(depth - 1, env))
            orelse = draw(_program(depth - 1, env))
            return If(App(Var("<"), (left, right)), then, orelse)
        if kind == "let":
            name = draw(st.sampled_from(["a", "b", "c"]))
            rhs = draw(_program(depth - 1, env))
            body = draw(_program(depth - 1, env + (name,)))
            return Let(((name, rhs),), body)
        if kind == "beta":
            name = draw(st.sampled_from(["p", "q"]))
            body = draw(_program(depth - 1, env + (name,)))
            arg = draw(_program(depth - 1, env))
            return App(Lambda((name,), body), (arg,))
        if kind == "seq":
            first = draw(_program(depth - 1, env))
            second = draw(_program(depth - 1, env))
            return Seq((first, second))
        if kind == "cyclic":
            return _cyclic_compound(draw(_program(depth - 1, ("k",))))
        if kind == "passed":
            # A unit value bound by let or passed to a lambda, then
            # invoked; its body may close over the enclosing names.
            unit = UnitExpr((), (), (), draw(_program(depth - 1, env)))
            invoke = InvokeExpr(Var("u%p"), ())
            if draw(st.booleans()):
                return Let((("u%p", unit),), invoke)
            return App(Lambda(("u%p",), invoke), (unit,))
        if kind == "cell":
            # set! on a unit-defined variable, read back by the init.
            first = draw(_program(depth - 1, env))
            step = draw(_program(depth - 1, env))
            cell = Var("c%s")
            return InvokeExpr(UnitExpr(
                (), (), (("c%s", first),),
                Seq((SetBang("c%s", App(Var("+"), (cell, step))), cell))),
                ())
        if kind == "plus":
            # A let that rebinds a primitive around arbitrary code,
            # units included: nothing may fold its applications.
            minus = Lambda(("a", "b"), App(Var("-"), (Var("a"), Var("b"))))
            return Let((("+", minus),), draw(_program(depth - 1, env)))
        # kind == "unit": an invoke of a unit importing one value and
        # defining one helper function.
        import_name = "in%u"
        helper = "h%u"
        arg = draw(_program(depth - 1, env))
        body_expr = draw(_program(depth - 1, (import_name,)))
        unit = UnitExpr(
            imports=(import_name,),
            exports=(helper,),
            defns=((helper, Lambda((), body_expr)),),
            init=App(Var(helper), ()))
        return InvokeExpr(unit, ((import_name, arg),))

    return go()


def _cyclic_compound(base: Expr) -> Expr:
    """Two units linked in a cycle: ``f`` counts ``k`` down through
    ``g``, which calls back into ``f``; ``base`` is the value at 0."""
    f, g, k = Var("f%c"), Var("g%c"), Var("k")
    counter = UnitExpr(("g%c",), ("f%c",), (("f%c", Lambda(("k",), If(
        App(Var("<"), (k, Lit(1))), base,
        App(g, (App(Var("-"), (k, Lit(1))),))))),), Lit(0))
    caller = UnitExpr(("f%c",), ("g%c",),
                      (("g%c", Lambda(("k",), App(f, (k,)))),),
                      App(g, (Lit(2),)))
    return InvokeExpr(CompoundExpr(
        (), (), LinkClause(counter, ("g%c",), ("f%c",)),
        LinkClause(caller, ("f%c",), ("g%c",))), ())


@settings(max_examples=120, deadline=None)
@given(closed_programs())
def test_interpreter_machine_compiled_agree(program):
    interp_result = Interpreter().eval(program)
    machine_value = Machine(max_steps=200_000).eval(program)
    assert is_value(machine_value)
    assert isinstance(machine_value, Lit)
    assert machine_value.value == interp_result
    compiled_result = Interpreter().eval(compile_expr(program))
    assert compiled_result == interp_result


# ---------------------------------------------------------------------------
# Alpha-renaming invariance
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(closed_programs(), st.sets(st.sampled_from(["h%u", "a", "b", "p"]),
                                  max_size=3))
def test_alpha_renaming_preserves_behaviour(program, avoid):
    if not isinstance(program, InvokeExpr) \
            or not isinstance(program.expr, UnitExpr):
        return
    renamed_unit = alpha_rename_unit(program.expr, set(avoid))
    renamed = InvokeExpr(renamed_unit, program.links)
    assert Interpreter().eval(renamed) == Interpreter().eval(program)


# ---------------------------------------------------------------------------
# Optimization preserves semantics
# ---------------------------------------------------------------------------

from repro.units.optimize import optimize_expr  # noqa: E402


@settings(max_examples=120, deadline=None)
@given(closed_programs())
def test_optimization_preserves_semantics(program):
    direct = Interpreter().eval(program)
    optimized = Interpreter().eval(optimize_expr(program))
    assert optimized == direct


# ---------------------------------------------------------------------------
# The linter accepts anything the checker accepts (and never crashes)
# ---------------------------------------------------------------------------

from repro.units.analysis import lint  # noqa: E402


@settings(max_examples=100)
@given(_ast_exprs())
def test_lint_never_crashes(expr):
    for diagnostic in lint(expr):
        assert diagnostic.severity in ("warning", "info")


# ---------------------------------------------------------------------------
# Subtyping properties on generated signatures
# ---------------------------------------------------------------------------

from repro.types.subtype import sig_subtype  # noqa: E402
from repro.types.types import Arrow, BOOL, INT, STR, Sig, VOID  # noqa: E402

_small_types = st.sampled_from(
    [INT, STR, BOOL, VOID, Arrow((INT,), INT), Arrow((STR, INT), BOOL)])

_decl_lists = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), _small_types),
    max_size=3, unique_by=lambda d: d[0]).map(tuple)


_sigs = st.builds(
    Sig, st.just(()), _decl_lists, st.just(()), _decl_lists, _small_types)


@settings(max_examples=100)
@given(_sigs)
def test_sig_subtype_reflexive(sig):
    assert sig_subtype(sig, sig)


@settings(max_examples=100)
@given(_sigs, st.tuples(st.sampled_from(["e1", "e2"]), _small_types))
def test_adding_exports_preserves_subtype(sig, extra):
    widened = Sig(sig.timports, sig.vimports, sig.texports,
                  sig.vexports + (extra,), sig.init, sig.depends)
    assert sig_subtype(widened, sig)


@settings(max_examples=100)
@given(_sigs)
def test_dropping_imports_preserves_subtype(sig):
    if not sig.vimports:
        return
    narrowed = Sig(sig.timports, sig.vimports[1:], sig.texports,
                   sig.vexports, sig.init, sig.depends)
    assert sig_subtype(narrowed, sig)


@settings(max_examples=60)
@given(_sigs, _sigs, _sigs)
def test_sig_subtype_transitive(a, b, c):
    if sig_subtype(a, b) and sig_subtype(b, c):
        assert sig_subtype(a, c)


# ---------------------------------------------------------------------------
# Random link graphs: binary nesting, n-ary values, and the static
# linker all agree
# ---------------------------------------------------------------------------

from repro.linking.compound_n import NClause, NCompoundUnitValue  # noqa: E402
from repro.linking.graph import LinkGraph  # noqa: E402
from repro.units.linker import link_and_optimize  # noqa: E402


@st.composite
def random_link_graphs(draw):
    """A random DAG of units: box k sums values from earlier boxes."""
    count = draw(st.integers(2, 5))
    sources: list[str] = []
    expected: list[int] = []
    for k in range(count):
        deps = sorted(draw(st.sets(st.integers(0, k - 1), max_size=2))) \
            if k else []
        base = draw(st.integers(0, 9))
        value = base + sum(expected[d] for d in deps)
        expected.append(value)
        imports = " ".join(f"v{d}" for d in deps)
        summands = " ".join([str(base)] + [f"(v{d})" for d in deps])
        sources.append(f"""
            (unit (import {imports}) (export v{k})
              (define v{k} (lambda () (+ {summands})))
              (void))
        """)
    driver = f"(unit (import v{count - 1}) (export) (v{count - 1}))"
    return sources, driver, expected[-1]


@settings(max_examples=60, deadline=None)
@given(random_link_graphs())
def test_link_graph_strategies_agree(spec):
    sources, driver, expected = spec

    # 1. Binary nesting via the graph builder.
    graph = LinkGraph()
    for index, source in enumerate(sources):
        graph.add_box(f"u{index}", source)
    graph.add_box("driver", driver)
    program = graph.to_invoke_expr()
    binary = Interpreter().eval(program)

    # 2. N-ary compound over evaluated unit values.
    interp = Interpreter()
    clauses = []
    for source in sources + [driver]:
        unit = interp.run(source)
        clauses.append(NClause(
            unit, {n: n for n in unit.imports},
            {n: n for n in unit.exports}))
    nary = interp.invoke(NCompoundUnitValue((), {}, clauses))

    # 3. The static linker over the binary nesting.
    linked, _ = link_and_optimize(program)
    static = Interpreter().eval(linked)

    assert binary == nary == static == expected


# ---------------------------------------------------------------------------
# Expansion properties on generated acyclic equation sets
# ---------------------------------------------------------------------------

from repro.types.types import Product, TyVar  # noqa: E402
from repro.unite.expand import expand_type  # noqa: E402


@st.composite
def acyclic_equations(draw):
    """Equation sets where t_k may only reference t_0 .. t_{k-1}."""
    count = draw(st.integers(1, 5))
    eqs: dict[str, object] = {}
    for k in range(count):
        lower = [TyVar(f"t{j}") for j in range(k)]
        base = draw(_small_types)
        pieces = draw(st.lists(
            st.one_of(st.sampled_from(lower + [base]) if lower
                      else st.just(base)),
            min_size=0, max_size=2))
        ty = base if not pieces else Product(tuple([base] + pieces))
        eqs[f"t{k}"] = ty
    return eqs


@settings(max_examples=100)
@given(acyclic_equations(), st.integers(0, 4))
def test_expansion_idempotent(eqs, idx):
    target = TyVar(f"t{min(idx, len(eqs) - 1)}")
    once = expand_type(target, eqs)
    assert expand_type(once, eqs) == once


@settings(max_examples=100)
@given(acyclic_equations())
def test_expansion_removes_equation_names(eqs):
    from repro.types.types import free_type_vars

    for name in eqs:
        out = expand_type(TyVar(name), eqs)
        assert not (free_type_vars(out) & set(eqs))
