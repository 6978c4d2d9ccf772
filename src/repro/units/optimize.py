"""Intra-unit (and, after merging, inter-unit) optimization.

Section 4.2.4: "the restrictions implied by a unit's interface allow
inter-procedural optimizations within the unit (such as inlining,
specialization, and dead-code elimination).  Furthermore, since a
compound unit is equivalent to a simple unit that merges its
constituent units, intra-unit optimization techniques naturally extend
to inter-unit optimizations when a compound expression has known
constituent units."

This module implements the three optimizations the paper names, scoped
exactly by the interface:

* **constant folding** — applications of pure primitives to literal
  arguments are evaluated at compile time,
* **inlining** — a definition bound to a literal (or to another
  definition that is never assigned) is substituted at its use sites;
  exported definitions keep their bindings (the interface is the
  optimization boundary),
* **dead-code elimination** — non-exported definitions that no live
  definition or the initialization expression references are removed.

:func:`optimize_unit` optimizes one unit; :func:`optimize_expr` walks
a whole program; composing with
:func:`repro.units.reduce.merge_compound` gives the paper's inter-unit
optimization (see the tests and the ablation bench).
"""

from __future__ import annotations

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
    seq_of,
)
from repro.lang.errors import LangError
from repro.lang.prims import OutputPort, make_global_env
from repro.lang.subst import free_vars
from repro.lang.values import Primitive
from repro.units.ast import (
    CompoundExpr,
    InvokeExpr,
    LinkClause,
    UnitExpr,
)
from repro.units.valuable import program_bindings

#: Primitives safe to evaluate at compile time on literal arguments.
FOLDABLE_PRIMS = frozenset({
    "+", "-", "*", "modulo", "quotient", "min", "max", "abs",
    "add1", "sub1", "=", "<", ">", "<=", ">=", "zero?", "number?",
    "not", "boolean?", "string?", "string-append", "string-length",
    "string=?", "substring", "number->string",
})

_PRIM_TABLE: dict[str, Primitive] = {}


def _prims() -> dict[str, Primitive]:
    if not _PRIM_TABLE:
        env = make_global_env(OutputPort())
        for name, cell in env.frame.items():
            value = cell.value
            if isinstance(value, Primitive):
                _PRIM_TABLE[name] = value
    return _PRIM_TABLE


def _is_literal(expr: Expr) -> bool:
    return isinstance(expr, Lit) and isinstance(
        expr.value, (int, float, str, bool, type(None)))


def fold_constants(expr: Expr, bound: frozenset[str]) -> Expr:
    """Bottom-up constant folding of pure primitive applications.

    ``bound`` tracks locally bound names: a shadowed primitive name is
    not foldable.
    """
    if isinstance(expr, (Lit, Var)):
        return expr
    if isinstance(expr, Lambda):
        return Lambda(expr.params,
                      fold_constants(expr.body, bound | set(expr.params)),
                      expr.loc)
    if isinstance(expr, App):
        fn = fold_constants(expr.fn, bound)
        args = tuple(fold_constants(a, bound) for a in expr.args)
        if isinstance(fn, Var) and fn.name in FOLDABLE_PRIMS \
                and fn.name not in bound and all(_is_literal(a)
                                                 for a in args):
            prim = _prims()[fn.name]
            try:
                value = prim.fn(*(a.value for a in args))  # type: ignore
            except LangError:
                # Folding must not turn a run-time error into silence;
                # leave the application for run time.
                return App(fn, args, expr.loc)
            if isinstance(value, (int, float, str, bool, type(None))):
                return Lit(value, expr.loc)
        return App(fn, args, expr.loc)
    if isinstance(expr, If):
        test = fold_constants(expr.test, bound)
        then = fold_constants(expr.then, bound)
        orelse = fold_constants(expr.orelse, bound)
        if _is_literal(test):
            return then if test.value is not False else orelse
        return If(test, then, orelse, expr.loc)
    if isinstance(expr, Let):
        new_bindings = tuple((n, fold_constants(e, bound))
                             for n, e in expr.bindings)
        inner = bound | {n for n, _ in expr.bindings}
        return Let(new_bindings, fold_constants(expr.body, inner), expr.loc)
    if isinstance(expr, Letrec):
        inner = bound | {n for n, _ in expr.bindings}
        new_bindings = tuple((n, fold_constants(e, inner))
                             for n, e in expr.bindings)
        return Letrec(new_bindings, fold_constants(expr.body, inner),
                      expr.loc)
    if isinstance(expr, SetBang):
        return SetBang(expr.name, fold_constants(expr.expr, bound),
                       expr.loc)
    if isinstance(expr, Seq):
        return Seq(tuple(fold_constants(e, bound) for e in expr.exprs),
                   expr.loc)
    if isinstance(expr, UnitExpr):
        return optimize_unit(expr)
    if isinstance(expr, CompoundExpr):
        return CompoundExpr(
            expr.imports, expr.exports,
            LinkClause(fold_constants(expr.first.expr, bound),
                       expr.first.withs, expr.first.provides),
            LinkClause(fold_constants(expr.second.expr, bound),
                       expr.second.withs, expr.second.provides),
            expr.loc)
    if isinstance(expr, InvokeExpr):
        return InvokeExpr(
            fold_constants(expr.expr, bound),
            tuple((n, fold_constants(e, bound)) for n, e in expr.links),
            expr.loc)
    raise TypeError(f"fold_constants: unknown expression {expr!r}")


def optimize_unit(unit: UnitExpr, rounds: int = 4) -> UnitExpr:
    """Optimize one unit: fold, inline literals, drop dead definitions.

    The unit's interface is the boundary: imports are opaque, exports
    are roots.  The result has the same interface and — because only
    valuable (effect-free) definitions are touched — the same
    behaviour; the differential tests check that claim.
    """
    current = unit
    for _ in range(rounds):
        step = _optimize_unit_once(current)
        if step == current:
            return step
        current = step
    return current


def _optimize_unit_once(unit: UnitExpr) -> UnitExpr:
    assigned, _units = program_bindings(unit)

    # 1. Constant-fold every right-hand side and the init.
    bound = frozenset(unit.imports) | frozenset(unit.defined)
    defns = [(name, fold_constants(rhs, bound))
             for name, rhs in unit.defns]
    init = fold_constants(unit.init, bound)

    # 2. Inline definitions bound to literals (and never assigned).
    inline: dict[str, Expr] = {
        name: rhs for name, rhs in defns
        if _is_literal(rhs) and name not in assigned}
    if inline:
        from repro.lang.subst import substitute

        defns = [(name, substitute(rhs, {k: v for k, v in inline.items()
                                         if k != name}))
                 for name, rhs in defns]
        init = substitute(init, inline)

    # 3. Dead-definition elimination: exported names are roots; a
    #    definition is live if reachable from a root or the init.
    defined = set(unit.defined)
    refs: dict[str, frozenset[str]] = {
        name: free_vars(rhs) & defined
        for name, rhs in defns}
    live: set[str] = set(unit.exports) | set(assigned)
    frontier = list(live) + sorted(free_vars(init) & defined)
    live.update(frontier)
    while frontier:
        name = frontier.pop()
        for dep in refs.get(name, frozenset()):
            if dep not in live:
                live.add(dep)
                frontier.append(dep)
    new_defns = tuple((name, rhs) for name, rhs in defns if name in live)

    return UnitExpr(unit.imports, unit.exports, new_defns, init, unit.loc)


def optimize_expr(expr: Expr) -> Expr:
    """Optimize every unit in a program (plus top-level folding)."""
    return fold_constants(expr, frozenset())


def optimization_report(before: UnitExpr, after: UnitExpr) -> str:
    """A one-line summary of what optimization removed."""
    removed = [name for name in before.defined
               if name not in set(after.defined)]
    return (f"definitions: {len(before.defns)} -> {len(after.defns)}"
            + (f" (removed: {', '.join(removed)})" if removed else ""))
