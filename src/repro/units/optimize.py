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

from repro.lang import terms as _terms
from repro.lang.ast import App, Expr, If, Lit, SetBang, Var
from repro.lang.errors import LangError
from repro.lang.prims import OutputPort, make_global_env
from repro.lang.subst import (
    binder_names,
    children,
    free_vars,
    map_children,
    substitute,
)
from repro.lang.values import Primitive
from repro.units.ast import UnitExpr

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
    not foldable.  Returns ``expr`` itself when nothing folds.
    """
    kind = type(expr)
    if kind is Lit or kind is Var:
        return expr
    if kind is UnitExpr:
        return optimize_unit(expr, around=bound)
    names = binder_names(expr)
    inner = bound.union(names) if names else bound
    folded = map_children(expr, lambda e: fold_constants(e, bound),
                          lambda e: fold_constants(e, inner))
    if kind is App:
        fn, args = folded.fn, folded.args
        if isinstance(fn, Var) and fn.name in FOLDABLE_PRIMS \
                and fn.name not in bound and all(_is_literal(a)
                                                 for a in args):
            prim = _prims()[fn.name]
            try:
                value = prim.fn(*(a.value for a in args))  # type: ignore
            except LangError:
                # Folding must not turn a run-time error into silence;
                # leave the application for run time.
                return folded
            if isinstance(value, (int, float, str, bool, type(None))):
                return Lit(value, expr.loc)
    elif kind is If and _is_literal(folded.test):
        return folded.then if folded.test.value is not False \
            else folded.orelse
    return folded


def optimize_unit(unit: UnitExpr, rounds: int = 4,
                  around: frozenset[str] = frozenset()) -> UnitExpr:
    """Optimize one unit: fold, inline literals, drop dead definitions.

    The unit's interface is the boundary: imports are opaque, exports
    are roots.  ``around`` names the variables bound where the unit
    appears: a primitive they shadow is not folded.  The result has the same interface and — because only
    valuable (effect-free) definitions are touched — the same
    behaviour; the differential tests check that claim.  A round that
    changes nothing returns its input, so the fixpoint test is
    identity.
    """
    current = unit
    for _ in range(rounds):
        step = _optimize_unit_once(current, around)
        if step is current:
            return step
        current = step
    return current


def _assigned(unit: UnitExpr) -> frozenset[str]:
    """Every ``set!`` target in ``unit``, memoized on each unit.

    A unit's set joins the sets of the units nested in it instead of
    walking their bodies again, so optimizing units nested n deep
    walks each node once rather than once per enclosing unit.
    """
    memoize = _terms.caching_enabled()
    cached = getattr(unit, "_assigned", None) if memoize else None
    if cached is not None:
        return cached
    # Pre-order over the units whose set is not known yet: an entry is
    # a unit, the targets found in it, and the entries nested in it.
    root: tuple = (unit, set(), [])
    order = [root]
    stack = [(kid, root) for kid in children(unit)]
    while stack:
        node, entry = stack.pop()
        kind = type(node)
        if kind is UnitExpr:
            known = getattr(node, "_assigned", None) if memoize else None
            if known is not None:
                entry[1].update(known)
                continue
            nested: tuple = (node, set(), [])
            entry[2].append(nested)
            order.append(nested)
            entry = nested
        elif kind is SetBang:
            entry[1].add(node.name)
        stack += [(kid, entry) for kid in children(node)]
    # Innermost first, so each nested set is complete when joined.
    for node, targets, nested in reversed(order):
        for _, more, _ in nested:
            targets |= more
        if memoize:
            object.__setattr__(node, "_assigned", frozenset(targets))
    return frozenset(root[1])


def _optimize_unit_once(unit: UnitExpr,
                        around: frozenset[str]) -> UnitExpr:
    assigned = _assigned(unit)

    # 1. Constant-fold every right-hand side and the init.
    bound = around.union(unit.imports, unit.defined)
    defns = [(name, fold_constants(rhs, bound))
             for name, rhs in unit.defns]
    init = fold_constants(unit.init, bound)

    # 2. Inline definitions bound to literals (and never assigned).
    inline: dict[str, Expr] = {
        name: rhs for name, rhs in defns
        if _is_literal(rhs) and name not in assigned}
    if inline:
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

    if init is unit.init and len(new_defns) == len(unit.defns) and all(
            rhs is old for (_, rhs), (_, old) in zip(new_defns, unit.defns)):
        return unit
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
