"""Whole-program static linking: flattening known compounds.

A ``compound`` whose constituents are syntactically known units can be
merged at compile time (Figure 11's reduction applied statically) —
"since a compound unit is equivalent to a simple unit that merges its
constituent units, intra-unit optimization techniques naturally extend
to inter-unit optimizations when a compound expression has known
constituent units" (Section 4.2.4).

:func:`flatten` rewrites every such compound bottom-up into the merged
atomic unit; compounds over *dynamic* constituents (variables, or unit
expressions chosen at run time) are left alone, preserving behaviour.
:func:`link_and_optimize` composes flattening with the Section 4.2.4
optimizer, yielding the static-linker pipeline:

    parse -> check -> flatten -> optimize -> run/compile
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.obs import current as _obs_current
from repro.units import cache as _cache
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr
from repro.units.optimize import optimize_expr, optimize_unit
from repro.units.reduce import merge_compound
from repro.units.valuable import program_bindings


@dataclass
class LinkStats:
    """What flattening accomplished."""

    merged: int = 0
    left_dynamic: int = 0
    #: Event-replay log for the flatten memo (one marker per compound
    #: decision, in emission order); ``None`` when the caches are off.
    log: list | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        return (f"{self.merged} compound(s) statically linked, "
                f"{self.left_dynamic} left for run time")


def flatten(expr: Expr, stats: LinkStats | None = None) -> Expr:
    """Merge every compound with syntactically known constituents.

    "Known" includes variables bound (by an enclosing ``let`` or
    ``letrec``) directly to a unit expression and never assigned: a
    clause position referencing such a variable resolves to the unit
    literal before merging.  This is safe because (a) each link of a
    unit creates a fresh instance anyway, so duplicating the *syntax*
    duplicates nothing observable, and (b) the resolved unit's free
    variables remain in scope at the use site (the binding's scope
    encloses it).
    """
    stats = stats if stats is not None else LinkStats()
    if stats.log is None and _cache.unit_caches_active():
        stats.log = []
    assigned, _units = program_bindings(expr)
    return _flatten(expr, stats, {}, assigned)


def _flatten(expr: Expr, stats: LinkStats,
             units_in_scope: dict[str, UnitExpr],
             assigned: frozenset[str]) -> Expr:
    def go(e: Expr, scope=None) -> Expr:
        return _flatten(e, stats,
                        scope if scope is not None else units_in_scope,
                        assigned)

    def scope_minus(names) -> dict[str, UnitExpr]:
        # Binders rarely shadow a unit binding: share the scope dict
        # unchanged unless a name actually collides, so deep programs
        # do not copy the scope at every binder.
        if not units_in_scope or not any(n in units_in_scope
                                         for n in names):
            return units_in_scope
        return {k: v for k, v in units_in_scope.items() if k not in names}

    if isinstance(expr, (Lit, Var)):
        return expr
    if isinstance(expr, Lambda):
        return Lambda(expr.params,
                      go(expr.body, scope_minus(expr.params)), expr.loc)
    if isinstance(expr, App):
        return App(go(expr.fn), tuple(go(a) for a in expr.args), expr.loc)
    if isinstance(expr, If):
        return If(go(expr.test), go(expr.then), go(expr.orelse), expr.loc)
    if isinstance(expr, (Let, Letrec)):
        node = type(expr)
        bound = {n for n, _ in expr.bindings}
        rhs_scope = scope_minus(bound) if isinstance(expr, Let) \
            else None  # letrec: computed below, after flattening
        if isinstance(expr, Let):
            new_bindings = tuple((n, go(e, rhs_scope))
                                 for n, e in expr.bindings)
        else:
            # letrec right-hand sides see the letrec's own unit
            # bindings; build the extended scope in two passes.
            pre = tuple((n, _flatten(e, stats, scope_minus(bound), assigned))
                        for n, e in expr.bindings)
            inner0 = dict(scope_minus(bound))
            for n, e in pre:
                if isinstance(e, UnitExpr) and n not in assigned:
                    inner0[n] = e
            new_bindings = tuple((n, _flatten(e, stats, inner0, assigned))
                                 for n, e in pre)
        inner = dict(scope_minus(bound))
        for n, e in new_bindings:
            if isinstance(e, UnitExpr) and n not in assigned:
                inner[n] = e
        return node(new_bindings, go(expr.body, inner), expr.loc)
    if isinstance(expr, SetBang):
        return SetBang(expr.name, go(expr.expr), expr.loc)
    if isinstance(expr, Seq):
        return Seq(tuple(go(e) for e in expr.exprs), expr.loc)
    if isinstance(expr, UnitExpr):
        bound = set(expr.imports) | set(expr.defined)
        inner = scope_minus(bound)
        return UnitExpr(expr.imports, expr.exports,
                        tuple((n, go(e, inner)) for n, e in expr.defns),
                        go(expr.init, inner), expr.loc)
    if isinstance(expr, CompoundExpr):
        # Whole-subtree memo: a compound whose digest and flattening
        # context are unchanged returns its stored result without
        # re-walking the subtree; stat deltas and span kinds replay so
        # the memo stays observationally invisible.
        memo_key = _cache.flatten_key(expr, units_in_scope, assigned)
        if memo_key is not None:
            from repro import limits as _limits

            budget = _limits.current()
            if budget is not None:
                budget.check_deadline(expr.loc)
            hit = _cache.flatten_lookup(memo_key)
            if hit is not None:
                result, d_merged, d_dynamic, replay = hit
                stats.merged += d_merged
                stats.left_dynamic += d_dynamic
                if stats.log is not None:
                    stats.log.extend(replay)
                _cache.replay_link_events(replay)
                return result
        base_merged = stats.merged
        base_dynamic = stats.left_dynamic
        log_start = len(stats.log) if stats.log is not None else 0

        def resolve(e: Expr) -> Expr:
            flat = go(e)
            if isinstance(flat, Var) and flat.name in units_in_scope:
                return units_in_scope[flat.name]
            return flat

        first = resolve(expr.first.expr)
        second = resolve(expr.second.expr)
        rebuilt = CompoundExpr(
            expr.imports, expr.exports,
            LinkClause(first, expr.first.withs, expr.first.provides),
            LinkClause(second, expr.second.withs, expr.second.provides),
            expr.loc)
        col = _obs_current()
        if isinstance(first, UnitExpr) and isinstance(second, UnitExpr):
            stats.merged += 1
            if col is None:
                out = merge_compound(rebuilt, first, second)
            else:
                # Span: the reduce.compound merge it triggers nests
                # inside.
                with col.span("link.static", {"merged": True}):
                    out = merge_compound(rebuilt, first, second)
            if stats.log is not None:
                stats.log.append(
                    ("m", len(first.defns) + len(second.defns)))
        else:
            stats.left_dynamic += 1
            if col is not None:
                col.emit("link.static", {"merged": False})
            if stats.log is not None:
                stats.log.append(("d",))
            out = rebuilt
        if memo_key is not None and stats.log is not None:
            _cache.flatten_store(memo_key, (
                out,
                stats.merged - base_merged,
                stats.left_dynamic - base_dynamic,
                tuple(stats.log[log_start:])))
        return out
    if isinstance(expr, InvokeExpr):
        return InvokeExpr(
            go(expr.expr),
            tuple((n, go(e)) for n, e in expr.links),
            expr.loc)
    raise TypeError(f"flatten: unknown expression {expr!r}")


def link_and_optimize(
        expr: Expr,
        timings: dict[str, float] | None = None) -> tuple[Expr, LinkStats]:
    """The static-linker pipeline: flatten, then optimize.

    Returns the transformed program and the linking statistics.
    Behaviour is preserved (differential tests): only
    syntactically-known compounds are merged, and the optimizer only
    touches valuable definitions.

    ``timings``, when given, receives wall seconds for the two
    sub-stages under the keys ``"flatten"`` and ``"optimize"`` — the
    bench harness uses this to break the link stage down without
    requiring a trace collector.
    """
    import time as _time

    stats = LinkStats()
    t0 = _time.perf_counter()
    flat = flatten(expr, stats)
    t1 = _time.perf_counter()
    optimized = optimize_expr(flat)
    if isinstance(optimized, UnitExpr):
        optimized = optimize_unit(optimized)
    t2 = _time.perf_counter()
    if timings is not None:
        timings["flatten"] = t1 - t0
        timings["optimize"] = t2 - t1
    return optimized, stats
