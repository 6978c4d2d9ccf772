"""Free variables, capture-avoiding substitution, and alpha-renaming.

The paper's semantics is a rewriting semantics: invocation substitutes
values for imported variables, and compound linking merges two units
after renaming their internal definitions apart ("all bindings
introduced by definitions in the two units must be appropriately
alpha-renamed to avoid collisions", Section 4.1.5).  This module
provides those operations for the full expression language, including
the three unit forms.

Binding structure of the unit forms:

* ``unit``: imports and defined names bind in every definition and in
  the initialization expression; exported names are references to
  defined names, not binders.
* ``compound``: introduces no bindings of its own; its name lists are
  linking specifications resolved at reduction time.
* ``invoke``: the link names are labels for the invoked unit's imports,
  not binders in the invoking program.

Performance: because AST nodes are immutable, a node's free-variable
set never changes — :func:`free_vars` memoizes it on the node (the
``_fv`` field written via ``object.__setattr__``), and substitution
uses the memo for an identity short-circuit: a subtree with no free
occurrence of any substituted variable is returned *unchanged* instead
of being rebuilt.  Both are controlled by the global caching switch in
:mod:`repro.lang.terms` (``--no-term-cache`` forces the old
recompute-and-rebuild path for differential testing).  Substitution
under a binder is a single batched parallel pass: binder renamings are
merged into the live mapping rather than applied in a separate
traversal.
"""

from __future__ import annotations

import itertools
import re

from repro import limits as _limits
from repro.lang import terms as _terms
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
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr

_counter = itertools.count()


def gensym(base: str) -> str:
    """Generate a fresh variable name derived from ``base``.

    Freshness is global to the process; generated names contain ``%``,
    which the parser never produces for user identifiers in binding
    positions reached through :func:`fresh_like` (the reader does allow
    ``%`` so printed terms still round-trip).
    """
    return f"{base}%{next(_counter)}"


#: A machine-generated suffix chain: one or more ``%<digits>`` groups
#: at the *end* of a name.  Only these are stripped when re-freshening,
#: so a fresh name derived from a fresh name reuses the original base
#: (``h%5`` -> ``h%12``, never ``h%5%12``) while user identifiers that
#: legitimately contain ``%`` (the reader allows it) are preserved in
#: full (``x%y`` -> ``x%y%12``, not ``x%12``).
_GENSYM_SUFFIX = re.compile(r"(%\d+)+$")


def fresh_like(base: str, avoid: set[str]) -> str:
    """Generate a name based on ``base`` avoiding everything in ``avoid``."""
    stem = _GENSYM_SUFFIX.sub("", base) or base
    candidate = gensym(stem)
    while candidate in avoid:
        candidate = gensym(stem)
    return candidate


def free_vars(expr: Expr) -> frozenset[str]:
    """The free variables of an expression (memoized per node)."""
    if _terms._enabled:
        cached = getattr(expr, "_fv", None)
        if cached is not None:
            return cached
        out = _free_vars(expr)
        object.__setattr__(expr, "_fv", out)
        return out
    return _free_vars(expr)


def _free_vars(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Lambda):
        return free_vars(expr.body) - set(expr.params)
    if isinstance(expr, App):
        out = free_vars(expr.fn)
        for arg in expr.args:
            out |= free_vars(arg)
        return out
    if isinstance(expr, If):
        return free_vars(expr.test) | free_vars(expr.then) | free_vars(expr.orelse)
    if isinstance(expr, Let):
        bound = {name for name, _ in expr.bindings}
        out = frozenset()
        for _, rhs in expr.bindings:
            out |= free_vars(rhs)
        return out | (free_vars(expr.body) - bound)
    if isinstance(expr, Letrec):
        bound = {name for name, _ in expr.bindings}
        out = free_vars(expr.body)
        for _, rhs in expr.bindings:
            out |= free_vars(rhs)
        return out - bound
    if isinstance(expr, SetBang):
        return frozenset((expr.name,)) | free_vars(expr.expr)
    if isinstance(expr, Seq):
        out = frozenset()
        for sub in expr.exprs:
            out |= free_vars(sub)
        return out
    if isinstance(expr, UnitExpr):
        bound = set(expr.imports) | set(expr.defined)
        out = frozenset()
        for _, rhs in expr.defns:
            out |= free_vars(rhs)
        out |= free_vars(expr.init)
        return out - bound
    if isinstance(expr, CompoundExpr):
        return free_vars(expr.first.expr) | free_vars(expr.second.expr)
    if isinstance(expr, InvokeExpr):
        out = free_vars(expr.expr)
        for _, rhs in expr.links:
            out |= free_vars(rhs)
        return out
    raise TypeError(f"free_vars: unknown expression {expr!r}")


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of expressions for free variables.

    ``mapping`` maps variable names to replacement expressions (usually
    value syntax).  Binders that would capture a free variable of a
    replacement are renamed first.  When caching is on, a term with no
    free occurrence of any mapped variable is returned unchanged
    (identity, not just equality) — renaming only ever protects
    replacements that are actually inserted, so an untouched subtree
    is already the correct result.
    """
    if not mapping:
        return expr
    if _terms._enabled and free_vars(expr).isdisjoint(mapping):
        return expr
    replacement_fvs: set[str] = set()
    for replacement in mapping.values():
        replacement_fvs |= free_vars(replacement)
    return _subst(expr, mapping, replacement_fvs)


def _subst(expr: Expr, mapping: dict[str, Expr], rfvs: set[str]) -> Expr:
    budget = _limits.current()
    if budget is not None:
        budget.charge_subst(expr)
    if _terms._enabled and free_vars(expr).isdisjoint(mapping):
        return expr
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Lambda):
        params, body, live, live_rfvs = _enter_binder(
            list(expr.params), expr.body, mapping, rfvs)
        return Lambda(tuple(params), _subst(body, live, live_rfvs), expr.loc)
    if isinstance(expr, App):
        return App(_subst(expr.fn, mapping, rfvs),
                   tuple(_subst(a, mapping, rfvs) for a in expr.args),
                   expr.loc)
    if isinstance(expr, If):
        return If(_subst(expr.test, mapping, rfvs),
                  _subst(expr.then, mapping, rfvs),
                  _subst(expr.orelse, mapping, rfvs), expr.loc)
    if isinstance(expr, Let):
        new_rhs = [_subst(rhs, mapping, rfvs) for _, rhs in expr.bindings]
        names, body, live, live_rfvs = _enter_binder(
            [name for name, _ in expr.bindings], expr.body, mapping, rfvs)
        return Let(tuple(zip(names, new_rhs)),
                   _subst(body, live, live_rfvs), expr.loc)
    if isinstance(expr, Letrec):
        names = [name for name, _ in expr.bindings]
        scoped = Seq(tuple([rhs for _, rhs in expr.bindings] + [expr.body]))
        new_names, new_scoped, live, live_rfvs = _enter_binder(
            names, scoped, mapping, rfvs)
        new_scoped = _subst(new_scoped, live, live_rfvs)
        assert isinstance(new_scoped, Seq)
        parts = new_scoped.exprs
        return Letrec(tuple(zip(new_names, parts[:-1])), parts[-1], expr.loc)
    if isinstance(expr, SetBang):
        target = mapping.get(expr.name)
        new_name = expr.name
        if target is not None:
            if isinstance(target, Var):
                new_name = target.name
            else:
                raise ValueError(
                    f"cannot substitute non-variable for assigned "
                    f"variable {expr.name}")
        return SetBang(new_name, _subst(expr.expr, mapping, rfvs), expr.loc)
    if isinstance(expr, Seq):
        return Seq(tuple(_subst(e, mapping, rfvs) for e in expr.exprs),
                   expr.loc)
    if isinstance(expr, UnitExpr):
        return _subst_unit(expr, mapping, rfvs)
    if isinstance(expr, CompoundExpr):
        return CompoundExpr(
            expr.imports, expr.exports,
            LinkClause(_subst(expr.first.expr, mapping, rfvs),
                       expr.first.withs, expr.first.provides),
            LinkClause(_subst(expr.second.expr, mapping, rfvs),
                       expr.second.withs, expr.second.provides),
            expr.loc)
    if isinstance(expr, InvokeExpr):
        return InvokeExpr(
            _subst(expr.expr, mapping, rfvs),
            tuple((name, _subst(rhs, mapping, rfvs))
                  for name, rhs in expr.links),
            expr.loc)
    raise TypeError(f"substitute: unknown expression {expr!r}")


def _enter_binder(names: list[str], scope: Expr, mapping: dict[str, Expr],
                  rfvs: set[str]):
    """Prepare to substitute under a binder for ``names`` scoping ``scope``.

    Returns possibly renamed names, the scope, the mapping to apply to
    the scope, and that mapping's replacement free variables.  Binder
    renamings (needed when a binder would capture a replacement) are
    *merged into* the returned mapping instead of being applied in a
    separate substitution pass: the renamed binders and the live
    mapping have disjoint domains, and parallel substitution never
    descends into replacements, so one pass gives the same result as
    rename-then-substitute.
    """
    live = {k: v for k, v in mapping.items() if k not in names}
    if not live:
        return names, scope, live, rfvs
    needs_rename = [name for name in names if name in rfvs]
    if needs_rename:
        avoid = rfvs | set(names) | set(free_vars(scope)) | set(live)
        merged = dict(live)
        merged_rfvs = set(rfvs)
        new_names = []
        for name in names:
            if name in rfvs:
                fresh = fresh_like(name, avoid)
                avoid.add(fresh)
                merged[name] = Var(fresh)
                merged_rfvs.add(fresh)
                new_names.append(fresh)
            else:
                new_names.append(name)
        return new_names, scope, merged, merged_rfvs
    return names, scope, live, rfvs


def _subst_unit(expr: UnitExpr, mapping: dict[str, Expr],
                rfvs: set[str]) -> UnitExpr:
    """Substitute into a unit.

    Imports and defined names are binders.  Import and export names are
    part of the unit's *interface* and cannot be renamed in UNITd
    (Section 4.1.1), so if a replacement would be captured by an
    interface name we rename only internal (non-exported) definitions;
    capture by an import/export name is a substitution error, which the
    reduction semantics avoids by construction.
    """
    bound = list(expr.imports) + list(expr.defined)
    live = {k: v for k, v in mapping.items() if k not in bound}
    if not live:
        return expr
    interface = set(expr.imports) | set(expr.exports)
    captured = [name for name in bound if name in rfvs]
    merged = live
    merged_rfvs = rfvs
    renamed: dict[str, str] = {}
    if captured:
        avoid = rfvs | set(bound) | set(live)
        for _, rhs in expr.defns:
            avoid |= free_vars(rhs)
        avoid |= free_vars(expr.init)
        merged = dict(live)
        merged_rfvs = set(rfvs)
        for name in captured:
            if name in interface:
                raise ValueError(
                    f"substitution would capture interface name {name}")
            fresh = fresh_like(name, avoid)
            avoid.add(fresh)
            merged[name] = Var(fresh)
            merged_rfvs.add(fresh)
            renamed[name] = fresh

    new_defns = tuple(
        (renamed.get(name, name), _subst(rhs, merged, merged_rfvs))
        for name, rhs in expr.defns)
    new_init = _subst(expr.init, merged, merged_rfvs)
    return UnitExpr(expr.imports, expr.exports, new_defns, new_init, expr.loc)


def alpha_rename_unit(expr: UnitExpr, avoid: set[str]) -> UnitExpr:
    """Rename a unit's non-exported defined variables away from ``avoid``.

    This is the renaming step of the compound reduction rule
    (Section 4.1.5).  Exported definitions keep their names because the
    compound links by name; imports likewise.
    """
    interface = set(expr.imports) | set(expr.exports)
    renames: dict[str, Expr] = {}
    taken = avoid | set(expr.imports) | set(expr.defined)
    for name in expr.defined:
        if name not in interface and name in avoid:
            fresh = fresh_like(name, taken)
            taken.add(fresh)
            renames[name] = Var(fresh)
    if not renames:
        return expr
    new_defns = tuple(
        (renames[name].name if name in renames else name,
         substitute(rhs, renames))
        for name, rhs in expr.defns)
    new_init = substitute(expr.init, renames)
    return UnitExpr(expr.imports, expr.exports, new_defns, new_init, expr.loc)
