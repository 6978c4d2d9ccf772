"""The unit-specific reduction rules of Figure 11 (and Figure 8).

Two rules define the whole semantics of units:

* **invoke**: ``invoke (unit import xi export xe val x = e in eb) with
  xw = vw``  reduces to ``[vw/xw](letrec val x = e in eb)`` provided the
  supplied names cover the imports (``xi ⊆ xw``); otherwise a run-time
  error is signalled.

* **compound**: a compound whose two constituents are (atomic) unit
  values reduces to a single merged unit — the constituents'
  definitions are concatenated (alpha-renamed apart) and their
  initialization expressions sequenced.  This is exactly the graphical
  reduction of Figure 8, where the boxes for ``Database`` and
  ``NumberInfo`` collapse into one box.

These functions are *pure syntax transformations*; the small-step
machine (:mod:`repro.lang.machine`) drives them, and the figure
benchmarks print the before/after terms.
"""

from __future__ import annotations

from repro import limits as _limits
from repro.lang.ast import Expr, Letrec, Var, seq_of
from repro.lang.errors import UnitLinkError
from repro.lang.subst import fresh_like, free_vars, substitute
from repro.lang.values import check_clause
from repro.obs import current as _obs_current
from repro.serve import chaos as _chaos
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr


def reduce_invoke(unit: UnitExpr,
                  links: dict[str, Expr]) -> Expr:
    """Apply the invoke reduction rule.

    ``links`` maps supplied import names to value *syntax*.  The result
    is the letrec of Figure 11 with imported variables replaced by the
    supplied values.  Raises :class:`UnitLinkError` when the supplied
    names do not cover the unit's imports.
    """
    missing = [name for name in unit.imports if name not in links]
    if missing:
        raise UnitLinkError(
            "invoke: unit imports not satisfied: " + ", ".join(missing))
    budget = _limits.current()
    if budget is not None:
        budget.check_deadline(getattr(unit, "loc", None))
    col = _obs_current()
    if col is None:
        body = Letrec(unit.defns, unit.init)
        mapping = {name: links[name] for name in unit.imports}
        return substitute(body, mapping)
    # A span, not a flat event: the substitution work this rule
    # triggers (and any nested reductions the driver performs inside
    # it) shows up as this node's subtree in `repro trace report`.
    with col.span("reduce.invoke", {
            "imports": len(unit.imports), "defns": len(unit.defns)}):
        body = Letrec(unit.defns, unit.init)
        mapping = {name: links[name] for name in unit.imports}
        return substitute(body, mapping)


def _rename_block(defns: tuple[tuple[str, Expr], ...], init: Expr,
                  renames: dict[str, str]):
    """Rename defined variables throughout a definitions+init block."""
    if not renames:
        return defns, init
    mapping = {old: Var(new) for old, new in renames.items()}
    new_defns = tuple((renames.get(name, name), substitute(rhs, mapping))
                      for name, rhs in defns)
    return new_defns, substitute(init, mapping)


def merge_compound(compound: CompoundExpr, first: UnitExpr,
                   second: UnitExpr) -> UnitExpr:
    """Apply the compound reduction rule (Figure 11, second rule).

    ``first`` and ``second`` are the constituent unit values.  The rule
    requires that each constituent *needs no more than* its ``with``
    clause and *provides at least* its ``provides`` clause; violations
    raise :class:`UnitLinkError` (these are the run-time link checks of
    the dynamically typed calculus).

    Renaming: variables named in a ``provides`` clause are linkage
    points and keep their names; every other definition is private to
    its constituent and is renamed when it would collide with the
    merged unit's imports, with the other constituent's definitions, or
    with linkage names.
    """
    check_clause(first, compound.first.withs, compound.first.provides,
                 "first")
    check_clause(second, compound.second.withs, compound.second.provides,
                 "second")

    budget = _limits.current()
    if budget is not None:
        budget.check_deadline(getattr(compound, "loc", None))
    if _chaos._armed:
        _chaos.exhaust("reduce.merge_compound")
    col = _obs_current()
    if col is None:
        return _merge_bodies(compound, first, second, None)
    with col.span("reduce.compound", {
            "defns": len(first.defns) + len(second.defns)}) as sp:
        return _merge_bodies(compound, first, second, sp)


def _merge_bodies(compound: CompoundExpr, first: UnitExpr,
                  second: UnitExpr, sp) -> UnitExpr:
    """The rename-and-concatenate work of the compound rule."""
    linkage = (set(compound.imports) | set(compound.first.provides)
               | set(compound.second.provides))
    taken = set(linkage)
    taken |= free_vars(first) | free_vars(second)

    def plan_renames(unit: UnitExpr, provides: tuple[str, ...]):
        keep = set(provides)
        renames: dict[str, str] = {}
        for name in unit.defined:
            if name in keep:
                taken.add(name)
                continue
            if name in taken:
                fresh = fresh_like(name, taken)
                renames[name] = fresh
                taken.add(fresh)
            else:
                taken.add(name)
        return renames

    renames1 = plan_renames(first, compound.first.provides)
    defns1, init1 = _rename_block(first.defns, first.init, renames1)
    renames2 = plan_renames(second, compound.second.provides)
    defns2, init2 = _rename_block(second.defns, second.init, renames2)

    if sp is not None:
        sp.annotate(renamed=len(renames1) + len(renames2))
    return UnitExpr(
        imports=compound.imports,
        exports=compound.exports,
        defns=defns1 + defns2,
        init=seq_of(init1, init2),
        loc=compound.loc,
    )


def reduce_compound_expr(expr: CompoundExpr) -> UnitExpr:
    """Reduce a compound whose constituents are already unit values.

    A convenience for the figure demonstrations: requires both clause
    expressions to be syntactic ``unit`` forms.
    """
    first, second = expr.first.expr, expr.second.expr
    if not (isinstance(first, UnitExpr) and isinstance(second, UnitExpr)):
        raise UnitLinkError(
            "reduce_compound_expr: constituents are not unit values yet")
    return merge_compound(expr, first, second)


def reduce_invoke_expr(expr: InvokeExpr) -> Expr:
    """Reduce an invoke whose target is a unit value and whose link
    expressions are values (a convenience for demonstrations)."""
    unit = expr.expr
    if not isinstance(unit, UnitExpr):
        raise UnitLinkError("reduce_invoke_expr: target is not a unit value")
    return reduce_invoke(unit, dict(expr.links))
