"""Renaming and substitution over typed expressions.

The typed reduction rules (Sections 4.2.2 and 4.3.2) need three
operations:

* renaming a unit's internal *value* definitions apart when compounds
  merge,
* renaming its internal *type* definitions (datatypes and equations)
  apart,
* substituting supplied value expressions for imported variables when a
  unit is invoked.

Replacement names are globally fresh (:func:`repro.lang.subst.gensym`),
so renaming can never capture; substitution stops at binders that
shadow the substituted name.

Mirroring :mod:`repro.lang.subst`, value substitution is memoized:
:func:`free_value_vars` caches each node's free *value* variables on
the (immutable) node, and :func:`subst_values_texpr` returns a subtree
unchanged when it contains no free occurrence of any mapped variable.
Both honor the global caching switch in :mod:`repro.lang.terms`.
"""

from __future__ import annotations

from repro import limits as _limits
from repro.lang import terms as _terms
from repro.types.types import TyVar, Type
from repro.unite.expand import expand_texpr, expand_type
from repro.unitc.ast import (
    DatatypeDefn,
    TApp,
    TBox,
    TExpr,
    TIf,
    TLambda,
    TLet,
    TLetrec,
    TLit,
    TProj,
    TSeq,
    TSet,
    TSetBox,
    TTuple,
    TUnbox,
    TVar,
    TypeEqn,
    TypedCompoundExpr,
    TypedInvokeExpr,
    TypedLinkClause,
    TypedUnitExpr,
)


def subst_types_texpr(expr: TExpr, mapping: dict[str, Type]) -> TExpr:
    """Substitute types for type variables throughout annotations.

    Shadowing and scope handling are exactly abbreviation expansion
    with a one-step mapping (:func:`repro.unite.expand.expand_texpr`).
    """
    return expand_texpr(expr, mapping)


def rename_types_texpr(expr: TExpr, renames: dict[str, str]) -> TExpr:
    """Rename type variables (to globally fresh names) in annotations."""
    return subst_types_texpr(
        expr, {old: TyVar(new) for old, new in renames.items()})


def free_value_vars(expr: TExpr) -> frozenset[str]:
    """The free *value* variables of a typed expression (memoized).

    Type variables and annotations are ignored — this is the value
    namespace only, matching the binders :func:`subst_values_texpr`
    respects (lambda parameters, let/letrec bindings, and a typed
    unit's value imports and defined values, including the five
    operations each datatype introduces).
    """
    if _terms._enabled:
        cached = getattr(expr, "_fvv", None)
        if cached is not None:
            return cached
        out = _free_value_vars(expr)
        object.__setattr__(expr, "_fvv", out)
        return out
    return _free_value_vars(expr)


def _free_value_vars(expr: TExpr) -> frozenset[str]:
    if isinstance(expr, TLit):
        return frozenset()
    if isinstance(expr, TVar):
        return frozenset((expr.name,))
    if isinstance(expr, TLambda):
        return free_value_vars(expr.body) - {n for n, _ in expr.params}
    if isinstance(expr, TApp):
        out = free_value_vars(expr.fn)
        for arg in expr.args:
            out |= free_value_vars(arg)
        return out
    if isinstance(expr, TIf):
        return (free_value_vars(expr.test) | free_value_vars(expr.then)
                | free_value_vars(expr.orelse))
    if isinstance(expr, TLet):
        bound = {n for n, _ in expr.bindings}
        out = frozenset()
        for _, rhs in expr.bindings:
            out |= free_value_vars(rhs)
        return out | (free_value_vars(expr.body) - bound)
    if isinstance(expr, TLetrec):
        bound = {n for n, _, _ in expr.bindings}
        out = free_value_vars(expr.body)
        for _, _, rhs in expr.bindings:
            out |= free_value_vars(rhs)
        return out - bound
    if isinstance(expr, (TSeq, TTuple)):
        out = frozenset()
        for sub in expr.exprs:
            out |= free_value_vars(sub)
        return out
    if isinstance(expr, TSet):
        return frozenset((expr.name,)) | free_value_vars(expr.expr)
    if isinstance(expr, (TProj, TBox, TUnbox)):
        return free_value_vars(expr.expr)
    if isinstance(expr, TSetBox):
        return free_value_vars(expr.box) | free_value_vars(expr.expr)
    if isinstance(expr, TypedUnitExpr):
        bound = {n for n, _ in expr.vimports} | set(expr.defined_values)
        out = frozenset()
        for _, _, rhs in expr.defns:
            out |= free_value_vars(rhs)
        out |= free_value_vars(expr.init)
        return out - bound
    if isinstance(expr, TypedCompoundExpr):
        return (free_value_vars(expr.first.expr)
                | free_value_vars(expr.second.expr))
    if isinstance(expr, TypedInvokeExpr):
        out = free_value_vars(expr.expr)
        for _, rhs in expr.vlinks:
            out |= free_value_vars(rhs)
        return out
    raise TypeError(f"free_value_vars: unknown expression {expr!r}")


def subst_values_texpr(expr: TExpr, mapping: dict[str, TExpr]) -> TExpr:
    """Substitute closed typed expressions for free value variables.

    Each visited node charges the active budget's ``subst_nodes``
    allowance, mirroring :func:`repro.lang.subst.substitute`."""
    if not mapping:
        return expr
    budget = _limits.current()
    if budget is not None:
        budget.charge_subst(expr)
    if _terms._enabled and free_value_vars(expr).isdisjoint(mapping):
        return expr
    if isinstance(expr, TLit):
        return expr
    if isinstance(expr, TVar):
        return mapping.get(expr.name, expr)
    if isinstance(expr, TLambda):
        inner = {k: v for k, v in mapping.items()
                 if k not in {n for n, _ in expr.params}}
        return TLambda(expr.params, subst_values_texpr(expr.body, inner),
                       expr.loc)
    if isinstance(expr, TApp):
        return TApp(subst_values_texpr(expr.fn, mapping),
                    tuple(subst_values_texpr(a, mapping) for a in expr.args),
                    expr.loc)
    if isinstance(expr, TIf):
        return TIf(subst_values_texpr(expr.test, mapping),
                   subst_values_texpr(expr.then, mapping),
                   subst_values_texpr(expr.orelse, mapping), expr.loc)
    if isinstance(expr, TLet):
        new_bindings = tuple((n, subst_values_texpr(rhs, mapping))
                             for n, rhs in expr.bindings)
        inner = {k: v for k, v in mapping.items()
                 if k not in {n for n, _ in expr.bindings}}
        return TLet(new_bindings, subst_values_texpr(expr.body, inner),
                    expr.loc)
    if isinstance(expr, TLetrec):
        inner = {k: v for k, v in mapping.items()
                 if k not in {n for n, _, _ in expr.bindings}}
        return TLetrec(
            tuple((n, t, subst_values_texpr(rhs, inner))
                  for n, t, rhs in expr.bindings),
            subst_values_texpr(expr.body, inner), expr.loc)
    if isinstance(expr, TSeq):
        return TSeq(tuple(subst_values_texpr(e, mapping)
                          for e in expr.exprs), expr.loc)
    if isinstance(expr, TSet):
        target = mapping.get(expr.name)
        name = expr.name
        if target is not None:
            if isinstance(target, TVar):
                name = target.name
            else:
                raise ValueError(
                    f"cannot substitute a non-variable for the assigned "
                    f"variable {expr.name}")
        return TSet(name, subst_values_texpr(expr.expr, mapping), expr.loc)
    if isinstance(expr, TTuple):
        return TTuple(tuple(subst_values_texpr(e, mapping)
                            for e in expr.exprs), expr.loc)
    if isinstance(expr, TProj):
        return TProj(expr.index, subst_values_texpr(expr.expr, mapping),
                     expr.loc)
    if isinstance(expr, TBox):
        return TBox(subst_values_texpr(expr.expr, mapping), expr.loc)
    if isinstance(expr, TUnbox):
        return TUnbox(subst_values_texpr(expr.expr, mapping), expr.loc)
    if isinstance(expr, TSetBox):
        return TSetBox(subst_values_texpr(expr.box, mapping),
                       subst_values_texpr(expr.expr, mapping), expr.loc)
    if isinstance(expr, TypedUnitExpr):
        bound = ({n for n, _ in expr.vimports}
                 | set(expr.defined_values))
        inner = {k: v for k, v in mapping.items() if k not in bound}
        if not inner:
            return expr
        return TypedUnitExpr(
            expr.timports, expr.vimports, expr.texports, expr.vexports,
            expr.datatypes, expr.equations,
            tuple((n, t, subst_values_texpr(rhs, inner))
                  for n, t, rhs in expr.defns),
            subst_values_texpr(expr.init, inner), expr.loc)
    if isinstance(expr, TypedCompoundExpr):
        def clause(c: TypedLinkClause) -> TypedLinkClause:
            return TypedLinkClause(
                subst_values_texpr(c.expr, mapping),
                c.with_types, c.with_values, c.prov_types, c.prov_values,
                c.loc)

        return TypedCompoundExpr(
            expr.timports, expr.vimports, expr.texports, expr.vexports,
            clause(expr.first), clause(expr.second), expr.loc)
    if isinstance(expr, TypedInvokeExpr):
        return TypedInvokeExpr(
            subst_values_texpr(expr.expr, mapping),
            expr.tlinks,
            tuple((n, subst_values_texpr(rhs, mapping))
                  for n, rhs in expr.vlinks),
            expr.loc)
    raise TypeError(f"subst_values_texpr: unknown expression {expr!r}")


def rename_values_texpr(expr: TExpr, renames: dict[str, str]) -> TExpr:
    """Rename free value variables (to globally fresh names)."""
    return subst_values_texpr(
        expr, {old: TVar(new) for old, new in renames.items()})


def rename_unit_internals(unit: TypedUnitExpr,
                          value_renames: dict[str, str],
                          type_renames: dict[str, str]) -> TypedUnitExpr:
    """Rename a unit's internal definitions (values and types) at once.

    Used by compound merging: the renamed names are definitions of the
    unit itself, so renaming applies to definition sites and to every
    reference in the unit's bodies and annotations.
    """
    vmap = {old: TVar(new) for old, new in value_renames.items()}
    tmap = {old: TyVar(new) for old, new in type_renames.items()}

    def rv(name: str) -> str:
        return value_renames.get(name, name)

    def rt(name: str) -> str:
        return type_renames.get(name, name)

    def fix_expr(e: TExpr) -> TExpr:
        # Renames target the unit's own definitions; the unit's binders
        # would normally shadow them, so rewrite the raw body parts
        # directly rather than going through the unit node.
        out = subst_values_texpr(e, vmap) if vmap else e
        out = subst_types_texpr(out, tmap) if tmap else out
        return out

    def fix_type(t: Type) -> Type:
        return expand_type(t, tmap) if tmap else t

    datatypes = tuple(
        DatatypeDefn(rt(d.name), rv(d.ctor1), rv(d.dtor1), fix_type(d.ty1),
                     rv(d.ctor2), rv(d.dtor2), fix_type(d.ty2),
                     rv(d.pred), d.loc)
        for d in unit.datatypes)
    equations = tuple(
        TypeEqn(rt(q.name), q.kind, fix_type(q.rhs), q.loc)
        for q in unit.equations)
    defns = tuple(
        (rv(name), fix_type(ty), fix_expr(rhs))
        for name, ty, rhs in unit.defns)
    return TypedUnitExpr(
        unit.timports,
        tuple((n, fix_type(t)) for n, t in unit.vimports),
        unit.texports,
        tuple((n, fix_type(t)) for n, t in unit.vexports),
        datatypes, equations, defns, fix_expr(unit.init), unit.loc)
