"""Typed reduction: compound merging and invocation with type
propagation (Sections 4.2.2 and 4.3.2).

"The only difference for UNITc is that the invoke and compound
reductions propagate type definitions as well as val definitions."  And
for UNITe: "the compound reduction propagates type abbreviations, but
the invoke reduction immediately expands all type abbreviations in the
invoked unit" — formalizing "the intuition that type equations
constrain how programs are linked, but they have no run-time effect
when programs are executed."

:func:`merge_typed_compound` performs the typed Figure 8/11 merge;
:func:`reduce_typed_invoke` produces a :class:`TypedBlock` — the
paper's core ``letrec`` over both type and value definitions — with
imports substituted and (per UNITe) every abbreviation expanded away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.errors import UnitLinkError
from repro.lang.subst import fresh_like, substitute
from repro.types.types import TyVar, Type
from repro.unitc.ast import (
    DatatypeDefn,
    TExpr,
    TSeq,
    TVar,
    TypeEqn,
    TypedCompoundExpr,
    TypedUnitExpr,
)
from repro.unite.expand import expand_texpr, expand_type


def _tseq(first: TExpr, second: TExpr) -> TExpr:
    firsts = first.exprs if isinstance(first, TSeq) else (first,)
    seconds = second.exprs if isinstance(second, TSeq) else (second,)
    return TSeq(firsts + seconds)


def rename_unit_internals(unit: TypedUnitExpr,
                          value_renames: dict[str, str],
                          type_renames: dict[str, str]) -> TypedUnitExpr:
    """Rename a unit's internal definitions (values and types) at once.

    Used by compound merging: the renamed names are definitions of the
    unit itself, so renaming applies to definition sites and to every
    reference in the unit's bodies and annotations.  Replacement names
    are globally fresh (:func:`repro.lang.subst.fresh_like`), so
    renaming never captures.
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
        # directly rather than going through the unit node.  Type
        # substitution is abbreviation expansion with a one-step
        # mapping.
        return expand_texpr(substitute(e, vmap), tmap)

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


def merge_typed_compound(compound: TypedCompoundExpr,
                         first: TypedUnitExpr,
                         second: TypedUnitExpr) -> TypedUnitExpr:
    """Merge two typed unit values per the typed compound reduction.

    Both type and value definitions are propagated into the merged
    unit; hidden (non-provided) definitions are renamed apart exactly
    as in the untyped rule.
    """
    for unit, clause, which in (
            (first, compound.first, "first"),
            (second, compound.second, "second")):
        missing_v = [n for n, _ in unit.vimports
                     if n not in {m for m, _ in clause.with_values}]
        missing_t = [n for n, _ in unit.timports
                     if n not in {m for m, _ in clause.with_types}]
        if missing_v or missing_t:
            raise UnitLinkError(
                f"compound: {which} constituent imports exceed its with "
                f"clause: " + ", ".join(missing_v + missing_t))
        absent_v = [n for n, _ in clause.prov_values
                    if n not in {m for m, _ in unit.vexports}]
        absent_t = [n for n, _ in clause.prov_types
                    if n not in {m for m, _ in unit.texports}]
        if absent_v or absent_t:
            raise UnitLinkError(
                f"compound: {which} constituent does not provide: "
                + ", ".join(absent_v + absent_t))

    taken_v = ({n for n, _ in compound.vimports}
               | {n for n, _ in compound.first.prov_values}
               | {n for n, _ in compound.second.prov_values})
    taken_t = ({n for n, _ in compound.timports}
               | {n for n, _ in compound.first.prov_types}
               | {n for n, _ in compound.second.prov_types})

    def plan(unit: TypedUnitExpr, clause) -> TypedUnitExpr:
        keep_v = {n for n, _ in clause.prov_values}
        keep_t = {n for n, _ in clause.prov_types}
        vren: dict[str, str] = {}
        tren: dict[str, str] = {}
        for name in unit.defined_values:
            if name in keep_v:
                taken_v.add(name)
            elif name in taken_v:
                fresh = fresh_like(name, taken_v)
                vren[name] = fresh
                taken_v.add(fresh)
            else:
                taken_v.add(name)
        for name in unit.defined_types:
            if name in keep_t:
                taken_t.add(name)
            elif name in taken_t:
                fresh = fresh_like(name, taken_t)
                tren[name] = fresh
                taken_t.add(fresh)
            else:
                taken_t.add(name)
        if vren or tren:
            return rename_unit_internals(unit, vren, tren)
        return unit

    first = plan(first, compound.first)
    second = plan(second, compound.second)

    return TypedUnitExpr(
        timports=compound.timports,
        vimports=compound.vimports,
        texports=compound.texports,
        vexports=compound.vexports,
        datatypes=first.datatypes + second.datatypes,
        equations=first.equations + second.equations,
        defns=first.defns + second.defns,
        init=_tseq(first.init, second.init),
        loc=compound.loc)


@dataclass(frozen=True)
class TypedBlock:
    """The result of typed invocation before core evaluation.

    Represents the paper's ``letrec type-defns val-defns in e`` — the
    core block that invocation rewrites to.  ``equations`` is always
    empty: per Section 4.3.2, invoke expands abbreviations immediately.
    """

    datatypes: tuple[DatatypeDefn, ...]
    defns: tuple[tuple[str, Type, TExpr], ...]
    body: TExpr


def erase_typed_block(block: "TypedBlock"):
    """Erase a typed block to a core ``letrec`` for execution.

    Datatype definitions erase to their five operation definitions
    (exactly as in :func:`repro.unitc.erase.erase_unit`), placed before
    the value definitions so constructors are available immediately.
    """
    from repro.lang.ast import Letrec
    from repro.unitc.erase import datatype_defns, erase

    bindings = []
    for dt in block.datatypes:
        bindings.extend(datatype_defns(dt))
    for name, _, rhs in block.defns:
        bindings.append((name, erase(rhs)))
    return Letrec(tuple(bindings), erase(block.body))


def run_typed_block(block: "TypedBlock"):
    """Evaluate a typed block on the core interpreter.

    Used by tests to confirm that typed reduction agrees with direct
    invocation: ``run(reduce_typed_invoke(u, T, V)) == run(invoke/t u
    T V)``.
    """
    from repro.lang.interp import Interpreter

    return Interpreter().eval(erase_typed_block(block))


def reduce_typed_invoke(unit: TypedUnitExpr,
                        tlinks: dict[str, Type],
                        vlinks: dict[str, TExpr]) -> TypedBlock:
    """Apply the typed invoke reduction.

    Imported type variables are replaced by the supplied types,
    imported value variables by the supplied (value) expressions, and
    every type abbreviation is expanded away (Section 4.3.2).
    """
    missing_t = [n for n, _ in unit.timports if n not in tlinks]
    missing_v = [n for n, _ in unit.vimports if n not in vlinks]
    if missing_t or missing_v:
        raise UnitLinkError(
            "invoke: unit imports not satisfied: "
            + ", ".join(missing_t + missing_v))

    equations = {eq.name: eq.rhs for eq in unit.equations}
    tmap = {name: tlinks[name] for name, _ in unit.timports}
    vmap = {name: vlinks[name] for name, _ in unit.vimports}

    def fix_type(ty: Type) -> Type:
        return expand_type(expand_type(ty, equations), tmap)

    def fix_expr(expr: TExpr) -> TExpr:
        out = expand_texpr(expand_texpr(expr, equations), tmap)
        return substitute(out, vmap)

    datatypes = tuple(
        DatatypeDefn(d.name, d.ctor1, d.dtor1, fix_type(d.ty1),
                     d.ctor2, d.dtor2, fix_type(d.ty2), d.pred, d.loc)
        for d in unit.datatypes)
    defns = tuple((name, fix_type(ty), fix_expr(rhs))
                  for name, ty, rhs in unit.defns)
    return TypedBlock(datatypes, defns, fix_expr(unit.init))
