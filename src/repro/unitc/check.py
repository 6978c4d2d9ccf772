"""Type checking for typed units — Figures 15 and 19.

This module implements the Figure 19 rules, of which Figure 15 is the
equation-free special case: a UNITc program simply has empty
``equations`` and empty ``depends`` clauses everywhere.

The four judgments:

* **signature well-formedness** — :func:`repro.types.wf.check_sig_wf`,
* **invoke** — the invoked expression must have a signature whose
  imports the ``with`` clause covers (a subtype check against the
  signature induced by the clause); the result type is the signature's
  initialization type with the supplied types substituted for the
  imported type variables,
* **unit** — interface distinctness, well-kinded type expressions,
  acyclic equations, definitions checked (with subsumption) at their
  declared types, the initialization expression's type (no
  subsumption) becoming the signature's ``tau_b``, and the dependency
  clause computed from the equations,
* **compound** — each constituent's signature must be a subtype of the
  signature its with/provides clause ascribes; the clause declarations
  must be drawn (name *and* declaration) from the compound's imports
  and the other constituent's provides — this is the "same source in
  the link graph" check that rejects Figure 4's ``Bad`` program — and
  the combined dependency declarations must not create a cycle.

Subsumption (``|-s`` in the paper) is permitted exactly where Figure 15
allows it: definition bodies, application arguments, and supplied
invoke values — "subsumption is used carefully so that type checking
is deterministic."
"""

from __future__ import annotations

from repro.lang.errors import TypeCheckError, format_loc
from repro.obs import current as _obs_current
from repro.obs import span as _obs_span
from repro.types.kinds import OMEGA, kind_equal
from repro.types.pretty import show_type
from repro.types.subtype import join, sig_subtype, subtype
from repro.types.tyenv import TyEnv
from repro.types.types import (
    Arrow,
    BOOL,
    BoxType,
    INT,
    NUM,
    Product,
    STR,
    Sig,
    Type,
    VOID,
    free_type_vars,
    subst_type,
)
from repro.types.wf import check_sig_wf, check_type_wf
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
    TypedCompoundExpr,
    TypedInvokeExpr,
    TypedUnitExpr,
)
from repro.unitc.prims import TYPED_PRIMS
from repro.unite.depends import (
    check_equations_acyclic,
    compound_link_cycle_check,
    compute_compound_depends,
    compute_unit_depends,
)
from repro.unite.expand import expand_texpr, expand_type

#: Primitives that may appear applied inside a valuable definition.
PURE_PRIMS = frozenset({
    "+", "-", "*", "modulo", "quotient", "add1", "sub1", "abs", "max",
    "min", "=", "<", ">", "<=", ">=", "zero?", "not", "string-append",
    "string-append3", "string-append4", "string-append5",
    "string-length", "string=?", "substring", "number->string", "void",
})


def base_tyenv() -> TyEnv:
    """The initial typing environment: primitive values, no type vars."""
    return TyEnv({}, dict(TYPED_PRIMS))


def check_typed_program(expr: TExpr, env: TyEnv | None = None,
                        strict_valuable: bool = True) -> Type:
    """Type-check a complete typed program and return its type."""
    return check_texpr(expr, env if env is not None else base_tyenv(),
                       strict_valuable)


# ---------------------------------------------------------------------------
# Expression checking
# ---------------------------------------------------------------------------


def check_texpr(expr: TExpr, env: TyEnv,
                strict_valuable: bool = True) -> Type:
    """Synthesize the type of a typed expression."""
    if isinstance(expr, TLit):
        return _literal_type(expr)
    if isinstance(expr, TVar):
        return env.type_of(expr.name)
    if isinstance(expr, TLambda):
        for name, ty in expr.params:
            check_type_wf(ty, env)
        inner = env.with_values({name: ty for name, ty in expr.params})
        result = check_texpr(expr.body, inner, strict_valuable)
        return Arrow(tuple(ty for _, ty in expr.params), result)
    if isinstance(expr, TApp):
        return _check_app(expr, env, strict_valuable)
    if isinstance(expr, TIf):
        test = check_texpr(expr.test, env, strict_valuable)
        if not subtype(test, BOOL):
            raise TypeCheckError(
                f"if: test must be bool, got {show_type(test)}",
                expr.loc)
        then = check_texpr(expr.then, env, strict_valuable)
        orelse = check_texpr(expr.orelse, env, strict_valuable)
        joined = join(then, orelse)
        if joined is None:
            raise TypeCheckError(
                f"if: branch types are incompatible: {show_type(then)} "
                f"vs {show_type(orelse)}", expr.loc)
        return joined
    if isinstance(expr, TLet):
        bindings = {
            name: check_texpr(rhs, env, strict_valuable)
            for name, rhs in expr.bindings}
        return check_texpr(expr.body, env.with_values(bindings),
                           strict_valuable)
    if isinstance(expr, TLetrec):
        for _, ty, _ in expr.bindings:
            check_type_wf(ty, env)
        inner = env.with_values(
            {name: ty for name, ty, _ in expr.bindings})
        for name, ty, rhs in expr.bindings:
            actual = check_texpr(rhs, inner, strict_valuable)
            if not subtype(actual, ty):
                raise TypeCheckError(
                    f"letrec: '{name}' declared {show_type(ty)} but "
                    f"defined at {show_type(actual)}", expr.loc)
        return check_texpr(expr.body, inner, strict_valuable)
    if isinstance(expr, TSeq):
        result: Type = VOID
        for sub in expr.exprs:
            result = check_texpr(sub, env, strict_valuable)
        return result
    if isinstance(expr, TSet):
        declared = env.type_of(expr.name)
        actual = check_texpr(expr.expr, env, strict_valuable)
        if not subtype(actual, declared):
            raise TypeCheckError(
                f"set!: '{expr.name}' has type {show_type(declared)} but "
                f"was assigned {show_type(actual)}", expr.loc)
        return VOID
    if isinstance(expr, TTuple):
        return Product(tuple(
            check_texpr(sub, env, strict_valuable) for sub in expr.exprs))
    if isinstance(expr, TProj):
        target = check_texpr(expr.expr, env, strict_valuable)
        if not isinstance(target, Product):
            raise TypeCheckError(
                f"proj: expected a tuple, got {show_type(target)}",
                expr.loc)
        if not 0 <= expr.index < len(target.components):
            raise TypeCheckError(
                f"proj: index {expr.index} out of range for "
                f"{show_type(target)}", expr.loc)
        return target.components[expr.index]
    if isinstance(expr, TBox):
        return BoxType(check_texpr(expr.expr, env, strict_valuable))
    if isinstance(expr, TUnbox):
        target = check_texpr(expr.expr, env, strict_valuable)
        if not isinstance(target, BoxType):
            raise TypeCheckError(
                f"unbox: expected a box, got {show_type(target)}", expr.loc)
        return target.content
    if isinstance(expr, TSetBox):
        target = check_texpr(expr.box, env, strict_valuable)
        if not isinstance(target, BoxType):
            raise TypeCheckError(
                f"set-box!: expected a box, got {show_type(target)}",
                expr.loc)
        actual = check_texpr(expr.expr, env, strict_valuable)
        if not subtype(actual, target.content):
            raise TypeCheckError(
                f"set-box!: box holds {show_type(target.content)} but was "
                f"assigned {show_type(actual)}", expr.loc)
        return VOID
    if isinstance(expr, TypedUnitExpr):
        return check_typed_unit(expr, env, strict_valuable)
    if isinstance(expr, TypedCompoundExpr):
        return check_typed_compound(expr, env, strict_valuable)
    if isinstance(expr, TypedInvokeExpr):
        return check_typed_invoke(expr, env, strict_valuable)
    raise TypeCheckError(f"unknown typed expression: {expr!r}")


def _literal_type(expr: TLit) -> Type:
    value = expr.value
    if value is None:
        return VOID
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return NUM
    if isinstance(value, str):
        return STR
    raise TypeCheckError(f"unknown literal: {value!r}", expr.loc)


def _check_app(expr: TApp, env: TyEnv, strict_valuable: bool) -> Type:
    fn_ty = check_texpr(expr.fn, env, strict_valuable)
    if not isinstance(fn_ty, Arrow):
        raise TypeCheckError(
            f"application: operator has non-function type "
            f"{show_type(fn_ty)}", expr.loc)
    if len(expr.args) != len(fn_ty.domains):
        raise TypeCheckError(
            f"application: expected {len(fn_ty.domains)} arguments, got "
            f"{len(expr.args)}", expr.loc)
    for index, (arg, domain) in enumerate(zip(expr.args, fn_ty.domains)):
        actual = check_texpr(arg, env, strict_valuable)
        if not subtype(actual, domain):
            raise TypeCheckError(
                f"application: argument {index + 1} has type "
                f"{show_type(actual)}, expected {show_type(domain)}",
                expr.loc)
    return fn_ty.result


# ---------------------------------------------------------------------------
# Valuability for typed definitions
# ---------------------------------------------------------------------------


def is_tvaluable(expr: TExpr, unstable: frozenset[str]) -> bool:
    """Typed analogue of :func:`repro.units.valuable.is_valuable`.

    Constructor applications and pure-primitive applications of
    valuable arguments are valuable (following Harper–Stone), as is box
    allocation of a valuable content — allocation terminates and its
    effect is unobservable until the cell is shared.
    """
    if isinstance(expr, TLit):
        return True
    if isinstance(expr, TVar):
        return expr.name not in unstable
    if isinstance(expr, (TLambda, TypedUnitExpr)):
        return True
    if isinstance(expr, TIf):
        return (is_tvaluable(expr.test, unstable)
                and is_tvaluable(expr.then, unstable)
                and is_tvaluable(expr.orelse, unstable))
    if isinstance(expr, TSeq):
        return all(is_tvaluable(e, unstable) for e in expr.exprs)
    if isinstance(expr, TLet):
        inner = unstable - {name for name, _ in expr.bindings}
        return (all(is_tvaluable(rhs, unstable) for _, rhs in expr.bindings)
                and is_tvaluable(expr.body, inner))
    if isinstance(expr, TTuple):
        return all(is_tvaluable(e, unstable) for e in expr.exprs)
    if isinstance(expr, (TBox, TProj, TUnbox)):
        inner = expr.expr
        return is_tvaluable(inner, unstable)
    if isinstance(expr, TApp):
        if isinstance(expr.fn, TVar) and expr.fn.name in PURE_PRIMS \
                and expr.fn.name not in unstable:
            return all(is_tvaluable(a, unstable) for a in expr.args)
        if isinstance(expr.fn, TVar) and expr.fn.name.startswith("%ctor%"):
            return all(is_tvaluable(a, unstable) for a in expr.args)
        return False
    if isinstance(expr, TypedCompoundExpr):
        return (is_tvaluable(expr.first.expr, unstable)
                and is_tvaluable(expr.second.expr, unstable))
    return False


# ---------------------------------------------------------------------------
# The unit rule
# ---------------------------------------------------------------------------


def datatype_op_types(dt: DatatypeDefn) -> dict[str, Type]:
    """Types of the five operations a datatype definition introduces."""
    t = _tyvar(dt.name)
    return {
        dt.ctor1: Arrow((dt.ty1,), t),
        dt.dtor1: Arrow((t,), dt.ty1),
        dt.ctor2: Arrow((dt.ty2,), t),
        dt.dtor2: Arrow((t,), dt.ty2),
        dt.pred: Arrow((t,), BOOL),
    }


def _tyvar(name: str) -> Type:
    from repro.types.types import TyVar

    return TyVar(name)


def _require_distinct(names, what: str, loc=None) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise TypeCheckError(f"{what}: duplicate name '{name}'", loc)
        seen.add(name)


def _loc_fields(loc, **fields: object) -> dict[str, object]:
    """Span payload with the reader source location, when known."""
    if loc is not None:
        fields["loc"] = format_loc(loc)
    return fields


def check_typed_unit(unit: TypedUnitExpr, env: TyEnv,
                     strict_valuable: bool = True) -> Sig:
    """The unit rule of Figures 15 and 19; returns the unit's signature."""
    with _obs_span("check.unit", _loc_fields(
            unit.loc, typed=True, timports=len(unit.timports),
            vimports=len(unit.vimports), texports=len(unit.texports),
            vexports=len(unit.vexports), defns=len(unit.defns),
            equations=len(unit.equations))):
        return _check_typed_unit(unit, env, strict_valuable)


def _check_typed_unit(unit: TypedUnitExpr, env: TyEnv,
                      strict_valuable: bool = True) -> Sig:
    # --- distinctness ----------------------------------------------------
    tnames = (tuple(n for n, _ in unit.timports) + unit.defined_types)
    _require_distinct(tnames, "unit type names", unit.loc)
    vnames = (tuple(n for n, _ in unit.vimports) + unit.defined_values)
    _require_distinct(vnames, "unit value names", unit.loc)
    _require_distinct(tuple(n for n, _ in unit.texports),
                      "unit type exports", unit.loc)
    _require_distinct(tuple(n for n, _ in unit.vexports),
                      "unit value exports", unit.loc)

    # --- type environment with every unit type variable -------------------
    datatype_kinds = {dt.name: OMEGA for dt in unit.datatypes}
    equation_kinds = {eq.name: eq.kind for eq in unit.equations}
    tyvars = dict(unit.timports) | datatype_kinds | equation_kinds
    inner = env.with_types(tyvars)

    # --- equations: kinds, well-formedness, acyclicity --------------------
    equations: dict[str, Type] = {}
    for eq in unit.equations:
        if not kind_equal(eq.kind, OMEGA):
            raise TypeCheckError(
                f"type equation '{eq.name}': only kind * equations are "
                f"supported (the calculus anticipates constructors but "
                f"defines none)", eq.loc)
        check_type_wf(eq.rhs, inner)
        equations[eq.name] = eq.rhs
    check_equations_acyclic(equations)

    # --- exported types must be defined, at the right kind -----------------
    defined_type_kinds = datatype_kinds | equation_kinds
    for name, kind in unit.texports:
        dkind = defined_type_kinds.get(name)
        if dkind is None:
            raise TypeCheckError(
                f"unit: exported type '{name}' is not defined by a "
                f"datatype or equation", unit.loc)
        if not kind_equal(kind, dkind):
            raise TypeCheckError(
                f"unit: exported type '{name}' declared at kind {kind} "
                f"but defined at kind {dkind}", unit.loc)

    # --- well-formedness of every type annotation --------------------------
    for dt in unit.datatypes:
        check_type_wf(dt.ty1, inner)
        check_type_wf(dt.ty2, inner)
    for name, ty in unit.vimports:
        check_type_wf(ty, inner)
    for name, ty in unit.vexports:
        check_type_wf(ty, inner)
    for name, ty, _ in unit.defns:
        check_type_wf(ty, inner)

    # --- exported value types use only imported and exported types ---------
    interface_types = ({n for n, _ in unit.timports}
                       | {n for n, _ in unit.texports})
    for name, ty in unit.vexports:
        stray = (free_type_vars(expand_type(ty, equations))
                 & set(unit.defined_types)) - interface_types
        if stray:
            raise TypeCheckError(
                f"unit: the type of exported value '{name}' mentions "
                f"non-exported type(s): " + ", ".join(sorted(stray)),
                unit.loc)

    # --- value environment --------------------------------------------------
    values: dict[str, Type] = {}
    ctor_names: set[str] = set()
    for name, ty in unit.vimports:
        values[name] = expand_type(ty, equations)
    for dt in unit.datatypes:
        for op_name, op_ty in datatype_op_types(dt).items():
            values[op_name] = expand_type(op_ty, equations)
        ctor_names.update((dt.ctor1, dt.ctor2))
    for name, ty, _ in unit.defns:
        values[name] = expand_type(ty, equations)
    body_env = inner.with_values(values)

    # --- definitions: valuable, and of their declared types ----------------
    unstable = (frozenset(n for n, _ in unit.vimports)
                | frozenset(n for n, _, _ in unit.defns)) - ctor_names
    for name, ty, rhs in unit.defns:
        if strict_valuable and not _definition_valuable(rhs, unstable,
                                                        ctor_names):
            raise TypeCheckError(
                f"unit: definition of '{name}' is not valuable", unit.loc)
        actual = check_texpr(expand_texpr(rhs, equations), body_env,
                             strict_valuable)
        declared = expand_type(ty, equations)
        if not subtype(actual, declared):
            raise TypeCheckError(
                f"unit: '{name}' declared {show_type(ty)} but defined at "
                f"{show_type(actual)}", unit.loc)

    # --- exported values must be defined, at compatible types --------------
    for name, ty in unit.vexports:
        internal = values.get(name)
        if internal is None or not body_env.has_value(name):
            raise TypeCheckError(
                f"unit: exported value '{name}' is not defined", unit.loc)
        declared = expand_type(ty, equations)
        if not subtype(internal, declared):
            raise TypeCheckError(
                f"unit: export '{name}' declared {show_type(ty)} but "
                f"defined at {show_type(internal)}", unit.loc)

    # --- initialization expression (no subsumption) -------------------------
    init_ty = expand_type(
        check_texpr(expand_texpr(unit.init, equations), body_env,
                    strict_valuable),
        equations)
    local_types = set(unit.defined_types) | {n for n, _ in unit.texports}
    leaked = free_type_vars(init_ty) & local_types
    if leaked:
        raise TypeCheckError(
            "unit: the initialization expression's type mentions unit "
            "type(s) that escape their scope: " + ", ".join(sorted(leaked)),
            unit.loc)

    # --- the signature -------------------------------------------------------
    # Non-exported equations are internal abbreviations and must not
    # appear in the published signature: expand them away.  Exported
    # equations remain opaque names (revealing them is exactly what the
    # Section 5.1 translucency extension adds).
    exported_type_names = {n for n, _ in unit.texports}
    local_equations = {n: rhs for n, rhs in equations.items()
                       if n not in exported_type_names}
    depends = compute_unit_depends(unit.texports, unit.timports, equations)
    sig = Sig(
        unit.timports,
        tuple((n, expand_type(t, local_equations))
              for n, t in unit.vimports),
        unit.texports,
        tuple((n, expand_type(t, local_equations))
              for n, t in unit.vexports),
        expand_type(init_ty, local_equations),
        depends)
    check_sig_wf(sig, env)
    return sig


def _definition_valuable(expr: TExpr, unstable: frozenset[str],
                         ctors: set[str]) -> bool:
    """Valuability with constructor applications permitted."""
    if isinstance(expr, TApp) and isinstance(expr.fn, TVar) \
            and expr.fn.name in ctors:
        return all(_definition_valuable(a, unstable, ctors)
                   for a in expr.args)
    if isinstance(expr, (TBox, TUnbox, TProj)):
        return _definition_valuable(expr.expr, unstable, ctors)
    if isinstance(expr, TTuple):
        return all(_definition_valuable(e, unstable, ctors)
                   for e in expr.exprs)
    if isinstance(expr, TApp) and isinstance(expr.fn, TVar) \
            and expr.fn.name in PURE_PRIMS and expr.fn.name not in unstable:
        return all(_definition_valuable(a, unstable, ctors)
                   for a in expr.args)
    return is_tvaluable(expr, unstable)


# ---------------------------------------------------------------------------
# The invoke rule
# ---------------------------------------------------------------------------


def check_typed_invoke(invoke: TypedInvokeExpr, env: TyEnv,
                       strict_valuable: bool = True) -> Type:
    """The invoke rule of Figures 15 and 19; returns the result type."""
    with _obs_span("check.invoke", _loc_fields(
            invoke.loc, typed=True, tlinks=len(invoke.tlinks),
            vlinks=len(invoke.vlinks))):
        return _check_typed_invoke(invoke, env, strict_valuable)


def _check_typed_invoke(invoke: TypedInvokeExpr, env: TyEnv,
                        strict_valuable: bool = True) -> Type:
    sig = check_texpr(invoke.expr, env, strict_valuable)
    if not isinstance(sig, Sig):
        raise TypeCheckError(
            f"invoke: expected a unit (signature type), got "
            f"{show_type(sig)}", invoke.loc)
    _require_distinct([n for n, _ in invoke.tlinks],
                      "invoke type links", invoke.loc)
    _require_distinct([n for n, _ in invoke.vlinks],
                      "invoke value links", invoke.loc)

    # Supplied types: well-formed, with kinds matching the declaration.
    type_mapping: dict[str, Type] = {}
    for name, ty in invoke.tlinks:
        check_type_wf(ty, env)
        type_mapping[name] = ty
    for name, kind in sig.timports:
        if name not in type_mapping:
            raise TypeCheckError(
                f"invoke: imported type '{name}' is not supplied",
                invoke.loc)
        if not kind_equal(kind, OMEGA):
            raise TypeCheckError(
                f"invoke: imported type '{name}' has non-* kind {kind}",
                invoke.loc)

    # Supplied values: checked (with subsumption) against the declared
    # import types, with the supplied types substituted for the
    # imported type variables.
    supplied: dict[str, Type] = {}
    for name, rhs in invoke.vlinks:
        supplied[name] = check_texpr(rhs, env, strict_valuable)
    for name, declared in sig.vimports:
        if name not in supplied:
            raise TypeCheckError(
                f"invoke: imported value '{name}' is not supplied",
                invoke.loc)
        expected = subst_type(declared, type_mapping)
        if not subtype(supplied[name], expected):
            raise TypeCheckError(
                f"invoke: import '{name}' expects "
                f"{show_type(expected)}, got {show_type(supplied[name])}",
                invoke.loc)

    result = subst_type(sig.init, type_mapping)
    check_type_wf(result, env)
    return result


# ---------------------------------------------------------------------------
# The compound rule
# ---------------------------------------------------------------------------


def _decl_subset(sub_t, sub_v, sources_t: dict, sources_v: dict,
                 what: str, loc) -> None:
    """Check that declarations are drawn, name and content, from sources."""
    for name, kind in sub_t:
        skind = sources_t.get(name)
        if skind is None:
            raise TypeCheckError(
                f"compound: {what} type '{name}' has no source among the "
                f"imports and the other constituent's provides", loc)
        if not kind_equal(kind, skind):
            raise TypeCheckError(
                f"compound: {what} type '{name}' declared at kind {kind} "
                f"but its source has kind {skind}", loc)
    for name, ty in sub_v:
        sty = sources_v.get(name)
        if sty is None:
            raise TypeCheckError(
                f"compound: {what} value '{name}' has no source among the "
                f"imports and the other constituent's provides", loc)
        if ty != sty:
            raise TypeCheckError(
                f"compound: {what} value '{name}' declared at "
                f"{show_type(ty)} but its source declares {show_type(sty)} "
                f"— the two occurrences have different sources in the "
                f"link graph", loc)


def check_typed_compound(compound: TypedCompoundExpr, env: TyEnv,
                         strict_valuable: bool = True) -> Sig:
    """The compound rule of Figures 15 and 19; returns the signature."""
    with _obs_span("check.compound", _loc_fields(
            compound.loc, typed=True,
            imports=len(compound.timports) + len(compound.vimports),
            exports=len(compound.texports) + len(compound.vexports))):
        return _check_typed_compound(compound, env, strict_valuable)


def _check_typed_compound(compound: TypedCompoundExpr, env: TyEnv,
                          strict_valuable: bool = True) -> Sig:
    first, second = compound.first, compound.second

    # --- distinctness across the shared namespace --------------------------
    tnames = ([n for n, _ in compound.timports]
              + [n for n, _ in first.prov_types]
              + [n for n, _ in second.prov_types])
    _require_distinct(tnames, "compound type names", compound.loc)
    vnames = ([n for n, _ in compound.vimports]
              + [n for n, _ in first.prov_values]
              + [n for n, _ in second.prov_values])
    _require_distinct(vnames, "compound value names", compound.loc)

    # --- with/provides declarations must match their sources ----------------
    imports_t = dict(compound.timports)
    imports_v = dict(compound.vimports)
    _decl_subset(first.with_types, first.with_values,
                 imports_t | dict(second.prov_types),
                 imports_v | dict(second.prov_values),
                 "first with", compound.loc)
    _decl_subset(second.with_types, second.with_values,
                 imports_t | dict(first.prov_types),
                 imports_v | dict(first.prov_values),
                 "second with", compound.loc)
    _decl_subset(compound.texports, compound.vexports,
                 dict(first.prov_types) | dict(second.prov_types),
                 dict(first.prov_values) | dict(second.prov_values),
                 "exported", compound.loc)

    # --- constituents against their ascribed signatures ---------------------
    sig1 = check_texpr(first.expr, env, strict_valuable)
    sig2 = check_texpr(second.expr, env, strict_valuable)
    for which, actual in (("first", sig1), ("second", sig2)):
        if not isinstance(actual, Sig):
            raise TypeCheckError(
                f"compound: {which} constituent is not a unit (it has "
                f"type {show_type(actual)})", compound.loc)
    assert isinstance(sig1, Sig) and isinstance(sig2, Sig)

    # The clause signatures inherit the actual initialization types and
    # (per Figure 19) the actual dependency declarations.
    ascribed1 = Sig(first.with_types, first.with_values,
                    first.prov_types, first.prov_values,
                    sig1.init, sig1.depends)
    ascribed2 = Sig(second.with_types, second.with_values,
                    second.prov_types, second.prov_values,
                    sig2.init, sig2.depends)
    # Ascribed signatures are checked well-formed in the *outer*
    # environment (Figure 15): every type a clause mentions must be
    # bound by that clause's own with/provides declarations.  This is
    # what rejects Figure 4's Bad program — a clause cannot mention a
    # type variable whose source it does not declare.
    check_sig_wf(ascribed1, env)
    check_sig_wf(ascribed2, env)
    col = _obs_current()
    for which, actual, ascribed in (("first", sig1, ascribed1),
                                    ("second", sig2, ascribed2)):
        ok = sig_subtype(actual, ascribed)
        if col is not None:
            col.emit("check.subtype", _loc_fields(
                compound.loc, which=which, ok=ok))
        if not ok:
            raise TypeCheckError(
                f"compound: the {which} constituent's signature does not "
                f"match its with/provides clause", compound.loc)

    # --- dependencies: no cycles through the links ---------------------------
    compound_link_cycle_check(sig1.depends, sig2.depends)
    depends = compute_compound_depends(
        compound.timports, compound.texports, sig1.depends, sig2.depends)

    sig = Sig(compound.timports, compound.vimports,
              compound.texports, compound.vexports, sig2.init, depends)
    check_sig_wf(sig, env)
    return sig
