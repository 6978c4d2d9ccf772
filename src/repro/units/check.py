"""Context-sensitive checking for UNITd — Figure 10 of the paper.

The judgments of Figure 10 ensure, prior to evaluation, that

* no variable is multiply imported, defined, or exported in a unit and
  that every exported variable is defined (``check_unit``),
* a compound's link clause is *locally consistent*: each constituent's
  ``with`` set draws only from the compound's imports and the other
  constituent's ``provides``, and the compound's exports draw only from
  the two ``provides`` sets (``check_compound``),
* invoke's import links are distinct (``check_invoke``),

and recursively that every subexpression is well formed.  The checks
are purely syntactic — which units actually flow into a compound is
unknown until run time in the dynamically typed calculus, so Figure 11
re-checks the with/provides contract when linking happens.
"""

from __future__ import annotations

from repro import limits as _limits
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
from repro.lang.errors import CheckError, format_loc
from repro.obs import span as _obs_span
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr
from repro.units.valuable import program_bindings, unvaluable_definition


def _span_fields(expr: Expr, **fields: object) -> dict[str, object]:
    """Span payload with the reader source location, when the AST
    carries one (``repro trace report`` prints it for failures)."""
    loc = getattr(expr, "loc", None)
    if loc is not None:
        fields["loc"] = format_loc(loc)
    return fields


def _require_distinct(names: tuple[str, ...], what: str, expr: Expr) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise CheckError(f"{what}: duplicate name '{name}'",
                             getattr(expr, "loc", None))
        seen.add(name)


def check_expr(expr: Expr, strict_valuable: bool = True) -> None:
    """Check an arbitrary expression, recurring into unit forms.

    ``strict_valuable`` enforces the Harper–Stone valuability
    restriction on unit definitions (the calculus rule); pass ``False``
    for MzScheme's lenient behaviour, which defers premature-reference
    detection to run time.
    """
    if isinstance(expr, (Lit, Var)):
        return
    if isinstance(expr, Lambda):
        check_expr(expr.body, strict_valuable)
        return
    if isinstance(expr, App):
        check_expr(expr.fn, strict_valuable)
        for arg in expr.args:
            check_expr(arg, strict_valuable)
        return
    if isinstance(expr, If):
        for sub in (expr.test, expr.then, expr.orelse):
            check_expr(sub, strict_valuable)
        return
    if isinstance(expr, (Let, Letrec)):
        _require_distinct(tuple(name for name, _ in expr.bindings),
                          "block binding", expr)
        for _, rhs in expr.bindings:
            check_expr(rhs, strict_valuable)
        check_expr(expr.body, strict_valuable)
        return
    if isinstance(expr, SetBang):
        check_expr(expr.expr, strict_valuable)
        return
    if isinstance(expr, Seq):
        for sub in expr.exprs:
            check_expr(sub, strict_valuable)
        return
    if isinstance(expr, UnitExpr):
        check_unit(expr, strict_valuable)
        return
    if isinstance(expr, CompoundExpr):
        check_compound(expr, strict_valuable)
        return
    if isinstance(expr, InvokeExpr):
        check_invoke(expr, strict_valuable)
        return
    raise CheckError(f"unknown expression form: {expr!r}")


def check_unit(expr: UnitExpr, strict_valuable: bool = True) -> None:
    """Figure 10, the ``unit`` rule.

    Premises: imports and defined names are jointly distinct; exports
    are distinct and drawn from the defined names; every definition
    expression is valuable (unless relaxed); subexpressions check.
    """
    with _obs_span("check.unit", _span_fields(
            expr, imports=len(expr.imports), exports=len(expr.exports),
            defns=len(expr.defns))):
        budget = _limits.current()
        if budget is not None:
            budget.check_deadline(expr.loc)
        _require_distinct(expr.imports + expr.defined,
                          "unit import/definition", expr)
        _require_distinct(expr.exports, "unit export", expr)
        defined = set(expr.defined)
        for name in expr.exports:
            if name not in defined:
                raise CheckError(
                    f"unit: exported variable '{name}' is not defined",
                    expr.loc)
        unvaluable = unvaluable_definition(expr) if strict_valuable else None
        for name, rhs in expr.defns:
            if name == unvaluable:
                raise _not_valuable(name, expr)
            check_expr(rhs, strict_valuable)
        check_expr(expr.init, strict_valuable)


def _not_valuable(name: str, unit: UnitExpr) -> CheckError:
    return CheckError(
        f"unit: definition of '{name}' is not valuable (it may diverge, "
        f"have effects, or prematurely reference a unit variable)",
        unit.loc)


def check_compound(expr: CompoundExpr, strict_valuable: bool = True) -> None:
    """Figure 10, the ``compound`` rule.

    Premises: the compound's imports and the two provides sets are
    jointly distinct; each with set is a subset of the imports plus the
    *other* clause's provides; the exports are a subset of the union of
    the provides sets; constituent expressions check.
    """
    xi = expr.imports
    xp1 = expr.first.provides
    xp2 = expr.second.provides
    with _obs_span("check.compound", _span_fields(
            expr, imports=len(xi), exports=len(expr.exports),
            provides=len(xp1) + len(xp2))):
        budget = _limits.current()
        if budget is not None:
            budget.check_deadline(expr.loc)
        _check_compound_premises(expr, strict_valuable)


def _check_compound_premises(expr: CompoundExpr,
                             strict_valuable: bool) -> None:
    xi = expr.imports
    xp1 = expr.first.provides
    xp2 = expr.second.provides
    _require_distinct(xi + xp1 + xp2, "compound import/provides", expr)
    _require_distinct(expr.first.withs, "compound with (first)", expr)
    _require_distinct(expr.second.withs, "compound with (second)", expr)
    _require_distinct(expr.exports, "compound export", expr)
    allowed_w1 = set(xi) | set(xp2)
    for name in expr.first.withs:
        if name not in allowed_w1:
            raise CheckError(
                f"compound: with-variable '{name}' of the first "
                f"constituent is neither imported nor provided by the "
                f"second constituent", expr.loc)
    allowed_w2 = set(xi) | set(xp1)
    for name in expr.second.withs:
        if name not in allowed_w2:
            raise CheckError(
                f"compound: with-variable '{name}' of the second "
                f"constituent is neither imported nor provided by the "
                f"first constituent", expr.loc)
    providable = set(xp1) | set(xp2)
    for name in expr.exports:
        if name not in providable:
            raise CheckError(
                f"compound: exported variable '{name}' is not provided "
                f"by either constituent", expr.loc)
    check_expr(expr.first.expr, strict_valuable)
    check_expr(expr.second.expr, strict_valuable)


def check_invoke(expr: InvokeExpr, strict_valuable: bool = True) -> None:
    """Figure 10, the ``invoke`` rule: link names distinct, parts check."""
    with _obs_span("check.invoke",
                   _span_fields(expr, links=len(expr.links))):
        _require_distinct(tuple(name for name, _ in expr.links),
                          "invoke link", expr)
        check_expr(expr.expr, strict_valuable)
        for _, rhs in expr.links:
            check_expr(rhs, strict_valuable)


def check_program(expr: Expr, strict_valuable: bool = True) -> Expr:
    """Check a whole program and return it (for pipeline-style use).

    Strictly, the unit rule also counts a unit's rebound primitives as
    unstable (:func:`program_bindings`): a binder around the unit, or
    an assignment anywhere, can make ``+`` a procedure that reads a
    later definition.
    """
    check_expr(expr, strict_valuable)
    if strict_valuable:
        _, units = program_bindings(expr)
        for unit, rebound in units:
            if rebound:
                name = unvaluable_definition(unit, rebound)
                if name is not None:
                    raise _not_valuable(name, unit)
    return expr
