"""The Harper–Stone valuability restriction on unit definitions.

Section 4.1.1: in each definition ``val x = e``, the expression ``e``
must be *valuable* — "evaluating the expression terminates, does not
incur any computational effects (divergence, printing, etc.), and does
not refer to variables whose values may still be undetermined (due to
an ordering of the mutually recursive definitions)" — with the
restriction that imported and defined variable names are not considered
valuable.

The predicate here is a sound syntactic approximation, as in Harper and
Stone's ML semantics: literals, procedures, and unit expressions are
valuable; variables are valuable unless they might still be undefined;
conditionals, sequences, and blocks of valuable parts are valuable;
applications are conservatively rejected (they may diverge or have
effects).

MzScheme itself lifts this restriction and signals a run-time error on
premature variable references instead (footnote 7); the interpreter in
:mod:`repro.lang.interp` implements that lenient behaviour, while
:func:`repro.units.check.check_expr` enforces the strict calculus rule
unless asked not to.
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
)
from repro.lang.subst import children
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr

#: Primitives whose application to valuable arguments is valuable:
#: they terminate and have no observable effects (allocation included,
#: following Harper–Stone's treatment of constructors and ref cells).
BENIGN_PRIMS = frozenset({
    "+", "-", "*", "modulo", "quotient", "min", "max", "abs",
    "add1", "sub1", "=", "<", ">", "<=", ">=", "zero?", "number?",
    "not", "boolean?", "eq?", "equal?",
    "string?", "string-append", "string-length", "string=?",
    "substring", "number->string", "string->number",
    "cons", "car", "cdr", "pair?", "null?", "list", "length",
    "reverse", "append", "list-ref",
    "box", "box?", "makeStringHashTable",
    "make-variant", "variant-first?",
    "void", "void?",
})


def _block_unstable(block: Let | Letrec,
                    unstable: frozenset[str]) -> frozenset[str]:
    """The unstable set inside a block's body.  Its bindings are
    settled there, except that a bound primitive name no longer names
    the primitive: applying it may run user code."""
    names = frozenset(name for name, _ in block.bindings)
    return (unstable - names) | (names & BENIGN_PRIMS)


def is_valuable(expr: Expr, unstable: frozenset[str]) -> bool:
    """Decide whether ``expr`` is valuable.

    ``unstable`` is the set of variable names that may still be
    undetermined at evaluation time — for a unit definition, the unit's
    imported and defined variables, plus any primitive name that may
    not denote its primitive there.
    """
    if isinstance(expr, Lit):
        return True
    if isinstance(expr, Var):
        return expr.name not in unstable
    if isinstance(expr, Lambda):
        # A procedure is a value regardless of its body.
        return True
    if isinstance(expr, UnitExpr):
        # A unit expression is a value (Section 4.1.1).
        return True
    if isinstance(expr, If):
        return (is_valuable(expr.test, unstable)
                and is_valuable(expr.then, unstable)
                and is_valuable(expr.orelse, unstable))
    if isinstance(expr, Seq):
        return all(is_valuable(e, unstable) for e in expr.exprs)
    if isinstance(expr, Let):
        inner = _block_unstable(expr, unstable)
        return (all(is_valuable(rhs, unstable) for _, rhs in expr.bindings)
                and is_valuable(expr.body, inner))
    if isinstance(expr, Letrec):
        # The letrec's own bindings are settled once its body runs.
        inner = _block_unstable(expr, unstable)
        return (all(is_valuable(rhs, inner) for _, rhs in expr.bindings)
                and is_valuable(expr.body, inner))
    if isinstance(expr, App):
        # Applications of benign primitives to valuable arguments are
        # valuable (terminating, effect-free); anything else may
        # diverge or have effects.
        if isinstance(expr.fn, Var) and expr.fn.name in BENIGN_PRIMS \
                and expr.fn.name not in unstable:
            return all(is_valuable(a, unstable) for a in expr.args)
        return False
    if isinstance(expr, (SetBang, InvokeExpr)):
        # Assignment is an effect; invocation runs arbitrary
        # initialization code.
        return False
    if isinstance(expr, CompoundExpr):
        # compound only evaluates its constituent expressions.
        return (is_valuable(expr.first.expr, unstable)
                and is_valuable(expr.second.expr, unstable))
    return False


class _Scope:
    """A walk marker: from here on, these primitive names are bound
    around the nodes :func:`program_bindings` pops."""

    __slots__ = ("names",)

    def __init__(self, names: frozenset[str]):
        self.names = names


def program_bindings(
        program: Expr) -> tuple[frozenset[str],
                                list[tuple[UnitExpr, frozenset[str]]]]:
    """The names ``program`` assigns, and each unit with its rebound
    primitives, in one walk.

    A primitive is rebound for a unit when a binder that encloses the
    unit binds its name (a ``lambda`` parameter, a ``let``/``letrec``
    binding, an enclosing unit's import or definition), or when the
    program assigns it anywhere: a definition's call of it may then
    run user code, so the unit rule counts it unstable.  A binding the
    unit cannot see changes nothing.
    """
    assigned: set[str] = set()
    units: list[tuple[UnitExpr, frozenset[str]]] = []
    # Primitive names bound around the current node.  Binders rarely
    # bind one, so the common walk pushes plain nodes only; a binder
    # that does pushes a marker that sets the scope for its body and a
    # marker below the body that restores it.
    scope: frozenset[str] = frozenset()
    stack: list = [program]
    while stack:
        node = stack.pop()
        kind = type(node)  # exact classes, commonest first: this is hot
        if kind is Var or kind is Lit:
            continue
        if kind is App:
            stack.append(node.fn)
            stack.extend(node.args)
            continue
        if kind is _Scope:
            scope = node.names
            continue
        names = None
        if kind is SetBang:
            assigned.add(node.name)
        elif kind is Lambda:
            names = BENIGN_PRIMS.intersection(node.params)
        elif kind is Let or kind is Letrec:
            names = BENIGN_PRIMS.intersection(
                name for name, _ in node.bindings)
        elif kind is UnitExpr:
            units.append((node, scope))
            names = BENIGN_PRIMS.intersection(node.imports + node.defined)
        if names:
            inner, outer = children(node), ()
            if kind is Let:  # let right-hand sides are outside its scope
                inner, outer = (node.body,), inner[:-1]
            stack += (_Scope(scope), *inner, _Scope(scope | names), *outer)
            continue
        stack.extend(children(node))
    assigned_prims = BENIGN_PRIMS.intersection(assigned)
    return frozenset(assigned), [(unit, around | assigned_prims)
                                 for unit, around in units]


def unvaluable_definition(unit: UnitExpr,
                          rebound: frozenset[str] = frozenset()) -> str | None:
    """The first definition of ``unit`` that is not valuable, or None.

    This is the unit rule of Section 4.1.1: each right-hand side must
    be valuable with the unit's imported and defined variables
    unstable, and the unit's ``rebound`` primitives
    (:func:`program_bindings`) too: an application of one may run user
    code.
    """
    unstable = frozenset(unit.imports) | frozenset(unit.defined) | rebound
    for name, rhs in unit.defns:
        if not is_valuable(rhs, unstable):
            return name
    return None
