"""The binding signature of both calculi, and the walks it drives.

The paper's semantics is a rewriting semantics: invocation substitutes
values for imported variables, and compound linking merges two units
after renaming their internal definitions apart ("all bindings
introduced by definitions in the two units must be appropriately
alpha-renamed to avoid collisions", Section 4.1.5).  UNITc's rules "are
nearly the same as the rules for UNITd" (Section 4.2.2), so both
calculi share one description of where each construct binds,
:data:`SIGNATURE`, and one implementation of each walk over it:

* :func:`children` — a node's direct subexpressions, in surface order;
* :func:`map_children` — rebuild a node from transformed children,
  returning the node itself when no child changed;
* :func:`free_vars` — memoized, and computed without recursion;
* :func:`substitute` — capture-avoiding substitution, which renames a
  binder that would capture a replacement's free variable.

Binding structure (value namespace only; UNITc's type annotations and
type definitions are :mod:`repro.unite.expand`'s business):

* ``lambda`` parameters scope over the body;
* ``let`` names scope over the body only, ``letrec`` names over every
  right-hand side and the body;
* a unit's imports and definitions (for a typed unit, also the five
  operations each datatype defines) scope over its definitions and its
  initialization expression; exported names are references to defined
  names, not binders, and interface names are never renamed;
* ``compound`` and ``invoke`` bind nothing: their name lists are
  linking specifications and import labels.

Performance: because AST nodes are immutable, a node's free-variable
set never changes — :func:`free_vars` memoizes it on the node (the
``_fv`` field written via ``object.__setattr__``), and substitution
uses the memo for an identity short-circuit: a subtree with no free
occurrence of any substituted variable is returned *unchanged* instead
of being rebuilt.  Both are controlled by the global caching switch in
:mod:`repro.lang.terms` (``--no-term-cache`` recomputes instead of
reading or writing the memo).  Substitution under a binder is a single
batched parallel pass: binder renamings are merged into the live
mapping rather than applied in a separate traversal.
"""

from __future__ import annotations

import itertools
import re
from operator import is_not, itemgetter

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
from repro.unitc.ast import (
    TApp,
    TBox,
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
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr

# ---------------------------------------------------------------------------
# The binding signature
# ---------------------------------------------------------------------------

#: Child-field shapes: the field holds one child, a tuple of children,
#: a tuple of entries ``(name, ..., child)`` whose child comes last, or
#: a link clause whose ``expr`` is the child.
ONE, MANY, ENTRIES, CLAUSE = range(4)

#: Per node class: ``(fields, ref, binders, fixed, body_only)``.
#:
#: * ``fields`` — the child fields in surface order, with their shapes;
#: * ``ref`` — the field naming a variable the node refers to (a
#:   variable reference, or a ``set!`` target), else ``None``;
#: * ``binders`` — the fields whose names the node binds: a tuple of
#:   names, of entries whose name comes first, or of datatype
#:   definitions (which bind their five operations);
#: * ``fixed`` — the fields whose names substitution never renames (a
#:   unit's interface, and a typed unit's datatype operations);
#: * ``body_only`` — the binders scope over the last child only
#:   (``let``); otherwise they scope over every child.
SIGNATURE: dict[type, tuple] = {
    Lit: ((), None, (), (), False),
    Var: ((), "name", (), (), False),
    Lambda: ((("body", ONE),), None, ("params",), (), False),
    App: ((("fn", ONE), ("args", MANY)), None, (), (), False),
    If: ((("test", ONE), ("then", ONE), ("orelse", ONE)),
         None, (), (), False),
    Let: ((("bindings", ENTRIES), ("body", ONE)),
          None, ("bindings",), (), True),
    Letrec: ((("bindings", ENTRIES), ("body", ONE)),
             None, ("bindings",), (), False),
    SetBang: ((("expr", ONE),), "name", (), (), False),
    Seq: ((("exprs", MANY),), None, (), (), False),
    UnitExpr: ((("defns", ENTRIES), ("init", ONE)),
               None, ("imports", "defns"), ("imports", "exports"), False),
    CompoundExpr: ((("first", CLAUSE), ("second", CLAUSE)),
                   None, (), (), False),
    InvokeExpr: ((("expr", ONE), ("links", ENTRIES)), None, (), (), False),
    TLit: ((), None, (), (), False),
    TVar: ((), "name", (), (), False),
    TLambda: ((("body", ONE),), None, ("params",), (), False),
    TApp: ((("fn", ONE), ("args", MANY)), None, (), (), False),
    TIf: ((("test", ONE), ("then", ONE), ("orelse", ONE)),
          None, (), (), False),
    TLet: ((("bindings", ENTRIES), ("body", ONE)),
           None, ("bindings",), (), True),
    TLetrec: ((("bindings", ENTRIES), ("body", ONE)),
              None, ("bindings",), (), False),
    TSeq: ((("exprs", MANY),), None, (), (), False),
    TSet: ((("expr", ONE),), "name", (), (), False),
    TTuple: ((("exprs", MANY),), None, (), (), False),
    TProj: ((("expr", ONE),), None, (), (), False),
    TBox: ((("expr", ONE),), None, (), (), False),
    TUnbox: ((("expr", ONE),), None, (), (), False),
    TSetBox: ((("box", ONE), ("expr", ONE)), None, (), (), False),
    TypedUnitExpr: ((("defns", ENTRIES), ("init", ONE)),
                    None, ("vimports", "datatypes", "defns"),
                    ("vimports", "vexports", "datatypes"), False),
    TypedCompoundExpr: ((("first", CLAUSE), ("second", CLAUSE)),
                        None, (), (), False),
    TypedInvokeExpr: ((("expr", ONE), ("vlinks", ENTRIES)),
                      None, (), (), False),
}

_EMPTY: frozenset[str] = frozenset()
_union = frozenset.union
_last = itemgetter(-1)


def _names(node, attrs) -> list[str]:
    """The names held by ``node``'s binder fields ``attrs``, in order."""
    out: list[str] = []
    for attr in attrs:
        items = getattr(node, attr)
        if not items:
            continue
        if type(items[0]) is str:
            out += items
        elif type(items[0]) is tuple:
            out += [item[0] for item in items]
        else:  # datatype definitions
            for item in items:
                out += item.value_names
    return out


def binder_names(node) -> list[str]:
    """The names ``node`` binds (empty for non-binding forms)."""
    binders = SIGNATURE[type(node)][2]
    return _names(node, binders) if binders else []


def children(node) -> list:
    """The direct subexpressions of ``node``, in surface order.

    Raises ``TypeError`` for an object that is not an expression node.
    """
    sig = SIGNATURE.get(type(node))
    if sig is None:
        raise TypeError(f"not an expression: {node!r}")
    out: list = []
    for attr, shape in sig[0]:
        value = getattr(node, attr)
        if shape == ONE:
            out.append(value)
        elif shape == MANY:
            out += value
        elif shape == ENTRIES:
            out += map(_last, value)
        else:
            out.append(value.expr)
    return out


def scoped_children(node) -> list[tuple[object, bool]]:
    """``(child, scoped)`` pairs: is ``child`` in the scope of the
    names ``node`` binds?"""
    kids = children(node)
    _, _, binders, _, body_only = SIGNATURE[type(node)]
    if not binders:
        return [(kid, False) for kid in kids]
    if body_only:
        return [(kid, False) for kid in kids[:-1]] + [(kids[-1], True)]
    return [(kid, True) for kid in kids]


def _rebuild(node, changes: dict):
    """A copy of ``node`` with the fields in ``changes`` replaced."""
    cls = type(node)
    args = []
    for attr in cls.__match_args__:
        args.append(changes[attr] if attr in changes else getattr(node, attr))
    return cls(*args)


def map_children(node, fn, scoped_fn=None,
                 renames: dict[str, str] | None = None):
    """Rebuild ``node`` with ``fn(child)`` for every child.

    Children in the scope of the node's binders take ``scoped_fn``
    instead, when it is given.  ``renames`` renames the variable the
    node refers to and the names it binds outside its ``fixed``
    fields.  Returns ``node`` itself when nothing changed.
    """
    return _map(node, SIGNATURE[type(node)], fn, scoped_fn, renames)


def _map(node, sig, fn, scoped_fn, renames):
    fields, ref, binders, fixed, body_only = sig
    changes: dict = {}
    if scoped_fn is None or not binders:
        scoped_fn = fn
    last = fields[-1][0] if body_only else None
    for attr, shape in fields:
        f = scoped_fn if last is None or attr == last else fn
        old = getattr(node, attr)
        if shape == ONE:
            new = f(old)
            if new is not old:
                changes[attr] = new
        elif shape == MANY:
            new = tuple(map(f, old))
            if any(map(is_not, new, old)):
                changes[attr] = new
        elif shape == ENTRIES:
            kids = tuple(map(f, map(_last, old)))
            rename = renames if renames and attr in binders else None
            if rename or any(map(is_not, kids, map(_last, old))):
                changes[attr] = tuple([
                    (rename.get(entry[0], entry[0]) if rename else entry[0],
                     *entry[1:-1], kid)
                    for entry, kid in zip(old, kids)])
        else:
            expr = f(old.expr)
            if expr is not old.expr:
                changes[attr] = _rebuild(old, {"expr": expr})
    if renames:
        if ref is not None and getattr(node, ref) in renames:
            changes[ref] = renames[getattr(node, ref)]
        for attr in binders:
            if attr in changes or attr in fixed:
                continue
            changes[attr] = tuple([
                renames.get(item, item) if type(item) is str
                else (renames.get(item[0], item[0]), *item[1:])
                for item in getattr(node, attr)])
    return _rebuild(node, changes) if changes else node


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def free_vars(expr) -> frozenset[str]:
    """The free (value) variables of an expression of either calculus.

    Memoized per node, except on leaves, whose sets cost less to
    build than to store.  Computed by an explicit stack, so any depth
    fits.  With caching off, every call recomputes the whole walk.
    """
    sig = SIGNATURE[type(expr)]
    if not sig[0]:
        return frozenset((getattr(expr, sig[1]),)) if sig[1] else _EMPTY
    enabled = _terms._enabled
    if enabled:
        cached = getattr(expr, "_fv", None)
        if cached is not None:
            return cached
    # Pre-order: each node's list of children becomes its list of
    # child sets, filled now for a leaf or a memoized child and, for a
    # child pushed to be computed, when the reversed (post-) order
    # reaches it.  A leaf variable's set is shared within the walk.
    singles: dict[str, frozenset[str]] = {}
    result: list = [None]
    order: list = []
    stack: list = [(expr, sig, result, 0)]
    while stack:
        node, sig, into, at = stack.pop()
        sets = children(node)
        index = -1
        for kid in sets:
            index += 1
            kid_sig = SIGNATURE[type(kid)]
            if kid_sig[0]:
                out = getattr(kid, "_fv", None) if enabled else None
                if out is None:
                    stack.append((kid, kid_sig, sets, index))
                    continue
            elif kid_sig[1]:
                name = getattr(kid, kid_sig[1])
                out = singles.get(name)
                if out is None:
                    out = singles[name] = frozenset((name,))
            else:
                out = _EMPTY
            sets[index] = out
        order.append((node, sig, sets, into, at))
    for node, (_, ref, binders, _, body_only), sets, into, at \
            in reversed(order):
        if binders:
            bound = _names(node, binders)
            if body_only:
                sets.append(sets.pop().difference(bound))
            else:
                sets = [_union(*sets).difference(bound)]
        if len(sets) == 1:
            out = sets[0]
        elif sets:
            out = _union(*sets)
        else:
            out = _EMPTY
        if ref is not None:
            name = getattr(node, ref)
            if name not in out:
                out = out | {name}
        if enabled:
            object.__setattr__(node, "_fv", out)
        into[at] = out
    return result[0]


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute(expr, mapping: dict):
    """Capture-avoiding substitution of expressions for free variables.

    Works on either calculus; ``mapping`` maps variable names to
    replacement expressions of the same calculus (usually value
    syntax).  Binders that would capture a free variable of a
    replacement are renamed first.  When caching is on, a term with no
    free occurrence of any mapped variable is returned unchanged
    (identity, not just equality) — renaming only ever protects
    replacements that are actually inserted, so an untouched subtree
    is already the correct result.  Each visited node charges the
    active budget's ``subst_nodes`` allowance.
    """
    if not mapping:
        return expr
    if _terms._enabled and (getattr(expr, "_fv", None)
                            or free_vars(expr)).isdisjoint(mapping):
        return expr
    rfvs: set[str] = set()
    for replacement in mapping.values():
        sig = SIGNATURE[type(replacement)]
        if sig[0]:
            rfvs.update(free_vars(replacement))
        elif sig[1]:
            rfvs.add(getattr(replacement, sig[1]))
    return _substituter(mapping, rfvs, _limits.current())(expr)


def _keep(node):
    return node


def _substituter(mapping: dict, rfvs: set[str], budget):
    """The function that substitutes ``mapping``, whose replacements'
    free variables are ``rfvs``, into a node and, through
    :func:`map_children`, into its children."""
    enabled = _terms._enabled

    def visit(node):
        if budget is not None:
            budget.charge_subst(node)
        sig = SIGNATURE[type(node)]
        fields, ref, binders, _, _ = sig
        if not fields:  # a literal, or a variable reference
            return mapping.get(getattr(node, ref), node) if ref else node
        if enabled and (getattr(node, "_fv", None)
                        or free_vars(node)).isdisjoint(mapping):
            return node
        if ref is not None:  # ``set!``: a variable may replace its target
            name = getattr(node, ref)
            target = mapping.get(name)
            if target is None:
                return _map(node, sig, visit, None, None)
            if type(target) not in (Var, TVar):
                raise ValueError(
                    f"cannot substitute non-variable for assigned "
                    f"variable {name}")
            return _map(node, sig, visit, None, {name: target.name})
        if not binders:
            return _map(node, sig, visit, None, None)
        inner, inner_rfvs, renames = _enter_binder(node, mapping, rfvs)
        scoped = _substituter(inner, inner_rfvs, budget) if inner else _keep
        return _map(node, sig, visit, scoped, renames)

    return visit


def _enter_binder(node, mapping: dict, rfvs: set[str]):
    """Prepare to substitute under ``node``'s binders.

    Returns the mapping for the children in their scope, that
    mapping's replacement free variables, and the binder renamings.
    A binder that would capture a replacement is renamed, and the
    renaming is *merged into* the returned mapping instead of being
    applied in a separate pass: the renamed binders and the live
    mapping have disjoint domains, and parallel substitution never
    descends into replacements, so one pass gives the same result as
    rename-then-substitute.  A captured interface name cannot be
    renamed (Section 4.1.1), so it is a substitution error, which the
    reduction semantics avoids by construction.
    """
    _, _, binders, fixed, body_only = SIGNATURE[type(node)]
    names = _names(node, binders)
    live = {k: v for k, v in mapping.items() if k not in names}
    captured = [name for name in names if name in rfvs]
    if not live or not captured:
        return live, rfvs, None
    pinned = set(_names(node, fixed))
    avoid = rfvs | set(names) | set(live)
    kids = children(node)
    for kid in (kids[-1:] if body_only else kids):
        avoid |= free_vars(kid)
    variable = Var if isinstance(node, Expr) else TVar
    merged = dict(live)
    merged_rfvs = set(rfvs)
    renames: dict[str, str] = {}
    for name in captured:
        if name in pinned:
            raise ValueError(
                f"substitution would capture interface name {name}")
        fresh = fresh_like(name, avoid)
        avoid.add(fresh)
        merged[name] = variable(fresh)
        merged_rfvs.add(fresh)
        renames[name] = fresh
    return merged, merged_rfvs, renames


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
