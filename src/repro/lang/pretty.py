"""Pretty-printer: AST back to s-expression syntax.

One explicit-stack walk lays every node out as a flat stream of
tokens — ``(``, ``)`` and atoms, with the separating spaces — written
straight from the AST, so printing never recurses and allocates no
intermediate datum tree.  :func:`show` joins the stream; :func:`pretty`
rebuilds a datum from it with a stack and breaks the lines.  Reading
:func:`show`'s text back with the parser gives an equal expression
(the printer is a right inverse of the parser on kernel forms, modulo
sugar, which the parser eliminates), except for machine terms that
carry run-time constants, which print but do not read back.  The
printer is used by the archive (units are shipped as source text), by
the link stage's reply, by the compilation demo of Figure 12, and by
error messages.
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
from repro.lang.sexpr import SList, Symbol, format_sexpr, write_atom
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr

_OPEN, _CLOSE, _SPACE = "(", ")", " "


def _lit(expr: Lit) -> list:
    value = expr.value
    if value is None:
        return [_OPEN, "void", _CLOSE]
    if isinstance(value, (bool, int, float, str)):
        return [write_atom(value)]
    # Runtime data carried as constants by the machine (pairs,
    # primitives, hash tables): printable but not re-readable.
    return [repr(value)]


def _names(keyword: str, names) -> list:
    return [_OPEN, keyword, *names, _CLOSE]


def _binding_block(expr: Let | Letrec) -> list:
    items = [_OPEN, "let" if type(expr) is Let else "letrec", _OPEN]
    for name, rhs in expr.bindings:
        items += (_OPEN, name, rhs, _CLOSE)
    items += (_CLOSE, expr.body, _CLOSE)
    return items


def _unit(expr: UnitExpr) -> list:
    items = [_OPEN, "unit", *_names("import", expr.imports),
             *_names("export", expr.exports)]
    for name, rhs in expr.defns:
        items += (_OPEN, "define", name, rhs, _CLOSE)
    items += (expr.init, _CLOSE)
    return items


def _clause(clause: LinkClause) -> list:
    return [_OPEN, clause.expr, *_names("with", clause.withs),
            *_names("provides", clause.provides), _CLOSE]


def _compound(expr: CompoundExpr) -> list:
    return [_OPEN, "compound", *_names("import", expr.imports),
            *_names("export", expr.exports),
            _OPEN, "link", *_clause(expr.first), *_clause(expr.second),
            _CLOSE, _CLOSE]


def _invoke(expr: InvokeExpr) -> list:
    items = [_OPEN, "invoke", expr.expr]
    for name, rhs in expr.links:
        items += (_OPEN, name, rhs, _CLOSE)
    items.append(_CLOSE)
    return items


#: Each node class's layout: its tokens and child nodes, in order.
_LAYOUT = {
    Lit: _lit,
    Lambda: lambda e: [_OPEN, "lambda", _OPEN, *e.params, _CLOSE, e.body,
                       _CLOSE],
    App: lambda e: [_OPEN, e.fn, *e.args, _CLOSE],
    If: lambda e: [_OPEN, "if", e.test, e.then, e.orelse, _CLOSE],
    Let: _binding_block,
    Letrec: _binding_block,
    SetBang: lambda e: [_OPEN, "set!", e.name, e.expr, _CLOSE],
    Seq: lambda e: [_OPEN, "begin", *e.exprs, _CLOSE],
    UnitExpr: _unit,
    CompoundExpr: _compound,
    InvokeExpr: _invoke,
}


def tokens(expr: Expr) -> list[str]:
    """``expr``'s printed text as pieces: ``(``, ``)``, atoms, and the
    single spaces between them.

    The stack holds one iterator per node being laid out; a child node
    suspends its parent's iterator until its own layout is done.
    """
    out: list[str] = []
    append = out.append
    stack = [iter((expr,))]
    space = False
    while stack:
        for item in stack[-1]:
            if type(item) is not str:
                if type(item) is not Var:
                    layout = _LAYOUT.get(type(item))
                    if layout is None:
                        raise TypeError(f"show: unknown expression {item!r}")
                    stack.append(iter(layout(item)))
                    break
                item = item.name
            if item is _CLOSE:
                append(_CLOSE)
                space = True
            else:
                if space:
                    append(_SPACE)
                append(item)
                space = item is not _OPEN
        else:
            stack.pop()
    return out


def show(expr: Expr) -> str:
    """Print an expression on a single line."""
    return "".join(tokens(expr))


def pretty(expr: Expr, width: int = 78) -> str:
    """Pretty-print an expression as multi-line source text."""
    items: list = []
    stack: list[list] = []
    for piece in tokens(expr):
        if piece is _OPEN:
            stack.append(items)
            items = []
        elif piece is _CLOSE:
            done = SList(tuple(items))
            items = stack.pop()
            items.append(done)
        elif piece is not _SPACE:
            items.append(Symbol(piece))
    return format_sexpr(items[0], width)
