"""Parser: s-expression data to core + UNITd abstract syntax.

The grammar follows Figure 9 of the paper, rendered in s-expression
form (as MzScheme itself does):

.. code-block:: scheme

   (unit (import xi ...) (export xe ...)
     (define x e) ...
     init-expr ...)

   (compound (import xi ...) (export xe ...)
     (link (e1 (with xw1 ...) (provides xp1 ...))
           (e2 (with xw2 ...) (provides xp2 ...))))

   (invoke e (x e) ...)

Core forms are ``lambda``, ``if``, ``let``, ``letrec``, ``set!``,
``begin``, application, plus ``and`` / ``or`` / ``when`` / ``cond``
sugar that elaborates into the kernel forms.
"""

from __future__ import annotations

from repro.lang.ast import (
    VOID,
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
    seq_of,
)
from repro.lang.errors import Loc, ParseError
from repro.lang.sexpr import Datum, SList, Symbol, read_all_sexprs, read_sexpr
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr

#: Names that are syntactic keywords and cannot be used as variables.
KEYWORDS = frozenset({
    "lambda", "if", "let", "letrec", "set!", "begin",
    "and", "or", "when", "cond", "else", "define",
    "unit", "compound", "invoke", "import", "export",
    "link", "with", "provides",
})


def parse_expr(datum: Datum) -> Expr:
    """Parse one datum into an expression."""
    if isinstance(datum, (int, float, str)) or isinstance(datum, bool):
        return Lit(datum)
    if isinstance(datum, Symbol):
        return _parse_var(datum)
    if isinstance(datum, SList):
        return _parse_form(datum)
    raise ParseError(f"cannot parse datum: {datum!r}")


def parse_program(text: str, origin: str = "<string>") -> Expr:
    """Parse source text containing one expression into an AST."""
    return parse_expr(read_sexpr(text, origin))


def parse_script(text: str, origin: str = "<script>") -> Expr:
    """Parse a *script*: top-level definitions followed by expressions.

    This is the program-linking-program format the CLI accepts: a
    sequence of ``(define name expr)`` forms — typically binding unit
    values — followed by one or more expressions, all wrapped into a
    ``letrec`` so definitions may be mutually recursive.  The script's
    value is the last expression's value.
    """
    data = read_all_sexprs(text, origin)
    if not data:
        raise ParseError("empty script", None)
    bindings: list[tuple[str, Expr]] = []
    body: list[Expr] = []
    for datum in data:
        if isinstance(datum, SList) and len(datum) > 0 \
                and isinstance(datum[0], Symbol) \
                and datum[0].name == "define":
            if body:
                raise ParseError(
                    "script: definitions must precede expressions",
                    datum.loc)
            bindings.append(_parse_define(datum))
        else:
            body.append(parse_expr(datum))
    if not body:
        raise ParseError("script: expected a final expression", None)
    names = [name for name, _ in bindings]
    if len(set(names)) != len(names):
        raise ParseError("script: duplicate definition", None)
    main = seq_of(*body)
    if not bindings:
        return main
    return Letrec(tuple(bindings), main)


def parse_library(text: str,
                  origin: str = "<library>") -> tuple[tuple[str, Expr], ...]:
    """Parse a *library* file: top-level definitions only.

    Library files hold independently developed parts (typically named
    units) for assembly by a separate script; they need no final
    expression.  Returns the definition bindings.
    """
    bindings: list[tuple[str, Expr]] = []
    for datum in read_all_sexprs(text, origin):
        if isinstance(datum, SList) and len(datum) > 0 \
                and isinstance(datum[0], Symbol) \
                and datum[0].name == "define":
            bindings.append(_parse_define(datum))
        else:
            raise ParseError(
                "library: only top-level definitions are allowed",
                getattr(datum, "loc", None))
    names = [name for name, _ in bindings]
    if len(set(names)) != len(names):
        raise ParseError("library: duplicate definition", None)
    return tuple(bindings)


def _parse_var(datum: Symbol) -> Var:
    if datum.name in KEYWORDS:
        raise ParseError(f"keyword used as variable: {datum.name}", datum.loc)
    return Var(datum.name, datum.loc)


def _head(datum: SList) -> str | None:
    if len(datum) > 0 and isinstance(datum[0], Symbol):
        return datum[0].name
    return None


def _parse_form(datum: SList) -> Expr:
    head = _head(datum)
    if head == "lambda":
        return _parse_lambda(datum)
    if head == "if":
        return _parse_if(datum)
    if head in ("let", "letrec"):
        return _parse_let(datum, head)
    if head == "set!":
        return _parse_set(datum)
    if head == "begin":
        return _parse_begin(datum)
    if head == "and":
        return _parse_and(datum)
    if head == "or":
        return _parse_or(datum)
    if head == "when":
        return _parse_when(datum)
    if head == "cond":
        return _parse_cond(datum)
    if head == "unit":
        return parse_unit(datum)
    if head == "compound":
        return parse_compound(datum)
    if head == "invoke":
        return parse_invoke(datum)
    if head in KEYWORDS:
        raise ParseError(f"misplaced keyword: {head}", datum.loc)
    return _parse_app(datum)


def _sym_name(datum: Datum, what: str, loc: Loc | None) -> str:
    if not isinstance(datum, Symbol):
        raise ParseError(f"expected {what}, got {datum!r}", loc)
    if datum.name in KEYWORDS:
        raise ParseError(f"keyword used as {what}: {datum.name}", datum.loc)
    return datum.name


def _parse_lambda(datum: SList) -> Lambda:
    if len(datum) < 3:
        raise ParseError("lambda: expected (lambda (x ...) body ...)", datum.loc)
    params_datum = datum[1]
    if not isinstance(params_datum, SList):
        raise ParseError("lambda: parameter list must be parenthesized", datum.loc)
    params = tuple(_sym_name(p, "parameter", datum.loc) for p in params_datum)
    if len(set(params)) != len(params):
        raise ParseError("lambda: duplicate parameter name", datum.loc)
    body = seq_of(*(parse_expr(d) for d in datum[2:]))
    return Lambda(params, body, datum.loc)


def _parse_if(datum: SList) -> If:
    if len(datum) != 4:
        raise ParseError("if: expected (if test then else)", datum.loc)
    return If(parse_expr(datum[1]), parse_expr(datum[2]),
              parse_expr(datum[3]), datum.loc)


def _parse_let(datum: SList, which: str) -> Expr:
    if len(datum) < 3 or not isinstance(datum[1], SList):
        raise ParseError(f"{which}: expected ({which} ((x e) ...) body ...)",
                         datum.loc)
    bindings: list[tuple[str, Expr]] = []
    for binding in datum[1]:
        if not isinstance(binding, SList) or len(binding) != 2:
            raise ParseError(f"{which}: malformed binding", datum.loc)
        name = _sym_name(binding[0], "binding name", datum.loc)
        bindings.append((name, parse_expr(binding[1])))
    names = [name for name, _ in bindings]
    if len(set(names)) != len(names):
        raise ParseError(f"{which}: duplicate binding name", datum.loc)
    body = seq_of(*(parse_expr(d) for d in datum[2:]))
    node = Let if which == "let" else Letrec
    return node(tuple(bindings), body, datum.loc)


def _parse_set(datum: SList) -> SetBang:
    if len(datum) != 3:
        raise ParseError("set!: expected (set! x e)", datum.loc)
    return SetBang(_sym_name(datum[1], "variable", datum.loc),
                   parse_expr(datum[2]), datum.loc)


def _parse_begin(datum: SList) -> Expr:
    if len(datum) < 2:
        raise ParseError("begin: expected at least one expression", datum.loc)
    return seq_of(*(parse_expr(d) for d in datum[1:]))


def _parse_and(datum: SList) -> Expr:
    exprs = [parse_expr(d) for d in datum[1:]]
    if not exprs:
        return Lit(True, datum.loc)
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = If(expr, result, Lit(False), datum.loc)
    return result


def _parse_or(datum: SList) -> Expr:
    exprs = [parse_expr(d) for d in datum[1:]]
    if not exprs:
        return Lit(False, datum.loc)
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        # (or a b) => (let ((t a)) (if t t b)); gensym via reserved name.
        result = Let((("or-tmp%", expr),),
                     If(Var("or-tmp%"), Var("or-tmp%"), result), datum.loc)
    return result


def _parse_when(datum: SList) -> Expr:
    if len(datum) < 3:
        raise ParseError("when: expected (when test body ...)", datum.loc)
    return If(parse_expr(datum[1]),
              seq_of(*(parse_expr(d) for d in datum[2:])),
              VOID, datum.loc)


def _parse_cond(datum: SList) -> Expr:
    clauses = datum[1:]
    if not clauses:
        raise ParseError("cond: expected at least one clause", datum.loc)
    result: Expr = VOID
    for clause in reversed(clauses):
        if not isinstance(clause, SList) or len(clause) < 2:
            raise ParseError("cond: malformed clause", datum.loc)
        body = seq_of(*(parse_expr(d) for d in clause[1:]))
        if isinstance(clause[0], Symbol) and clause[0].name == "else":
            result = body
        else:
            result = If(parse_expr(clause[0]), body, result, datum.loc)
    return result


def _parse_app(datum: SList) -> App:
    if len(datum) == 0:
        raise ParseError("empty application", datum.loc)
    return App(parse_expr(datum[0]),
               tuple(parse_expr(d) for d in datum[1:]), datum.loc)


# ---------------------------------------------------------------------------
# Unit forms
# ---------------------------------------------------------------------------

def _parse_name_list(datum: Datum, keyword: str, loc: Loc | None) -> tuple[str, ...]:
    if not isinstance(datum, SList) or len(datum) < 1 \
            or not isinstance(datum[0], Symbol) or datum[0].name != keyword:
        raise ParseError(f"expected ({keyword} x ...)", loc)
    return tuple(_sym_name(d, "variable", loc) for d in datum[1:])


def parse_unit(datum: SList) -> UnitExpr:
    """Parse a ``(unit (import ...) (export ...) defn ... init)`` form."""
    if len(datum) < 3:
        raise ParseError("unit: expected import and export clauses", datum.loc)
    imports = _parse_name_list(datum[1], "import", datum.loc)
    exports = _parse_name_list(datum[2], "export", datum.loc)
    defns: list[tuple[str, Expr]] = []
    inits: list[Expr] = []
    for body_datum in datum[3:]:
        if isinstance(body_datum, SList) and _head(body_datum) == "define":
            if inits:
                raise ParseError(
                    "unit: definitions must precede the initialization "
                    "expression", datum.loc)
            defns.append(_parse_define(body_datum))
        else:
            inits.append(parse_expr(body_datum))
    init = seq_of(*inits) if inits else VOID
    return UnitExpr(imports, exports, tuple(defns), init, datum.loc)


def _parse_define(datum: SList) -> tuple[str, Expr]:
    if len(datum) < 3:
        raise ParseError("define: expected (define x e) or "
                         "(define (f x ...) body ...)", datum.loc)
    target = datum[1]
    if isinstance(target, SList):
        # (define (f x ...) body ...) procedure shorthand
        if len(target) < 1:
            raise ParseError("define: empty procedure header", datum.loc)
        name = _sym_name(target[0], "procedure name", datum.loc)
        params = tuple(_sym_name(p, "parameter", datum.loc) for p in target[1:])
        body = seq_of(*(parse_expr(d) for d in datum[2:]))
        return name, Lambda(params, body, datum.loc)
    name = _sym_name(target, "defined name", datum.loc)
    if len(datum) != 3:
        raise ParseError("define: expected exactly one expression", datum.loc)
    return name, parse_expr(datum[2])


def parse_compound(datum: SList) -> CompoundExpr:
    """Parse a two-constituent ``compound`` form (Section 4.1.2)."""
    if len(datum) != 4:
        raise ParseError(
            "compound: expected (compound (import ...) (export ...) "
            "(link clause clause))", datum.loc)
    imports = _parse_name_list(datum[1], "import", datum.loc)
    exports = _parse_name_list(datum[2], "export", datum.loc)
    link = datum[3]
    if not isinstance(link, SList) or _head(link) != "link" or len(link) != 3:
        raise ParseError("compound: expected (link clause clause)", datum.loc)
    first = _parse_link_clause(link[1], datum.loc)
    second = _parse_link_clause(link[2], datum.loc)
    return CompoundExpr(imports, exports, first, second, datum.loc)


def _parse_link_clause(datum: Datum, loc: Loc | None) -> LinkClause:
    if not isinstance(datum, SList) or len(datum) != 3:
        raise ParseError("link clause: expected (e (with x ...) "
                         "(provides x ...))", loc)
    expr = parse_expr(datum[0])
    withs = _parse_name_list(datum[1], "with", loc)
    provides = _parse_name_list(datum[2], "provides", loc)
    return LinkClause(expr, withs, provides, loc)


def parse_invoke(datum: SList) -> InvokeExpr:
    """Parse an ``(invoke e (x e) ...)`` form (Section 4.1.3)."""
    if len(datum) < 2:
        raise ParseError("invoke: expected a unit expression", datum.loc)
    expr = parse_expr(datum[1])
    links: list[tuple[str, Expr]] = []
    for link_datum in datum[2:]:
        if not isinstance(link_datum, SList) or len(link_datum) != 2:
            raise ParseError("invoke: expected (x e) import links", datum.loc)
        name = _sym_name(link_datum[0], "import name", datum.loc)
        links.append((name, parse_expr(link_datum[1])))
    names = [name for name, _ in links]
    if len(set(names)) != len(names):
        raise ParseError("invoke: duplicate import link", datum.loc)
    return InvokeExpr(expr, tuple(links), datum.loc)
