"""Parser for the typed surface syntax (UNITc and UNITe).

.. code-block:: text

   texpr ::= literal | x
           | (lambda ((x type) ...) texpr ...)
           | (if texpr texpr texpr) | (begin texpr ...)
           | (let ((x texpr) ...) texpr ...)
           | (letrec ((x type texpr) ...) texpr ...)
           | (set! x texpr)
           | (and texpr ...) | (or ...) | (when ...) | (cond ...)
           | (tuple texpr ...) | (proj i texpr)
           | (box texpr) | (unbox texpr) | (set-box! texpr texpr)
           | (unit/t (import decl ...) (export decl ...)
               body-defn ... init-texpr ...)
           | (compound/t (import decl ...) (export decl ...)
               (link (texpr (with decl ...) (provides decl ...))
                     (texpr (with decl ...) (provides decl ...))))
           | (invoke/t texpr (type t type) ... (val x texpr) ...)
           | (texpr texpr ...)

   body-defn ::= (datatype t (xc1 xd1 type) (xc2 xd2 type) xt)
               | (type t [kind] type)      ; UNITe equation
               | (define x type texpr)
"""

from __future__ import annotations

from repro.lang.errors import Loc, ParseError
from repro.lang.sexpr import Datum, SList, Symbol, read_sexpr
from repro.types.kinds import Kind, OMEGA
from repro.types.parser import parse_decls, parse_kind, parse_type
from repro.types.types import Type
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

KEYWORDS = frozenset({
    "lambda", "if", "let", "letrec", "set!", "begin",
    "and", "or", "when", "cond", "else",
    "tuple", "proj", "box", "unbox", "set-box!",
    "unit/t", "compound/t", "invoke/t",
    "datatype", "type", "val", "define",
    "import", "export", "link", "with", "provides", "depends",
})

TVOID = TLit(None)


def _tseq(*exprs: TExpr) -> TExpr:
    if len(exprs) == 1:
        return exprs[0]
    return TSeq(tuple(exprs))


def parse_texpr(datum: Datum) -> TExpr:
    """Parse one datum into a typed expression."""
    if isinstance(datum, bool) or isinstance(datum, (int, float, str)):
        return TLit(datum)
    if isinstance(datum, Symbol):
        if datum.name in KEYWORDS:
            raise ParseError(f"keyword used as variable: {datum.name}",
                             datum.loc)
        return TVar(datum.name, datum.loc)
    if isinstance(datum, SList):
        return _parse_form(datum)
    raise ParseError(f"cannot parse typed expression: {datum!r}")


def parse_typed_program(text: str, origin: str = "<string>") -> TExpr:
    """Parse typed source text into one typed expression."""
    return parse_texpr(read_sexpr(text, origin))


def _head(datum: SList) -> str | None:
    if len(datum) > 0 and isinstance(datum[0], Symbol):
        return datum[0].name
    return None


def _sym(datum: Datum, what: str, loc: Loc | None) -> str:
    if not isinstance(datum, Symbol):
        raise ParseError(f"expected {what}", loc)
    if datum.name in KEYWORDS:
        raise ParseError(f"keyword used as {what}: {datum.name}", datum.loc)
    return datum.name


def _parse_form(datum: SList) -> TExpr:
    head = _head(datum)
    if head == "lambda":
        return _parse_lambda(datum)
    if head == "if":
        if len(datum) != 4:
            raise ParseError("if: expected (if test then else)", datum.loc)
        return TIf(parse_texpr(datum[1]), parse_texpr(datum[2]),
                   parse_texpr(datum[3]), datum.loc)
    if head == "begin":
        if len(datum) < 2:
            raise ParseError("begin: expected expressions", datum.loc)
        return _tseq(*(parse_texpr(d) for d in datum[1:]))
    if head == "let":
        return _parse_let(datum)
    if head == "letrec":
        return _parse_letrec(datum)
    if head == "set!":
        if len(datum) != 3:
            raise ParseError("set!: expected (set! x e)", datum.loc)
        return TSet(_sym(datum[1], "variable", datum.loc),
                    parse_texpr(datum[2]), datum.loc)
    if head == "and":
        return _parse_and_or(datum, empty=TLit(True), is_and=True)
    if head == "or":
        return _parse_and_or(datum, empty=TLit(False), is_and=False)
    if head == "when":
        if len(datum) < 3:
            raise ParseError("when: expected test and body", datum.loc)
        return TIf(parse_texpr(datum[1]),
                   _tseq(*(parse_texpr(d) for d in datum[2:])),
                   TApp(TVar("void"), ()), datum.loc)
    if head == "cond":
        return _parse_cond(datum)
    if head == "tuple":
        if len(datum) < 3:
            raise ParseError("tuple: expected at least two components",
                             datum.loc)
        return TTuple(tuple(parse_texpr(d) for d in datum[1:]), datum.loc)
    if head == "proj":
        if len(datum) != 3 or not isinstance(datum[1], int):
            raise ParseError("proj: expected (proj index e)", datum.loc)
        return TProj(datum[1], parse_texpr(datum[2]), datum.loc)
    if head == "box":
        if len(datum) != 2:
            raise ParseError("box: expected one expression", datum.loc)
        return TBox(parse_texpr(datum[1]), datum.loc)
    if head == "unbox":
        if len(datum) != 2:
            raise ParseError("unbox: expected one expression", datum.loc)
        return TUnbox(parse_texpr(datum[1]), datum.loc)
    if head == "set-box!":
        if len(datum) != 3:
            raise ParseError("set-box!: expected box and value", datum.loc)
        return TSetBox(parse_texpr(datum[1]), parse_texpr(datum[2]),
                       datum.loc)
    if head == "unit/t":
        return parse_typed_unit(datum)
    if head == "compound/t":
        return parse_typed_compound(datum)
    if head == "invoke/t":
        return parse_typed_invoke(datum)
    if head in KEYWORDS:
        raise ParseError(f"misplaced keyword: {head}", datum.loc)
    if len(datum) == 0:
        raise ParseError("empty application", datum.loc)
    return TApp(parse_texpr(datum[0]),
                tuple(parse_texpr(d) for d in datum[1:]), datum.loc)


def _parse_lambda(datum: SList) -> TLambda:
    if len(datum) < 3 or not isinstance(datum[1], SList):
        raise ParseError("lambda: expected (lambda ((x type) ...) body ...)",
                         datum.loc)
    params: list[tuple[str, Type]] = []
    for param in datum[1]:
        if not isinstance(param, SList) or len(param) != 2:
            raise ParseError("lambda: parameter must be (x type)", datum.loc)
        params.append((_sym(param[0], "parameter", datum.loc),
                       parse_type(param[1])))
    names = [n for n, _ in params]
    if len(set(names)) != len(names):
        raise ParseError("lambda: duplicate parameter", datum.loc)
    return TLambda(tuple(params),
                   _tseq(*(parse_texpr(d) for d in datum[2:])), datum.loc)


def _parse_let(datum: SList) -> TLet:
    if len(datum) < 3 or not isinstance(datum[1], SList):
        raise ParseError("let: expected bindings and body", datum.loc)
    bindings: list[tuple[str, TExpr]] = []
    for binding in datum[1]:
        if not isinstance(binding, SList) or len(binding) != 2:
            raise ParseError("let: binding must be (x e)", datum.loc)
        bindings.append((_sym(binding[0], "binding name", datum.loc),
                         parse_texpr(binding[1])))
    names = [n for n, _ in bindings]
    if len(set(names)) != len(names):
        raise ParseError("let: duplicate binding", datum.loc)
    return TLet(tuple(bindings),
                _tseq(*(parse_texpr(d) for d in datum[2:])), datum.loc)


def _parse_letrec(datum: SList) -> TLetrec:
    if len(datum) < 3 or not isinstance(datum[1], SList):
        raise ParseError("letrec: expected bindings and body", datum.loc)
    bindings: list[tuple[str, Type, TExpr]] = []
    for binding in datum[1]:
        if not isinstance(binding, SList) or len(binding) != 3:
            raise ParseError("letrec: binding must be (x type e)", datum.loc)
        bindings.append((_sym(binding[0], "binding name", datum.loc),
                         parse_type(binding[1]), parse_texpr(binding[2])))
    names = [n for n, _, _ in bindings]
    if len(set(names)) != len(names):
        raise ParseError("letrec: duplicate binding", datum.loc)
    return TLetrec(tuple(bindings),
                   _tseq(*(parse_texpr(d) for d in datum[2:])), datum.loc)


def _parse_and_or(datum: SList, empty: TExpr, is_and: bool) -> TExpr:
    exprs = [parse_texpr(d) for d in datum[1:]]
    if not exprs:
        return empty
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        if is_and:
            result = TIf(expr, result, TLit(False), datum.loc)
        else:
            result = TIf(expr, TLit(True), result, datum.loc)
    return result


def _parse_cond(datum: SList) -> TExpr:
    clauses = datum[1:]
    if not clauses:
        raise ParseError("cond: expected clauses", datum.loc)
    result: TExpr = TApp(TVar("void"), ())
    for clause in reversed(clauses):
        if not isinstance(clause, SList) or len(clause) < 2:
            raise ParseError("cond: malformed clause", datum.loc)
        body = _tseq(*(parse_texpr(d) for d in clause[1:]))
        if isinstance(clause[0], Symbol) and clause[0].name == "else":
            result = body
        else:
            result = TIf(parse_texpr(clause[0]), body, result, datum.loc)
    return result


# ---------------------------------------------------------------------------
# Typed unit forms
# ---------------------------------------------------------------------------


def parse_typed_unit(datum: SList) -> TypedUnitExpr:
    """Parse a ``unit/t`` form."""
    if len(datum) < 3:
        raise ParseError("unit/t: expected import and export clauses",
                         datum.loc)
    timports, vimports = parse_decls(datum[1], "import")
    texports, vexports = parse_decls(datum[2], "export")
    datatypes: list[DatatypeDefn] = []
    equations: list[TypeEqn] = []
    defns: list[tuple[str, Type, TExpr]] = []
    inits: list[TExpr] = []
    for body in datum[3:]:
        head = _head(body) if isinstance(body, SList) else None
        if head in ("datatype", "type", "define") and inits:
            raise ParseError(
                "unit/t: definitions must precede initialization "
                "expressions", datum.loc)
        if head == "datatype":
            datatypes.append(_parse_datatype(body))
        elif head == "type":
            equations.append(_parse_equation(body))
        elif head == "define":
            defns.append(_parse_defn(body))
        else:
            inits.append(parse_texpr(body))
    init = _tseq(*inits) if inits else TVOID
    return TypedUnitExpr(timports, vimports, texports, vexports,
                         tuple(datatypes), tuple(equations), tuple(defns),
                         init, datum.loc)


def _parse_datatype(datum: SList) -> DatatypeDefn:
    if len(datum) != 5:
        raise ParseError(
            "datatype: expected (datatype t (c1 d1 type) (c2 d2 type) pred)",
            datum.loc)
    name = _sym(datum[1], "datatype name", datum.loc)
    variants: list[tuple[str, str, Type]] = []
    for variant in (datum[2], datum[3]):
        if not isinstance(variant, SList) or len(variant) != 3:
            raise ParseError("datatype: variant must be (ctor dtor type)",
                             datum.loc)
        variants.append((_sym(variant[0], "constructor", datum.loc),
                         _sym(variant[1], "deconstructor", datum.loc),
                         parse_type(variant[2])))
    pred = _sym(datum[4], "predicate", datum.loc)
    (c1, d1, t1), (c2, d2, t2) = variants
    return DatatypeDefn(name, c1, d1, t1, c2, d2, t2, pred, datum.loc)


def _parse_equation(datum: SList) -> TypeEqn:
    if len(datum) == 3:
        kind: Kind = OMEGA
        rhs = parse_type(datum[2])
    elif len(datum) == 4:
        kind = parse_kind(datum[2])
        rhs = parse_type(datum[3])
    else:
        raise ParseError("type: expected (type t [kind] type)", datum.loc)
    return TypeEqn(_sym(datum[1], "type name", datum.loc), kind, rhs,
                   datum.loc)


def _parse_defn(datum: SList) -> tuple[str, Type, TExpr]:
    if len(datum) != 4:
        raise ParseError("define: expected (define x type e)", datum.loc)
    return (_sym(datum[1], "defined name", datum.loc),
            parse_type(datum[2]), parse_texpr(datum[3]))


def parse_typed_compound(datum: SList) -> TypedCompoundExpr:
    """Parse a ``compound/t`` form."""
    if len(datum) != 4:
        raise ParseError(
            "compound/t: expected (compound/t (import ...) (export ...) "
            "(link clause clause))", datum.loc)
    timports, vimports = parse_decls(datum[1], "import")
    texports, vexports = parse_decls(datum[2], "export")
    link = datum[3]
    if not isinstance(link, SList) or _head(link) != "link" or len(link) != 3:
        raise ParseError("compound/t: expected (link clause clause)",
                         datum.loc)
    first = _parse_typed_clause(link[1], datum.loc)
    second = _parse_typed_clause(link[2], datum.loc)
    return TypedCompoundExpr(timports, vimports, texports, vexports,
                             first, second, datum.loc)


def _parse_typed_clause(datum: Datum, loc: Loc | None) -> TypedLinkClause:
    if not isinstance(datum, SList) or len(datum) != 3:
        raise ParseError(
            "link clause: expected (e (with decl ...) (provides decl ...))",
            loc)
    expr = parse_texpr(datum[0])
    with_t, with_v = parse_decls(datum[1], "with")
    prov_t, prov_v = parse_decls(datum[2], "provides")
    return TypedLinkClause(expr, with_t, with_v, prov_t, prov_v, loc)


def parse_typed_invoke(datum: SList) -> TypedInvokeExpr:
    """Parse an ``invoke/t`` form."""
    if len(datum) < 2:
        raise ParseError("invoke/t: expected a unit expression", datum.loc)
    expr = parse_texpr(datum[1])
    tlinks: list[tuple[str, Type]] = []
    vlinks: list[tuple[str, TExpr]] = []
    for link in datum[2:]:
        if not isinstance(link, SList) or len(link) != 3 \
                or not isinstance(link[0], Symbol):
            raise ParseError(
                "invoke/t: links must be (type t type) or (val x e)",
                datum.loc)
        if link[0].name == "type":
            tlinks.append((_sym(link[1], "type name", datum.loc),
                           parse_type(link[2])))
        elif link[0].name == "val":
            vlinks.append((_sym(link[1], "import name", datum.loc),
                           parse_texpr(link[2])))
        else:
            raise ParseError(
                "invoke/t: links must be (type ...) or (val ...)", datum.loc)
    tnames = [n for n, _ in tlinks]
    vnames = [n for n, _ in vlinks]
    if len(set(tnames)) != len(tnames) or len(set(vnames)) != len(vnames):
        raise ParseError("invoke/t: duplicate link", datum.loc)
    return TypedInvokeExpr(expr, tuple(tlinks), tuple(vlinks), datum.loc)
