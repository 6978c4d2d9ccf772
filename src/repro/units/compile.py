"""Compiling units to functions over reference cells (Section 4.1.6).

"In MzScheme's implementation of UNITd, units are compiled by
transforming them into functions.  The unit's imported and exported
variables are implemented as first-class reference cells that are
externally created and passed to the function when the unit is invoked.
The function is responsible for filling the export cells with exported
values and for remembering the import cells for accessing imports
later.  The return value of the function is a closure that evaluates
the unit's initialization expression."  Figure 12 illustrates the
transformation; :func:`compile_unit` performs it.

The compiled protocol
---------------------

A compiled unit is a two-argument procedure::

    (lambda (import-table export-table) ... (lambda () init'))

Tables are string hash tables mapping variable names to boxes.  The
unit reads its import cells out of the import table (a missing entry is
the "unsatisfied import" run-time error of Section 4.1.3), adopts the
export cells present in the export table, creates private cells for
exports the context hid, fills every export cell by evaluating its
definitions, and returns the initialization thunk.

A compiled compound (:func:`compile_compound`) is a procedure of the
same shape that "encapsulates a list of constituent units and a closure
that propagates import and export cells to the constituent units,
creating new cells to implement variables in the constituents that are
hidden by the compound unit".

Code sharing: the transformation is performed once per ``unit``
expression; linking or invoking the same compiled unit many times
reuses the single compiled body, as the paper emphasizes (footnote 8).
The output is plain core language — it contains no unit forms — so it
demonstrates that units are compiled away.

Evaluation-order note: the transformation evaluates hidden definitions
(as a ``letrec``) before filling export cells.  Under the Harper–Stone
valuability restriction definition expressions are effect-free and
never reference unit variables outside a procedure body, so this
reordering is unobservable; :func:`repro.units.check.check_unit`
guarantees it.
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
    seq_of,
)
from repro.lang import terms as _terms
from repro.lang.subst import fresh_like, free_vars
from repro.obs import span as _obs_span
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr

# ---------------------------------------------------------------------------
# Small constructors for the generated code
#
# The transformation emits the same tiny fragments over and over —
# ``(void)``, ``(hash-get t "name")``, the protocol primitives' Var
# nodes, string literals naming unit variables.  Since AST nodes are
# immutable they can be hash-consed: one shared node per distinct
# fragment instead of a fresh allocation per occurrence.  For a chain
# of N linked units the generated wiring is O(N^2) nodes, so this is a
# large constant-factor win on exactly the programs where compilation
# is slowest.  Gated on the term-cache switch so ``--no-term-cache``
# still exercises the share-nothing path.
# ---------------------------------------------------------------------------

_SHARE_LIMIT = 4096
_shared_vars: dict[str, Var] = {}
_shared_strs: dict[str, Lit] = {}


def _callee(name: str) -> Var:
    if not _terms._enabled:
        return Var(name)
    var = _shared_vars.get(name)
    if var is None:
        if len(_shared_vars) >= _SHARE_LIMIT:
            _shared_vars.clear()
        var = _shared_vars[name] = Var(name)
    return var


def _call(name: str, *args: Expr) -> App:
    return App(_callee(name), tuple(args))


def _str(text: str) -> Lit:
    if not _terms._enabled:
        return Lit(text)
    lit = _shared_strs.get(text)
    if lit is None:
        if len(_shared_strs) >= _SHARE_LIMIT:
            _shared_strs.clear()
        lit = _shared_strs[text] = Lit(text)
    return lit


_VOID_CALL = App(Var("void"), ())


def _void() -> Expr:
    return _VOID_CALL if _terms._enabled else _call("void")


def compile_expr(expr: Expr) -> Expr:
    """Compile away every unit form in an arbitrary expression.

    Units become table-protocol functions, compounds become wiring
    functions, and invokes become table construction plus a call.  The
    result is a pure core-language expression.
    """
    if isinstance(expr, (Lit, Var)):
        return expr
    if isinstance(expr, Lambda):
        return Lambda(expr.params, compile_expr(expr.body), expr.loc)
    if isinstance(expr, App):
        return App(compile_expr(expr.fn),
                   tuple(compile_expr(a) for a in expr.args), expr.loc)
    if isinstance(expr, If):
        return If(compile_expr(expr.test), compile_expr(expr.then),
                  compile_expr(expr.orelse), expr.loc)
    if isinstance(expr, (Let, Letrec)):
        node = type(expr)
        return node(tuple((n, compile_expr(e)) for n, e in expr.bindings),
                    compile_expr(expr.body), expr.loc)
    if isinstance(expr, SetBang):
        return SetBang(expr.name, compile_expr(expr.expr), expr.loc)
    if isinstance(expr, Seq):
        return Seq(tuple(compile_expr(e) for e in expr.exprs), expr.loc)
    if isinstance(expr, UnitExpr):
        return compile_unit(expr)
    if isinstance(expr, CompoundExpr):
        return compile_compound(expr)
    if isinstance(expr, InvokeExpr):
        return compile_invoke(expr)
    raise TypeError(f"compile_expr: unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# Rewriting unit-variable references to cell operations
# ---------------------------------------------------------------------------


def _rewrite(expr: Expr, cells: dict[str, str]) -> Expr:
    """Rewrite references to celled variables into cell operations.

    ``cells`` maps a unit variable name to the name of the local
    variable holding its cell; references become ``(unbox cell)`` and
    assignments become ``(set-box! cell e)``.  Binders shadow.
    """
    if not cells:
        return expr
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        if expr.name in cells:
            return _call("unbox", Var(cells[expr.name]))
        return expr
    if isinstance(expr, Lambda):
        inner = {k: v for k, v in cells.items() if k not in expr.params}
        return Lambda(expr.params, _rewrite(expr.body, inner), expr.loc)
    if isinstance(expr, App):
        return App(_rewrite(expr.fn, cells),
                   tuple(_rewrite(a, cells) for a in expr.args), expr.loc)
    if isinstance(expr, If):
        return If(_rewrite(expr.test, cells), _rewrite(expr.then, cells),
                  _rewrite(expr.orelse, cells), expr.loc)
    if isinstance(expr, Let):
        new_bindings = tuple((n, _rewrite(e, cells)) for n, e in expr.bindings)
        inner = {k: v for k, v in cells.items()
                 if k not in {n for n, _ in expr.bindings}}
        return Let(new_bindings, _rewrite(expr.body, inner), expr.loc)
    if isinstance(expr, Letrec):
        inner = {k: v for k, v in cells.items()
                 if k not in {n for n, _ in expr.bindings}}
        new_bindings = tuple((n, _rewrite(e, inner)) for n, e in expr.bindings)
        return Letrec(new_bindings, _rewrite(expr.body, inner), expr.loc)
    if isinstance(expr, SetBang):
        if expr.name in cells:
            return _call("set-box!", Var(cells[expr.name]),
                         _rewrite(expr.expr, cells))
        return SetBang(expr.name, _rewrite(expr.expr, cells), expr.loc)
    if isinstance(expr, Seq):
        return Seq(tuple(_rewrite(e, cells) for e in expr.exprs), expr.loc)
    if isinstance(expr, UnitExpr):
        bound = set(expr.imports) | set(expr.defined)
        inner = {k: v for k, v in cells.items() if k not in bound}
        return UnitExpr(expr.imports, expr.exports,
                        tuple((n, _rewrite(e, inner)) for n, e in expr.defns),
                        _rewrite(expr.init, inner), expr.loc)
    if isinstance(expr, CompoundExpr):
        return CompoundExpr(
            expr.imports, expr.exports,
            LinkClause(_rewrite(expr.first.expr, cells),
                       expr.first.withs, expr.first.provides),
            LinkClause(_rewrite(expr.second.expr, cells),
                       expr.second.withs, expr.second.provides),
            expr.loc)
    if isinstance(expr, InvokeExpr):
        return InvokeExpr(_rewrite(expr.expr, cells),
                          tuple((n, _rewrite(e, cells))
                                for n, e in expr.links), expr.loc)
    raise TypeError(f"_rewrite: unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# The unit transformation (Figure 12)
# ---------------------------------------------------------------------------


def compile_unit(unit: UnitExpr) -> Expr:
    """Transform an atomic unit into its table-protocol function."""
    with _obs_span("unit.compile", {
            "form": "unit", "imports": len(unit.imports),
            "exports": len(unit.exports), "defns": len(unit.defns)}):
        return _compile_unit(unit)


def _compile_unit(unit: UnitExpr) -> Expr:
    avoid = set(free_vars(unit)) | set(unit.imports) | set(unit.defined)
    itab = fresh_like("import-table", avoid)
    avoid.add(itab)
    etab = fresh_like("export-table", avoid)
    avoid.add(etab)

    cells: dict[str, str] = {}
    cell_bindings: list[tuple[str, Expr]] = []
    for name in unit.imports:
        cell_var = fresh_like(f"{name}-cell", avoid)
        avoid.add(cell_var)
        cells[name] = cell_var
        cell_bindings.append((cell_var, _call("hash-get", Var(itab),
                                              _str(name))))
    exported = set(unit.exports)
    for name in unit.exports:
        cell_var = fresh_like(f"{name}-cell", avoid)
        avoid.add(cell_var)
        cells[name] = cell_var
        adopt = If(_call("hash-has?", Var(etab), _str(name)),
                   _call("hash-get", Var(etab), _str(name)),
                   _call("box", _void()))
        cell_bindings.append((cell_var, adopt))

    hidden = [(name, rhs) for name, rhs in unit.defns
              if name not in exported]

    # Rewrite definition bodies and init: celled variables go through
    # their cells; hidden definitions stay letrec-bound by name.
    hidden_names = {name for name, _ in hidden}
    live_cells = {k: v for k, v in cells.items() if k not in hidden_names}
    new_hidden = tuple(
        (name, compile_expr(_rewrite(rhs, live_cells)))
        for name, rhs in hidden)
    fill_stmts: list[Expr] = []
    for name, rhs in unit.defns:
        if name in exported:
            fill_stmts.append(
                _call("set-box!", Var(cells[name]),
                      compile_expr(_rewrite(rhs, live_cells))))
    init = compile_expr(_rewrite(unit.init, live_cells))
    thunk = Lambda((), init)

    body: Expr = seq_of(*fill_stmts, thunk) if fill_stmts else thunk
    if new_hidden:
        body = Letrec(new_hidden, body)
    if cell_bindings:
        body = _nested_let(cell_bindings, body)
    return Lambda((itab, etab), body, unit.loc)


def _nested_let(bindings: list[tuple[str, Expr]], body: Expr) -> Expr:
    """Sequential lets (let*), since cell bindings must not shadow the
    table variables referenced by later bindings."""
    for name, rhs in reversed(bindings):
        body = Let(((name, rhs),), body)
    return body


# ---------------------------------------------------------------------------
# The compound transformation
# ---------------------------------------------------------------------------


def compile_compound(compound: CompoundExpr) -> Expr:
    """Transform a compound into a wiring function over tables."""
    with _obs_span("unit.compile", {
            "form": "compound", "imports": len(compound.imports),
            "exports": len(compound.exports)}):
        return _compile_compound(compound)


def _compile_compound(compound: CompoundExpr) -> Expr:
    avoid = set(free_vars(compound))
    names = {}
    for base in ("import-table", "export-table", "ns",
                 "i1", "e1", "i2", "e2", "t1", "t2", "u1", "u2"):
        fresh = fresh_like(base, avoid)
        avoid.add(fresh)
        names[base] = fresh

    stmts: list[Expr] = []
    ns = names["ns"]
    exported = set(compound.exports)

    for name in compound.imports:
        stmts.append(_call("hash-put!", Var(ns), _str(name),
                           _call("hash-get", Var(names["import-table"]),
                                 _str(name))))
    for name in compound.first.provides + compound.second.provides:
        if name in exported:
            cell = If(_call("hash-has?", Var(names["export-table"]),
                            _str(name)),
                      _call("hash-get", Var(names["export-table"]),
                            _str(name)),
                      _call("box", _void()))
        else:
            cell = _call("box", _void())
        stmts.append(_call("hash-put!", Var(ns), _str(name), cell))

    def wire(table: str, wanted: tuple[str, ...]) -> list[Expr]:
        tvar, nsvar = _callee(table), _callee(ns)
        return [_call("hash-put!", tvar, _str(name),
                      _call("hash-get", nsvar, _str(name)))
                for name in wanted]

    stmts += wire(names["i1"], compound.first.withs)
    stmts += wire(names["e1"], compound.first.provides)
    stmts += wire(names["i2"], compound.second.withs)
    stmts += wire(names["e2"], compound.second.provides)

    instantiate = Let(
        ((names["t1"], App(Var(names["u1"]),
                           (Var(names["i1"]), Var(names["e1"])))),),
        Let(
            ((names["t2"], App(Var(names["u2"]),
                               (Var(names["i2"]), Var(names["e2"])))),),
            Lambda((), seq_of(App(Var(names["t1"]), ()),
                              App(Var(names["t2"]), ())))))

    body = Let(
        ((ns, _call("makeStringHashTable")),
         (names["i1"], _call("makeStringHashTable")),
         (names["e1"], _call("makeStringHashTable")),
         (names["i2"], _call("makeStringHashTable")),
         (names["e2"], _call("makeStringHashTable"))),
        seq_of(*stmts, instantiate))

    wiring = Lambda((names["import-table"], names["export-table"]), body)
    return Let(
        ((names["u1"], compile_expr(compound.first.expr)),
         (names["u2"], compile_expr(compound.second.expr))),
        wiring, compound.loc)


# ---------------------------------------------------------------------------
# The invoke transformation
# ---------------------------------------------------------------------------


def compile_invoke(invoke: InvokeExpr) -> Expr:
    """Transform an invoke into table construction plus a call."""
    with _obs_span("unit.compile", {
            "form": "invoke", "links": len(invoke.links)}):
        return _compile_invoke(invoke)


def _compile_invoke(invoke: InvokeExpr) -> Expr:
    avoid = set(free_vars(invoke))
    itab = fresh_like("invoke-imports", avoid)
    avoid.add(itab)
    etab = fresh_like("invoke-exports", avoid)
    avoid.add(etab)
    unit_var = fresh_like("unit-fn", avoid)

    stmts: list[Expr] = []
    for name, rhs in invoke.links:
        stmts.append(_call("hash-put!", Var(itab), _str(name),
                           _call("box", compile_expr(rhs))))
    run = App(App(Var(unit_var), (Var(itab), Var(etab))), ())
    return Let(
        ((unit_var, compile_expr(invoke.expr)),),
        Let(((itab, _call("makeStringHashTable")),
             (etab, _call("makeStringHashTable"))),
            seq_of(*stmts, run) if stmts else run),
        invoke.loc)
