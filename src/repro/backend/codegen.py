"""Lowering checked unit programs to Python source.

Figure 12 compiles a unit to "a function over shared import/export
cells"; here the target is the host language itself.  Every unit body
becomes a generated Python function taking the cell namespace, every
lambda becomes a real Python closure, and applications run through a
trampoline (:class:`repro.backend.runtime._Tail`) so governed tail
loops exhaust their :class:`~repro.limits.Budget` instead of the host
stack.

The generator is a deterministic function of the (loc-free) program
shape: a fresh counter names every temporary, and the only external
names baked into the source are the fixed primitive/prelude table and
the handful of runtime helpers injected by
:func:`repro.backend.runtime.load_main`.  That determinism is what
makes the emitted source safe to reuse per program text (the parse
entry's code) and to cache on disk content-addressed on the program's
``tk2`` digest, under a directory named for this module's and the
runtime's sources (:func:`repro.units.cache.cached_pycode`).

Compilation strategy, node by node:

* variables — locals read directly; known, never-assigned globals are
  hoisted to ``_main``'s prologue; unknown names compile to a raise
  *at the use site*, preserving the interpreter's lazy failure for
  dead code.  ``set!``-assigned binders live in
  :class:`~repro.lang.values.Cell` boxes read through a temporary, so
  a later assignment cannot overtake the read.  Only a read that can
  see an unfilled cell checks for ``UNDEFINED`` (the paper's
  "reference to undefined variable"): every ``letrec`` read, and every
  unit import/definition read in a program with a non-valuable unit
  (a lenient forward reference).  ``let``/``lambda`` boxes start
  filled.  When every unit of the program has valuable definitions
  (Section 4.1.1, :mod:`repro.units.valuable`), with any primitive
  name the program rebinds counted as user code, no definition runs
  user code or reads a unit variable outside a ``lambda``, so every
  cell of an invocation is filled before anything can read it: unit
  cells are then read unchecked, and in place when never assigned.
  The verdict comes from the program itself, so the source stays a
  function of its digest;
* applications — a call in tail position returns a ``_Tail`` thunk for
  the caller's trampoline; non-tail calls go through ``rt.call``.  A
  call whose head is a known, unshadowed, never-assigned primitive is
  emitted as a direct call to the hoisted primitive function (arity
  mismatches become a compile-time-emitted raise with the
  interpreter's message);
* units — ``(unit ...)`` compiles to a maker function over a cell
  namespace: imports and exports draw their cells from the namespace,
  private definitions get fresh cells (plain Python locals, whose
  closure cells give letrec semantics, when the program is valuable
  and the name is never assigned), everything is bound before any
  right-hand side runs, and the init expression is wrapped in a thunk
  the invoker trampolines.  A unit whose enclosing scope binds nothing
  gets its maker hoisted into ``_main``'s prologue, one per distinct
  unit digest, so identical copies compile once;
* compounds/invokes — delegated to the runtime, which mirrors the
  interpreter's linking semantics (and its error messages) exactly.
"""

from __future__ import annotations

import itertools
import math

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
from repro.lang.prelude import PRELUDE_NAMES
from repro.lang.prims import OutputPort, make_global_env
from repro.lang.terms import try_term_key
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr
from repro.units.valuable import program_bindings, unvaluable_definition

#: Primitive name -> arity (None = variadic), from the one true table.
PRIM_ARITY: dict[str, int | None] = {
    name: cell.get().arity
    for name, cell in make_global_env(OutputPort()).frame.items()
}

#: Every name the runtime installs globally: primitives plus prelude.
KNOWN_GLOBALS: frozenset[str] = frozenset(PRIM_ARITY) | set(PRELUDE_NAMES)


def _py_literal(value: object) -> str:
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return f"float({str(value)!r})"
    return repr(value)


# Scope entries are ``(kind, py)``.  Kinds: ``"l"`` a Python local;
# ``"v"`` a cell that is filled and never assigned, read in place;
# ``"b"`` an assigned cell that starts filled, read through a
# temporary; ``"c"`` a cell that may be read unfilled, read through a
# temporary and checked.


class _Gen:
    """One statement stream, one temp counter, one hoist table."""

    def __init__(self, program: Expr):
        self.program = program
        self._n = itertools.count()
        self.body: list[str] = []
        self.hoisted_globals: dict[str, str] = {}
        self.hoisted_prims: dict[str, str] = {}
        self.makers: list[str] = []
        self.maker_names: dict[str, str] = {}
        # ``assigned`` over-approximates which binders need Cell boxes.
        # ``valuable`` is the strict checker's verdict, the unit rule
        # with each unit's rebound primitives unstable: when it holds,
        # no unit cell is read unfilled.  An undefined export (a check
        # error) keeps the checks too.
        self.assigned, units = program_bindings(program)
        self.valuable = all(set(unit.exports) <= set(unit.defined)
                            and unvaluable_definition(unit, rebound) is None
                            for unit, rebound in units)

    # -- plumbing ---------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        return f"_{prefix}{next(self._n)}"

    def out(self, indent: int, text: str) -> None:
        self.body.append("    " * indent + text)

    def module(self) -> str:
        value = self.compile_expr(self.program, {}, 1)
        prologue = ["def _main(rt):"]
        for name, py in self.hoisted_globals.items():
            prologue.append(f"    {py} = rt.glob({name!r})")
        for name, py in self.hoisted_prims.items():
            prologue.append(f"    {py} = rt.prim_fn({name!r})")
        self.body.append(f"    return {value}")
        return "\n".join(prologue + self.makers + self.body) + "\n"

    # -- variable access --------------------------------------------------

    def _read_var(self, name: str, scope: dict, indent: int) -> str:
        binding = scope.get(name)
        if binding is not None:
            kind, py = binding
            if kind == "l":
                return py
            if kind == "v":
                return f"{py}.value"
            tmp = self.fresh("t")
            self.out(indent, f"{tmp} = {py}.value")
            if kind == "c":
                self.out(indent, f"if {tmp} is _undef:")
                self.out(indent + 1, "raise _undef_error()")
            return tmp
        if name in KNOWN_GLOBALS:
            if name not in self.assigned:
                py = self.hoisted_globals.get(name)
                if py is None:
                    py = self.fresh("g")
                    self.hoisted_globals[name] = py
                return py
            tmp = self.fresh("t")
            self.out(indent, f"{tmp} = rt.glob({name!r})")
            return tmp
        # Unknown free variable: fail when (and only when) executed.
        self.out(indent, f"raise _unbound_error({name!r})")
        return "None"

    def _block(self, e: Let | Letrec, scope: dict, indent: int) -> dict:
        """Emit a ``let``/``letrec``'s bindings; the body's scope."""
        inner = dict(scope)
        if isinstance(e, Let):
            values = [self.compile_expr(rhs, scope, indent)
                      for _, rhs in e.bindings]
            for (name, _), value in zip(e.bindings, values):
                if name in self.assigned:
                    cell = self.fresh("c")
                    self.out(indent, f"{cell} = _Cell({value})")
                    inner[name] = ("b", cell)
                else:
                    local = self.fresh("v")
                    self.out(indent, f"{local} = {value}")
                    inner[name] = ("l", local)
            return inner
        cells = []
        for name, _ in e.bindings:
            cell = self.fresh("c")
            self.out(indent, f"{cell} = _Cell()")
            inner[name] = ("c", cell)
            cells.append(cell)
        for (_, rhs), cell in zip(e.bindings, cells):
            value = self.compile_expr(rhs, inner, indent)
            self.out(indent, f"{cell}.value = {value}")
        return inner

    # -- expressions (non-tail: emit statements, return a py-expr) --------

    def compile_expr(self, e: Expr, scope: dict, indent: int) -> str:
        if isinstance(e, Lit):
            return _py_literal(e.value)
        if isinstance(e, Var):
            return self._read_var(e.name, scope, indent)
        if isinstance(e, Lambda):
            return self._lambda(e, scope, indent)
        if isinstance(e, If):
            tmp = self.fresh("t")
            test = self.compile_expr(e.test, scope, indent)
            self.out(indent, f"if {test} is not False:")
            then = self.compile_expr(e.then, scope, indent + 1)
            self.out(indent + 1, f"{tmp} = {then}")
            self.out(indent, "else:")
            other = self.compile_expr(e.orelse, scope, indent + 1)
            self.out(indent + 1, f"{tmp} = {other}")
            return tmp
        if isinstance(e, Seq):
            for sub in e.exprs[:-1]:
                self.compile_expr(sub, scope, indent)
            return self.compile_expr(e.exprs[-1], scope, indent)
        if isinstance(e, (Let, Letrec)):
            inner = self._block(e, scope, indent)
            return self.compile_expr(e.body, inner, indent)
        if isinstance(e, SetBang):
            self._setbang(e, scope, indent)
            return "None"
        if isinstance(e, App):
            return self._app(e, scope, indent, tail=False)
        if isinstance(e, UnitExpr):
            return self._unit(e, scope, indent)
        if isinstance(e, CompoundExpr):
            first = self.compile_expr(e.first.expr, scope, indent)
            second = self.compile_expr(e.second.expr, scope, indent)
            tmp = self.fresh("t")
            self.out(indent,
                     f"{tmp} = rt.compound_unit({e.imports!r}, "
                     f"{e.exports!r}, {first}, {second}, "
                     f"{e.first.withs!r}, {e.first.provides!r}, "
                     f"{e.second.withs!r}, {e.second.provides!r})")
            return tmp
        if isinstance(e, InvokeExpr):
            unit, links = self._invoke_parts(e, scope, indent)
            tmp = self.fresh("t")
            self.out(indent, f"{tmp} = rt.invoke({unit}, {links})")
            return tmp
        raise TypeError(f"pycode: cannot compile {e!r}")

    # -- expressions in tail position (emit a return) ---------------------

    def compile_tail(self, e: Expr, scope: dict, indent: int) -> None:
        if isinstance(e, If):
            test = self.compile_expr(e.test, scope, indent)
            self.out(indent, f"if {test} is not False:")
            self.compile_tail(e.then, scope, indent + 1)
            self.out(indent, "else:")
            self.compile_tail(e.orelse, scope, indent + 1)
            return
        if isinstance(e, Seq):
            for sub in e.exprs[:-1]:
                self.compile_expr(sub, scope, indent)
            self.compile_tail(e.exprs[-1], scope, indent)
            return
        if isinstance(e, (Let, Letrec)):
            self.compile_tail(e.body, self._block(e, scope, indent), indent)
            return
        if isinstance(e, App):
            self._app(e, scope, indent, tail=True)
            return
        if isinstance(e, InvokeExpr):
            unit, links = self._invoke_parts(e, scope, indent)
            self.out(indent, f"return rt.invoke_tail({unit}, {links})")
            return
        value = self.compile_expr(e, scope, indent)
        self.out(indent, f"return {value}")

    # -- the composite forms ----------------------------------------------

    def _lambda(self, e: Lambda, scope: dict, indent: int,
                fn: str | None = None) -> str:
        fn = fn or self.fresh("f")
        # Duplicate parameter names are legal in the calculus (the last
        # one wins, as with sequential env.define); Python forbids them,
        # so every position gets a fresh name and the scope keeps the
        # rightmost binding for each source name.
        params = [(p, self.fresh("v")) for p in e.params]
        self.out(indent, f"def {fn}({', '.join(py for _, py in params)}):")
        inner = dict(scope)
        for name, py in params:
            if name in self.assigned:
                cell = self.fresh("c")
                self.out(indent + 1, f"{cell} = _Cell({py})")
                inner[name] = ("b", cell)
            else:
                inner[name] = ("l", py)
        self.compile_tail(e.body, inner, indent + 1)
        return fn

    def _setbang(self, e: SetBang, scope: dict, indent: int) -> None:
        binding = scope.get(e.name)
        if binding is None:
            # The interpreter looks the cell up before evaluating the
            # value — an unbound target fails first.  Mirror that.
            cell = self.fresh("t")
            self.out(indent, f"{cell} = rt.glob_cell({e.name!r})")
            value = self.compile_expr(e.expr, scope, indent)
            self.out(indent, f"{cell}.value = {value}")
            return
        kind, py = binding
        assert kind in "bc", f"set! target {e.name} not boxed"
        value = self.compile_expr(e.expr, scope, indent)
        self.out(indent, f"{py}.value = {value}")

    def _args_tuple(self, args: list[str]) -> str:
        if len(args) == 1:
            return f"({args[0]},)"
        return "(" + ", ".join(args) + ")"

    def _app(self, e: App, scope: dict, indent: int, tail: bool) -> str:
        fn = e.fn
        if (isinstance(fn, Var) and fn.name not in scope
                and fn.name in PRIM_ARITY
                and fn.name not in self.assigned):
            arity = PRIM_ARITY[fn.name]
            args = [self.compile_expr(a, scope, indent) for a in e.args]
            if arity is not None and arity != len(args):
                self.out(indent,
                         f"raise _arity_error({fn.name!r}, {arity}, "
                         f"{len(args)})")
                if tail:
                    self.out(indent, "return None")
                return "None"
            py = self.hoisted_prims.get(fn.name)
            if py is None:
                py = self.fresh("p")
                self.hoisted_prims[fn.name] = py
            call = f"{py}({', '.join(args)})"
            if tail:
                self.out(indent, f"return {call}")
                return "None"
            tmp = self.fresh("t")
            self.out(indent, f"{tmp} = {call}")
            return tmp
        fn_value = self.compile_expr(fn, scope, indent)
        args = [self.compile_expr(a, scope, indent) for a in e.args]
        if tail:
            self.out(indent,
                     f"return _Tail({fn_value}, {self._args_tuple(args)})")
            return "None"
        tmp = self.fresh("t")
        self.out(indent,
                 f"{tmp} = rt.call({fn_value}, {self._args_tuple(args)})")
        return tmp

    def _unit(self, e: UnitExpr, scope: dict, indent: int) -> str:
        call = f"rt.atomic_unit({e.imports!r}, {e.exports!r}, "
        if scope:
            maker = self.fresh("u")
            self._maker(e, scope, indent, maker)
            return f"{call}{maker})"
        # Nothing in scope: the maker closes over ``_main``'s prologue
        # only, so it is hoisted there, once per distinct unit.
        key = try_term_key(e)
        maker = self.maker_names.get(key) if key is not None else None
        if maker is None:
            maker = self.fresh("u")
            if key is not None:
                self.maker_names[key] = maker
            body, self.body = self.body, []
            self._maker(e, {}, 1, maker)
            self.makers.extend(self.body)
            self.body = body
        return f"{call}{maker})"

    def _unit_cell(self, name: str) -> str:
        if not self.valuable:
            return "c"
        return "b" if name in self.assigned else "v"

    def _maker(self, e: UnitExpr, scope: dict, indent: int,
               maker: str) -> None:
        self.out(indent, f"def {maker}(_cells):")
        inner = dict(scope)
        exported = set(e.exports)
        for name in e.imports:
            cell = self.fresh("c")
            self.out(indent + 1, f"{cell} = _cells[{name!r}]")
            inner[name] = (self._unit_cell(name), cell)
        targets = []
        for name, _ in e.defns:
            if (self.valuable and name not in exported
                    and name not in self.assigned):
                inner[name] = ("l", self.fresh("v"))
            else:
                cell = self.fresh("c")
                if name in exported:
                    self.out(indent + 1, f"{cell} = _cells[{name!r}]")
                else:
                    self.out(indent + 1, f"{cell} = _Cell()")
                inner[name] = (self._unit_cell(name), cell)
            targets.append(inner[name])
        # Every cell is bound before any right-hand side runs: mutual
        # recursion across the unit body, exactly as in Figure 12.
        for (_, rhs), (kind, py) in zip(e.defns, targets):
            if kind == "l" and isinstance(rhs, Lambda):
                # A private procedure is defined under its local name.
                self._lambda(rhs, inner, indent + 1, py)
                continue
            value = self.compile_expr(rhs, inner, indent + 1)
            target = py if kind == "l" else f"{py}.value"
            self.out(indent + 1, f"{target} = {value}")
        init = self.fresh("f")
        self.out(indent + 1, f"def {init}():")
        self.compile_tail(e.init, inner, indent + 2)
        self.out(indent + 1, f"return {init}")

    def _invoke_parts(self, e: InvokeExpr, scope: dict,
                      indent: int) -> tuple[str, str]:
        unit = self.compile_expr(e.expr, scope, indent)
        pairs = [(name, self.compile_expr(rhs, scope, indent))
                 for name, rhs in e.links]
        links = ("("
                 + "".join(f"({name!r}, {value}), "
                           for name, value in pairs)
                 + ")")
        return unit, links


def generate_source(program: Expr) -> str:
    """The program as the text of one Python module defining ``_main``.

    ``_main(rt)`` evaluates the program against a
    :class:`repro.backend.runtime.Runtime` and returns its value.  The
    output is deterministic in the program's shape (locs excluded), so
    equal ``tk2`` digests yield byte-identical source.
    """
    return _Gen(program).module()
