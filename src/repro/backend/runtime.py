"""Runtime support for the Python-closure backend.

The generated module (:mod:`repro.backend.codegen`) is pure control
flow over cells and closures; everything with observable semantics —
application dispatch, budget charges, unit linking, prelude globals,
error messages — lives here, mirroring :mod:`repro.lang.interp`
behaviour for behaviour so the corpus differential sweep can hold the
two to byte-equal results.  Unit linking is not mirrored but shared:
compounds, their cell wiring and the invoke cells come from
:mod:`repro.lang.values`, and only the atomic unit (a compiled maker)
is this backend's own.

The trampoline: generated code returns a :class:`_Tail` thunk for any
application in tail position, and :meth:`Runtime.call` unwinds the
chain in a loop.  A governed infinite tail loop therefore exhausts its
``eval_steps`` budget (one charge per application, in :func:`_invoke`)
instead of blowing the host stack.
"""

from __future__ import annotations

from types import FunctionType

from repro import limits as _limits
from repro.lang.errors import RunTimeError
from repro.lang.prims import OutputPort, make_global_env
from repro.lang.values import (
    UNDEFINED,
    Cell,
    CompoundUnitValue,
    Primitive,
    UnitValue,
    invoke_cells,
    link_compound,
    pairs_to_list,
)
from repro.obs import current as _obs_current


class _Tail:
    """A deferred tail call, unwound by :meth:`Runtime.call`."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args


def _undef_error() -> RunTimeError:
    return RunTimeError("reference to undefined variable")


def _unbound_error(name: str) -> RunTimeError:
    return RunTimeError(f"unbound variable: {name}")


def _arity_error(name: str, arity: int, got: int) -> RunTimeError:
    return RunTimeError(f"{name}: expects {arity} arguments, got {got}")


#: The exec namespace for generated modules: no builtins, just the
#: cell/trampoline machinery and the error constructors the generated
#: raises use.  Everything else reaches the world through ``rt``.
BASE_NAMESPACE = {
    "__builtins__": {},
    "_Cell": Cell,
    "_undef": UNDEFINED,
    "_Tail": _Tail,
    "_undef_error": _undef_error,
    "_unbound_error": _unbound_error,
    "_arity_error": _arity_error,
}


def load_main(code) -> FunctionType:
    """Exec a generated code object and return its ``_main``."""
    namespace = dict(BASE_NAMESPACE)
    exec(code, namespace)
    return namespace["_main"]


def _invoke(rt: "Runtime", fn, args):
    """Apply once: one ``eval_steps`` charge, interp's error messages."""
    budget = rt.budget
    if budget is not None:
        budget.charge_eval()
    kind = type(fn)
    if kind is FunctionType:
        expected = fn.__code__.co_argcount
        if expected != len(args):
            raise RunTimeError(
                f"<anonymous>: expects {expected} arguments, "
                f"got {len(args)}")
        return fn(*args)
    if kind is Primitive:
        if fn.arity is not None and len(args) != fn.arity:
            raise RunTimeError(
                f"{fn.name}: expects {fn.arity} arguments, got {len(args)}")
        return fn.fn(*args)
    raise RunTimeError(f"not a procedure: {fn!r}")


class PyAtomicUnit(UnitValue):
    """An atomic unit compiled to a maker over its cell namespace."""

    def __init__(self, imports, exports, maker):
        self.imports = imports
        self.exports = exports
        self.maker = maker

    def instantiate(self, host: "Runtime", cells: dict[str, Cell]) -> list:
        """The run is the init thunk the maker returns."""
        return [self.maker(cells)]


# The prelude program is itself compiled by the backend, once per
# process, and run once per Runtime to close its procedures over that
# runtime's primitives (display/write capture the runtime's port).
_PRELUDE: tuple[FunctionType, tuple[str, ...]] | None = None


def _prelude_main() -> tuple[FunctionType, tuple[str, ...]]:
    global _PRELUDE
    if _PRELUDE is None:
        from repro.backend.codegen import generate_source
        from repro.lang.ast import App, Letrec, Var
        from repro.lang.prelude import prelude_bindings

        bindings = tuple(prelude_bindings())
        names = tuple(name for name, _ in bindings)
        program = Letrec(
            bindings, App(Var("list"), tuple(Var(n) for n in names)))
        code = compile(generate_source(program), "<pycode-prelude>", "exec")
        _PRELUDE = (load_main(code), names)
    return _PRELUDE


class Runtime:
    """One evaluation's world: port, globals, budget, trampoline."""

    def __init__(self, port: OutputPort | None = None):
        self.port = port if port is not None else OutputPort()
        self.globals: dict[str, Cell] = dict(
            make_global_env(self.port).frame)
        self.budget = _limits.current()
        main, names = _prelude_main()
        values = pairs_to_list(main(self))
        for name, value in zip(names, values):
            self.globals[name] = Cell(value)

    # -- variable plumbing used by generated code -------------------------

    def glob(self, name: str):
        return self.glob_cell(name).get()

    def glob_cell(self, name: str) -> Cell:
        cell = self.globals.get(name)
        if cell is None:
            raise RunTimeError(f"unbound variable: {name}")
        return cell

    def prim_fn(self, name: str):
        return self.globals[name].get().fn

    # -- application ------------------------------------------------------

    def call(self, fn, args):
        budget = self.budget
        if budget is None:
            result = _invoke(self, fn, args)
            while type(result) is _Tail:
                result = _invoke(self, result.fn, result.args)
            return result
        budget.enter_frame()
        try:
            result = _invoke(self, fn, args)
            while type(result) is _Tail:
                result = _invoke(self, result.fn, result.args)
            return result
        finally:
            budget.exit_frame()

    # -- units ------------------------------------------------------------

    def atomic_unit(self, imports, exports, maker) -> PyAtomicUnit:
        return PyAtomicUnit(imports, exports, maker)

    def compound_unit(self, imports, exports, first, second,
                      first_withs, first_provides,
                      second_withs, second_provides) -> CompoundUnitValue:
        clauses = (first_withs, first_provides), \
            (second_withs, second_provides)
        col = _obs_current()
        if col is None:
            return link_compound(imports, exports, first, second, *clauses)
        with col.span("link.compound", {
                "imports": len(imports), "exports": len(exports)}):
            return link_compound(imports, exports, first, second, *clauses)

    def _prepare(self, unit, links):
        cells = invoke_cells(unit, {name: Cell(value)
                                    for name, value in links})
        return unit.instantiate(self, cells)

    def invoke_tail(self, unit, links) -> _Tail:
        """Prepare an invoke; the last init runs on the caller's
        trampoline (the interpreter's span also closes before the
        initialization expressions run)."""
        col = _obs_current()
        if col is None:
            runs = self._prepare(unit, links)
        else:
            with col.span("unit.invoke", {"links": len(links)}) as sp:
                runs = self._prepare(unit, links)
                sp.annotate(imports=len(unit.imports),
                            exports=len(unit.exports))
        for init in runs[:-1]:
            self.call(init, ())
        return _Tail(runs[-1], ())

    def invoke(self, unit, links):
        tail = self.invoke_tail(unit, links)
        return self.call(tail.fn, tail.args)
