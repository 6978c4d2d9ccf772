"""Big-step environment interpreter for the core language with units.

This is the library's fast execution path.  Units are evaluated to
:class:`~repro.lang.values.AtomicUnitValue` /
:class:`~repro.lang.values.CompoundUnitValue` objects, and invocation
follows the implementation model of Section 4.1.6: imported and
exported variables are first-class reference cells created externally
and threaded into the unit, whose "function body" fills the export
cells by evaluating its definitions.  The linking and cell wiring
(:meth:`~repro.lang.values.UnitValue.instantiate`,
:func:`~repro.lang.values.link_compound`,
:func:`~repro.lang.values.invoke_cells`) are shared with the compiled
backend's runtime.  Mutual recursion across unit boundaries works
because valuable definition expressions never dereference a cell until
they are applied, by which time linking has filled every cell.

The small-step *rewriting* semantics (the paper's formal account,
Figures 8 and 11) lives in :mod:`repro.lang.machine` and
:mod:`repro.units.reduce`; the test suite checks that both semantics
agree on every program in the corpus.
"""

from __future__ import annotations

from contextlib import nullcontext

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
from repro.lang.errors import RunTimeError
from repro.lang.prims import OutputPort, make_global_env
from repro import limits as _limits
from repro.obs import current as _obs_current
from repro.lang.values import (
    UNDEFINED,
    AtomicUnitValue,
    Cell,
    Closure,
    CompoundUnitValue,
    Env,
    Primitive,
    UnitValue,
    invoke_cells,
    is_true,
    link_compound,
)
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr


class Interpreter:
    """Evaluates core + UNITd expressions.

    The evaluator is properly tail-recursive: tail positions (procedure
    bodies, conditional branches, sequence tails, block bodies, and the
    final initialization expression of an invoked unit) are executed in
    a loop rather than by Python recursion, so unit programs may use
    unbounded loops written as tail calls.
    """

    def __init__(self, global_env: Env | None = None,
                 port: OutputPort | None = None,
                 with_prelude: bool = True):
        self.port = port if port is not None else OutputPort()
        self.global_env = (global_env if global_env is not None
                           else make_global_env(self.port))
        if with_prelude and global_env is None:
            from repro.lang.prelude import install_prelude

            install_prelude(self)

    # -- public API -----------------------------------------------------

    def eval(self, expr: Expr, env: Env | None = None) -> object:
        """Evaluate ``expr`` in ``env`` (default: the global environment)."""
        return self._eval(expr, env if env is not None else self.global_env)

    def run(self, text: str, origin: str = "<string>") -> object:
        """Parse and evaluate source text."""
        from repro.lang.parser import parse_program

        return self.eval(parse_program(text, origin))

    # -- core evaluation --------------------------------------------------

    def _eval(self, expr: Expr, env: Env) -> object:
        # Resource governance: each Python-level _eval activation is one
        # level of the budget's depth gauge (tail positions loop, so the
        # gauge tracks genuine non-tail nesting); each loop iteration is
        # one eval step.  Ungoverned runs pay one global-flag read.
        budget = _limits.current()
        if budget is None:
            return self._eval_loop(expr, env, None)
        budget.enter_frame(getattr(expr, "loc", None))
        try:
            return self._eval_loop(expr, env, budget)
        finally:
            budget.exit_frame()

    def _eval_loop(self, expr: Expr, env: Env,
                   budget: "_limits.Budget | None") -> object:
        while True:
            if budget is not None:
                budget.charge_eval(expr)
            if isinstance(expr, Lit):
                return expr.value
            if isinstance(expr, Var):
                return env.lookup(expr.name)
            if isinstance(expr, Lambda):
                return Closure(expr.params, expr.body, env)
            if isinstance(expr, If):
                expr = expr.then if is_true(self._eval(expr.test, env)) \
                    else expr.orelse
                continue
            if isinstance(expr, Seq):
                for sub in expr.exprs[:-1]:
                    self._eval(sub, env)
                expr = expr.exprs[-1]
                continue
            if isinstance(expr, Let):
                child = env.child()
                for name, rhs in expr.bindings:
                    child.define(name, self._eval(rhs, env))
                env, expr = child, expr.body
                continue
            if isinstance(expr, Letrec):
                child = env.child()
                cells = [child.define(name, UNDEFINED)
                         for name, _ in expr.bindings]
                for (name, rhs), cell in zip(expr.bindings, cells):
                    cell.set(self._eval(rhs, child))
                env, expr = child, expr.body
                continue
            if isinstance(expr, SetBang):
                env.lookup_cell(expr.name).set(self._eval(expr.expr, env))
                return None
            if isinstance(expr, App):
                fn = self._eval(expr.fn, env)
                args = [self._eval(arg, env) for arg in expr.args]
                if isinstance(fn, Primitive):
                    return self._apply_primitive(fn, args)
                if isinstance(fn, Closure):
                    env = self._bind_params(fn, args)
                    expr = fn.body
                    continue
                raise RunTimeError(f"not a procedure: {fn!r}")
            if isinstance(expr, UnitExpr):
                return AtomicUnitValue(expr, env)
            if isinstance(expr, CompoundExpr):
                return self._eval_compound(expr, env)
            if isinstance(expr, InvokeExpr):
                runs, result_env, init = self._prepare_invoke(expr, env)
                for pre_env, pre_init in runs:
                    self._eval(pre_init, pre_env)
                env, expr = result_env, init
                continue
            raise RunTimeError(f"cannot evaluate: {expr!r}")

    def apply(self, fn: object, args: list[object]) -> object:
        """Apply a procedure value to already-evaluated arguments."""
        if isinstance(fn, Primitive):
            return self._apply_primitive(fn, args)
        if isinstance(fn, Closure):
            return self._eval(fn.body, self._bind_params(fn, args))
        raise RunTimeError(f"not a procedure: {fn!r}")

    def _apply_primitive(self, fn: Primitive, args: list[object]) -> object:
        if fn.arity is not None and len(args) != fn.arity:
            raise RunTimeError(
                f"{fn.name}: expects {fn.arity} arguments, got {len(args)}")
        return fn.fn(*args)

    def _bind_params(self, fn: Closure, args: list[object]) -> Env:
        if len(args) != len(fn.params):
            raise RunTimeError(
                f"{fn.name}: expects {len(fn.params)} arguments, "
                f"got {len(args)}")
        child = fn.env.child()
        for name, value in zip(fn.params, args):
            child.define(name, value)
        return child

    # -- unit linking and invocation ------------------------------------

    def _eval_compound(self, expr: CompoundExpr, env: Env) -> CompoundUnitValue:
        col = _obs_current()
        if col is None:
            return self._eval_compound_inner(expr, env)
        # The span contains the constituents' own evaluation (nested
        # compounds form subtrees) and the per-clause link checks.
        with col.span("link.compound", {
                "imports": len(expr.imports),
                "exports": len(expr.exports)}):
            return self._eval_compound_inner(expr, env)

    def _eval_compound_inner(self, expr: CompoundExpr,
                             env: Env) -> CompoundUnitValue:
        first = self._eval(expr.first.expr, env)
        second = self._eval(expr.second.expr, env)
        return link_compound(expr.imports, expr.exports, first, second,
                             (expr.first.withs, expr.first.provides),
                             (expr.second.withs, expr.second.provides))

    def _prepare_invoke(self, expr: InvokeExpr, env: Env):
        col = _obs_current()
        if col is None:
            return self._prepare_invoke_inner(expr, env, None)
        # The span contains evaluating the invoked expression, the
        # link expressions, and instantiation (link.edge events).
        with col.span("unit.invoke", {"links": len(expr.links)}) as sp:
            return self._prepare_invoke_inner(expr, env, sp)

    def _prepare_invoke_inner(self, expr: InvokeExpr, env: Env, sp):
        unit = self._eval(expr.expr, env)
        supplied = {name: Cell(self._eval(rhs, env))
                    for name, rhs in expr.links}
        cells = invoke_cells(unit, supplied)
        if sp is not None:
            sp.annotate(imports=len(unit.imports),
                        exports=len(unit.exports))
        runs = unit.instantiate(self, cells)
        (last_env, last_init) = runs[-1]
        return runs[:-1], last_env, last_init

    def invoke(self, unit: UnitValue,
               imports: dict[str, object] | None = None) -> object:
        """Invoke a unit value directly from Python.

        ``imports`` maps import names to values; the result is the value
        of the unit's (last) initialization expression, as specified in
        Section 3.2.
        """
        cells = invoke_cells(unit, {name: Cell(value) for name, value
                                    in (imports or {}).items()})
        col = _obs_current()
        # The span contains instantiation (link.edge events) and the
        # initialization expressions' evaluation.
        with (nullcontext() if col is None else col.span("unit.invoke", {
                "imports": len(unit.imports),
                "exports": len(unit.exports)})):
            result: object = None
            for init_env, init in unit.instantiate(self, cells):
                result = self._eval(init, init_env)
            return result


def run_program(text: str, origin: str = "<string>") -> tuple[object, str]:
    """Parse, evaluate, and return ``(result, captured output)``.

    A convenience wrapper used throughout the examples and tests.
    """
    port = OutputPort()
    interp = Interpreter(port=port)
    result = interp.run(text, origin)
    return result, port.getvalue()
