"""A small-step rewriting machine for the core language with units.

This module realizes the paper's formal semantics: "evaluation is the
process of rewriting a non-value expression within a program to an
equivalent expression, repeating this process until the whole program
is rewritten to a value" (Section 4).  The unit rules are those of
Figure 11, implemented in :mod:`repro.units.reduce`; the core rules are
the standard ones for Scheme [Felleisen–Hieb], using the
*letrec-as-store* formulation: the program state is

.. code-block:: text

   (letrec val x1 = e1 ... val xn = en in e)

where the bindings play the role of the store.  Dereferencing a
store-bound variable copies its (value) syntax; ``set!`` updates the
binding; a ``letrec`` reached in evaluation position is alpha-renamed
and hoisted into the store.  The invoke rule therefore composes
naturally: ``invoke`` rewrites to a ``letrec``, which hoists, after
which the unit's definitions evaluate in dependency-free order exactly
as Figure 11 prescribes.

Syntactic values are literals, ``lambda`` expressions, and ``unit``
expressions.  Runtime data produced by primitives (pairs, boxes, hash
tables) is carried inside :class:`~repro.lang.ast.Lit` nodes so that
terms remain printable; this is the standard trick of treating
primitive data as constants of the calculus.

The machine exists for fidelity and for producing reduction *traces*
(Figures 8 and 11 are reproduced by printing them); the big-step
interpreter in :mod:`repro.lang.interp` is the fast path.  The test
suite checks the two against each other on the program corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.lang.errors import RunTimeError
from repro.lang.prims import OutputPort, make_global_env
from repro import limits as _limits
from repro.obs import current as _obs_current
from repro.lang.subst import (
    binder_names,
    fresh_like,
    free_vars,
    scoped_children,
    substitute,
)
from repro.lang.values import Primitive, is_true, to_write_string
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr
from repro.units.reduce import merge_compound, reduce_invoke


class _UndefinedMark:
    """Marker carried in a store location before its definition runs."""

    def __repr__(self) -> str:
        return "#<undefined>"


_UNDEFINED_MARK = _UndefinedMark()


def is_value(expr: Expr) -> bool:
    """Syntactic values: literals, procedures, and atomic units."""
    return isinstance(expr, (Lit, Lambda, UnitExpr))


def _require_unit(value: Expr, who: str) -> None:
    """Reject a non-unit value in unit position, written the way the
    value-level evaluators write it (:func:`repro.lang.values
    ._require_unit`): a literal as ``write`` shows it, a procedure as
    ``#<procedure:<anonymous>>``."""
    if isinstance(value, UnitExpr):
        return
    written = (to_write_string(value.value) if isinstance(value, Lit)
               else "#<procedure:<anonymous>>")
    raise RunTimeError(f"{who}: expected a unit, got {written}")


@dataclass
class MachineState:
    """A program state: store bindings, control expression, output."""

    store: list[tuple[str, Expr]]
    control: Expr
    output: OutputPort = field(default_factory=OutputPort)

    def to_expr(self) -> Expr:
        """Render the state as the single letrec term it denotes."""
        if not self.store:
            return self.control
        return Letrec(tuple(self.store), self.control)


#: Reductions allowed when neither the caller nor an active budget
#: bounds the machine.  Accidental divergence still fails cleanly.
DEFAULT_MAX_STEPS = 1_000_000


class Machine:
    """Drives the small-step semantics.

    ``max_steps`` bounds the number of reductions (the machine is used
    on terminating figure programs; the bound turns accidental
    divergence into a clean error).  When ``max_steps`` is ``None`` the
    bound comes from the active :class:`repro.limits.Budget`'s
    ``machine_steps`` cap, falling back to :data:`DEFAULT_MAX_STEPS`
    when execution is ungoverned.  Every :meth:`step` — however the
    machine is driven — also charges the active budget, so externally
    stepped runs (the CLI's ``demo``) are governed too.
    """

    def __init__(self, max_steps: int | None = None):
        self.max_steps = max_steps
        self._prims = self._build_prim_table()
        self._prim_names = frozenset(self._prims)

    @staticmethod
    def _build_prim_table() -> dict[str, Primitive]:
        table: dict[str, Primitive] = {}
        env = make_global_env(OutputPort())
        for name, cell in env.frame.items():
            value = cell.value
            if isinstance(value, Primitive):
                table[name] = value
        return table

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def load(self, expr: Expr) -> MachineState:
        """Create an initial state for a closed program."""
        return MachineState([], expr)

    def step(self, state: MachineState) -> bool:
        """Perform one reduction; returns ``False`` when already final.

        A state is final when every store binding and the control
        expression are values.
        """
        budget = _limits.current()
        col = _obs_current()
        for index, (name, rhs) in enumerate(state.store):
            if not is_value(rhs):
                # Charge only when a reduction actually fires: a final
                # state costs nothing, so a budget of exactly N steps
                # lets an N-step program finish.
                if budget is not None:
                    budget.charge_machine(rhs)
                new_rhs = self._reduce_inside(rhs, state)
                state.store[index] = (name, new_rhs)
                if col is not None:
                    col.emit("reduce.step", {"where": "store", "name": name})
                return True
        if is_value(state.control):
            return False
        if budget is not None:
            budget.charge_machine(state.control)
        state.control = self._reduce_inside(state.control, state)
        if col is not None:
            col.emit("reduce.step", {"where": "control"})
        return True

    def run(self, expr: Expr) -> MachineState:
        """Reduce ``expr`` to a final state."""
        state = self.load(expr)
        col = _obs_current()
        if col is None:
            return self._drive(state)
        # One span per machine run: every reduce.step (and the
        # reduce.invoke/reduce.compound rule spans) nests under it.
        with col.span("reduce.machine", {"driver": "run"}):
            return self._drive(state)

    def _drive(self, state: MachineState) -> MachineState:
        limit = self._effective_max_steps()
        if limit is None:
            # The active budget's machine_steps cap governs (charged
            # inside step(), raising BudgetExceeded on exhaustion).
            while self.step(state):
                pass
            return state
        for _ in range(limit):
            if not self.step(state):
                return state
        raise RunTimeError("machine: step budget exhausted")

    def _effective_max_steps(self) -> int | None:
        """The local reduction bound, or ``None`` when the active
        budget's ``machine_steps`` cap is the (only) governor."""
        if self.max_steps is not None:
            return self.max_steps
        budget = _limits.current()
        if budget is not None and budget.machine_steps is not None:
            return None
        return DEFAULT_MAX_STEPS

    def eval(self, expr: Expr) -> Expr:
        """Reduce to a final state and return the (value) control term."""
        return self.run(expr).control

    def trace(self, expr: Expr, limit: int = 200) -> list[Expr]:
        """Return the sequence of whole-program terms along a reduction.

        Used by the figure reproductions to display rewriting in action.
        """
        state = self.load(expr)
        col = _obs_current()
        if col is None:
            return self._trace_terms(state, limit)
        with col.span("reduce.machine", {"driver": "trace"}):
            return self._trace_terms(state, limit)

    def _trace_terms(self, state: MachineState, limit: int) -> list[Expr]:
        terms = [state.to_expr()]
        for _ in range(limit):
            if not self.step(state):
                return terms
            terms.append(state.to_expr())
        raise RunTimeError("machine: trace limit exhausted")

    # ------------------------------------------------------------------
    # One-step reduction inside an expression (leftmost-outermost)
    # ------------------------------------------------------------------

    def _reduce_inside(self, expr: Expr, state: MachineState) -> Expr:
        """Reduce the leftmost-innermost redex of a non-value ``expr``."""
        if isinstance(expr, Var):
            return self._deref(expr.name, state)
        if isinstance(expr, App):
            parts = [expr.fn, *expr.args]
            for index, part in enumerate(parts):
                if not is_value(part):
                    parts[index] = self._reduce_inside(part, state)
                    return App(parts[0], tuple(parts[1:]), expr.loc)
            return self._apply(expr, state)
        if isinstance(expr, If):
            if not is_value(expr.test):
                return If(self._reduce_inside(expr.test, state),
                          expr.then, expr.orelse, expr.loc)
            if not isinstance(expr.test, Lit):
                # procedures and units are true
                return expr.then
            return expr.then if is_true(expr.test.value) else expr.orelse
        if isinstance(expr, Seq):
            if not is_value(expr.exprs[0]):
                first = self._reduce_inside(expr.exprs[0], state)
                return Seq((first,) + expr.exprs[1:], expr.loc)
            rest = expr.exprs[1:]
            if not rest:
                return expr.exprs[0]
            return seq_of(*rest)
        if isinstance(expr, Let):
            for index, (name, rhs) in enumerate(expr.bindings):
                if not is_value(rhs):
                    bindings = list(expr.bindings)
                    bindings[index] = (name, self._reduce_inside(rhs, state))
                    return Let(tuple(bindings), expr.body, expr.loc)
            mapping = {name: rhs for name, rhs in expr.bindings}
            return substitute(expr.body, mapping)
        if isinstance(expr, Letrec):
            return self._hoist_letrec(expr, state)
        if isinstance(expr, SetBang):
            if not is_value(expr.expr):
                return SetBang(expr.name,
                               self._reduce_inside(expr.expr, state),
                               expr.loc)
            return self._assign(expr.name, expr.expr, state)
        if isinstance(expr, CompoundExpr):
            if not is_value(expr.first.expr):
                first = self._reduce_inside(expr.first.expr, state)
                return CompoundExpr(
                    expr.imports, expr.exports,
                    LinkClause(first, expr.first.withs, expr.first.provides),
                    expr.second, expr.loc)
            if not is_value(expr.second.expr):
                second = self._reduce_inside(expr.second.expr, state)
                return CompoundExpr(
                    expr.imports, expr.exports, expr.first,
                    LinkClause(second, expr.second.withs,
                               expr.second.provides),
                    expr.loc)
            first, second = expr.first.expr, expr.second.expr
            _require_unit(first, "compound")
            _require_unit(second, "compound")
            return merge_compound(expr, first, second)
        if isinstance(expr, InvokeExpr):
            if not is_value(expr.expr):
                return InvokeExpr(self._reduce_inside(expr.expr, state),
                                  expr.links, expr.loc)
            for index, (name, rhs) in enumerate(expr.links):
                if not is_value(rhs):
                    links = list(expr.links)
                    links[index] = (name, self._reduce_inside(rhs, state))
                    return InvokeExpr(expr.expr, tuple(links), expr.loc)
            _require_unit(expr.expr, "invoke")
            return reduce_invoke(expr.expr, dict(expr.links))
        raise RunTimeError(f"machine: no rule for {expr!r}")

    # ------------------------------------------------------------------
    # Store interaction
    # ------------------------------------------------------------------

    def _store_lookup(self, name: str,
                      state: MachineState) -> tuple[int, Expr] | None:
        for index in range(len(state.store) - 1, -1, -1):
            if state.store[index][0] == name:
                return index, state.store[index][1]
        return None

    def _deref(self, name: str, state: MachineState) -> Expr:
        hit = self._store_lookup(name, state)
        if hit is not None:
            _, rhs = hit
            if (isinstance(rhs, Lit) and rhs.value is _UNDEFINED_MARK) \
                    or not is_value(rhs):
                raise RunTimeError(
                    f"reference to variable '{name}' before its "
                    f"definition is evaluated")
            return rhs
        if name in self._prims:
            # Primitive names are constants of the calculus; leave them
            # wrapped so application can dispatch on them.
            return Lit(self._prims[name])
        raise RunTimeError(f"unbound variable: {name}")

    def _assign(self, name: str, value: Expr, state: MachineState) -> Expr:
        hit = self._store_lookup(name, state)
        if hit is None:
            raise RunTimeError(f"set!: unbound variable: {name}")
        index, _ = hit
        state.store[index] = (name, value)
        return Lit(None)

    def _hoist_letrec(self, expr: Letrec, state: MachineState) -> Expr:
        """Merge a letrec into the store, renaming its bindings fresh.

        Locations are allocated holding the *undefined* marker, and the
        binding expressions become explicit assignments sequenced in
        front of the body — so a right-hand side that dereferences a
        later binding observes undefinedness and errors, matching the
        letrec semantics of the interpreter.
        """
        taken = {name for name, _ in state.store}
        taken |= self._prim_names
        taken |= free_vars(expr)
        renames: dict[str, Expr] = {}
        fresh_names: list[str] = []
        for name, _ in expr.bindings:
            if name in taken:
                fresh = fresh_like(name, taken)
            else:
                fresh = name
            taken.add(fresh)
            fresh_names.append(fresh)
            if fresh != name:
                renames[name] = Var(fresh)
        assigns: list[Expr] = []
        for fresh, (name, rhs) in zip(fresh_names, expr.bindings):
            state.store.append((fresh, Lit(_UNDEFINED_MARK)))
            assigns.append(SetBang(fresh, substitute(rhs, renames)))
        return seq_of(*assigns, substitute(expr.body, renames))

    # ------------------------------------------------------------------
    # Application: beta and delta rules
    # ------------------------------------------------------------------

    def _apply(self, expr: App, state: MachineState) -> Expr:
        fn = expr.fn
        if isinstance(fn, Lambda):
            if len(expr.args) != len(fn.params):
                raise RunTimeError(
                    f"procedure expects {len(fn.params)} arguments, "
                    f"got {len(expr.args)}")
            mapping = dict(zip(fn.params, expr.args))
            # Assignment conversion: a parameter the body assigns needs
            # a store location, not a substituted value.  Bind those
            # parameters with a letrec (which hoists into the store)
            # and substitute only the rest.
            assigned = _assigned_params(fn.body, set(fn.params))
            if assigned:
                boxed = tuple((name, mapping.pop(name))
                              for name in fn.params if name in assigned)
                return Letrec(boxed, substitute(fn.body, mapping))
            return substitute(fn.body, mapping)
        if isinstance(fn, Lit) and isinstance(fn.value, Primitive):
            return self._delta(fn.value, expr.args, state)
        raise RunTimeError(f"not a procedure: {fn!r}")

    def _delta(self, prim: Primitive, args: tuple[Expr, ...],
               state: MachineState) -> Expr:
        if prim.arity is not None and len(args) != prim.arity:
            raise RunTimeError(
                f"{prim.name}: expects {prim.arity} arguments, "
                f"got {len(args)}")
        raw_args: list[object] = []
        for arg in args:
            if isinstance(arg, Lit):
                raw_args.append(arg.value)
            else:
                raise RunTimeError(
                    f"{prim.name}: cannot apply primitive to "
                    f"non-constant value")
        if prim.name in ("display", "write", "newline"):
            port_prims = make_global_env(state.output)
            actual = port_prims.lookup(prim.name)
            assert isinstance(actual, Primitive)
            return Lit(actual.fn(*raw_args))
        return Lit(prim.fn(*raw_args))


def _assigned_params(body: Expr, params: set[str]) -> set[str]:
    """Parameters of an enclosing lambda that ``body`` assigns.

    Shadowing binders cut the search; unit forms bind their imports and
    definitions, so assignments inside them target their own scope.
    """
    out: set[str] = set()

    def walk(expr: Expr, live: set[str]) -> None:
        if not live:
            return
        if isinstance(expr, SetBang) and expr.name in live:
            out.add(expr.name)
        inner = live.difference(binder_names(expr))
        for kid, scoped in scoped_children(expr):
            walk(kid, inner if scoped else live)

    walk(body, set(params))
    return out


def machine_eval(expr: Expr,
                 max_steps: int | None = None) -> tuple[Expr, str]:
    """Run ``expr`` on a fresh machine; return final value and output."""
    machine = Machine(max_steps)
    state = machine._drive(machine.load(expr))
    return state.control, state.output.getvalue()
