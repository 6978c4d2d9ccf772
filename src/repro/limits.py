"""Resource governance: unified budgets, deadlines, and exhaustion.

The paper's dynamic-linking story (Section 6's ``MakeIPB`` plug-in)
assumes the host survives a misbehaving unit.  Before this module the
library's limits were ad-hoc — the machine had a hard-coded step
budget, type expansion kept private fuel, the interpreter had none at
all — and a looping or deeply recursive program killed the whole
process.  A :class:`Budget` unifies them: one object carries the caps
for every governed resource, travels with the :mod:`contextvars`
context, and turns exhaustion into one structured, catchable error.

Governed resources (each cap is optional; ``None`` means unlimited):

* ``eval_steps`` — big-step interpreter loop iterations,
* ``machine_steps`` — small-step machine reductions,
* ``subst_nodes`` — AST nodes visited by capture-avoiding substitution
  (both the untyped and the typed substitution modules),
* ``expand_fuel`` — abbreviation unfoldings in Figure 18 type
  expansion (replacing that module's private fuel constant),
* ``max_depth`` — a depth gauge: reader nesting and interpreter
  recursion (this is what turns a crafted-depth input into a clean
  :class:`BudgetExceeded` instead of a :class:`RecursionError`),
* ``deadline_s`` — wall-clock seconds from budget activation.

Like the observability layer, governance is *off by default* and costs
nearly nothing when off: every instrumentation point guards with
:func:`current`, which is a module-flag check (a plain global read)
followed by one contextvar read only when some scope is active
anywhere in the process.

Exhaustion raises :class:`BudgetExceeded` — a
:class:`~repro.lang.errors.ResourceError` carrying which resource
tripped, the limit, the consumption, and (when known) a source
location — and emits a ``limit.exceeded`` trace event through the
observability layer, so batch drivers and trace tooling see resource
failures the same way they see check failures.

Usage::

    from repro.limits import Budget, BudgetExceeded, budget_scope

    try:
        with budget_scope(Budget(eval_steps=100_000, deadline_s=2.0)):
            Interpreter().eval(program)
    except BudgetExceeded as err:
        print(err.resource, err.limit, err.used)

``docs/ROBUSTNESS.md`` documents the model and the ``repro batch``
driver built on top of it (:mod:`repro.batch`).
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.lang.errors import Loc, ResourceError, format_loc
from repro.obs import current as _obs_current

#: Resource identifiers, as they appear in ``BudgetExceeded.resource``,
#: in ``limit.exceeded`` trace events, and in batch failure records.
RESOURCES = ("eval_steps", "machine_steps", "subst_nodes", "expand_fuel",
             "depth", "deadline")

#: How many eval/machine charges pass between deadline polls.  The
#: deadline is wall-clock, so it is only *checked* when a governed loop
#: is making progress; a power of two keeps the poll test a mask.
_DEADLINE_POLL_MASK = 511

#: Python stack frames reserved per governed depth level.  One level of
#: language recursion costs several Python frames (``_eval`` wrapper,
#: the eval loop, argument comprehensions; likewise the reader), so a
#: depth-governed scope must hold enough interpreter stack for the
#: gauge to trip *before* CPython's own limit does — that ordering is
#: the whole point of the gauge.
_HEADROOM_PER_DEPTH = 10

#: Hard ceiling on the recursion limit a scope will request.
_HEADROOM_CEILING = 2_000_000


class BudgetExceeded(ResourceError):
    """A governed resource ran out.

    ``resource`` is one of :data:`RESOURCES`; ``limit`` is the cap that
    tripped and ``used`` the consumption that tripped it (for the
    deadline, both are seconds).  The error is a
    :class:`~repro.lang.errors.LangError`, so existing handlers — the
    CLI's, the batch driver's, a host's around a plug-in — already
    contain it.
    """

    def __init__(self, resource: str, limit: object, used: object,
                 loc: Loc | None = None):
        self.resource = resource
        self.limit = limit
        self.used = used
        super().__init__(
            f"budget exhausted: {resource} limit {limit} reached "
            f"(used {used})", loc)


class Budget:
    """Caps plus consumption counters for one governed execution.

    A budget is *charged* by the instrumented subsystems while a
    :func:`budget_scope` holds it current.  Counters are cumulative
    across scopes, so one budget can govern a multi-stage pipeline
    (check, link, evaluate) as a single allowance.  Budgets are not
    thread-safe; give each execution context its own instance.
    """

    __slots__ = ("eval_steps", "machine_steps", "subst_nodes",
                 "expand_fuel", "max_depth", "deadline_s",
                 "used_eval", "used_machine", "used_subst", "used_expand",
                 "depth", "max_depth_seen", "_deadline_at")

    def __init__(self, *, eval_steps: int | None = None,
                 machine_steps: int | None = None,
                 subst_nodes: int | None = None,
                 expand_fuel: int | None = None,
                 max_depth: int | None = None,
                 deadline_s: float | None = None):
        self.eval_steps = eval_steps
        self.machine_steps = machine_steps
        self.subst_nodes = subst_nodes
        self.expand_fuel = expand_fuel
        self.max_depth = max_depth
        self.deadline_s = deadline_s
        self.used_eval = 0
        self.used_machine = 0
        self.used_subst = 0
        self.used_expand = 0
        self.depth = 0
        self.max_depth_seen = 0
        self._deadline_at: float | None = None

    # -- exhaustion -----------------------------------------------------

    def _exhaust(self, resource: str, limit: object, used: object,
                 loc: Loc | None = None) -> None:
        """Trace the exhaustion and raise :class:`BudgetExceeded`."""
        col = _obs_current()
        if col is not None:
            fields: dict[str, object] = {
                "resource": resource, "limit": limit, "used": used}
            if loc is not None:
                fields["loc"] = format_loc(loc)
            col.emit("limit.exceeded", fields)
        raise BudgetExceeded(resource, limit, used, loc)

    # -- charging (hot paths; keep these small) -------------------------

    def charge_eval(self, expr: object = None) -> None:
        """One big-step interpreter loop iteration."""
        used = self.used_eval + 1
        self.used_eval = used
        limit = self.eval_steps
        if limit is not None and used > limit:
            self._exhaust("eval_steps", limit, used,
                          getattr(expr, "loc", None))
        if self._deadline_at is not None \
                and (used & _DEADLINE_POLL_MASK) == 0:
            self.check_deadline(getattr(expr, "loc", None))

    def charge_machine(self, expr: object = None) -> None:
        """One small-step machine reduction."""
        used = self.used_machine + 1
        self.used_machine = used
        limit = self.machine_steps
        if limit is not None and used > limit:
            self._exhaust("machine_steps", limit, used,
                          getattr(expr, "loc", None))
        if self._deadline_at is not None \
                and (used & _DEADLINE_POLL_MASK) == 0:
            self.check_deadline(getattr(expr, "loc", None))

    def charge_subst(self, expr: object = None) -> None:
        """One AST node visited by substitution."""
        used = self.used_subst + 1
        self.used_subst = used
        limit = self.subst_nodes
        if limit is not None and used > limit:
            self._exhaust("subst_nodes", limit, used,
                          getattr(expr, "loc", None))

    def charge_expand(self, loc: Loc | None = None) -> None:
        """One abbreviation unfolding during type expansion."""
        used = self.used_expand + 1
        self.used_expand = used
        limit = self.expand_fuel
        if limit is not None and used > limit:
            self._exhaust("expand_fuel", limit, used, loc)

    # -- the depth gauge ------------------------------------------------

    def enter_frame(self, loc: Loc | None = None) -> None:
        """Enter one level of governed recursion (interpreter frames)."""
        depth = self.depth + 1
        self.depth = depth
        limit = self.max_depth
        if limit is not None and depth > limit:
            self._exhaust("depth", limit, depth, loc)
        # Recorded after the limit check: the rejected frame was never
        # entered, so it does not count as depth actually reached.
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth

    def exit_frame(self) -> None:
        """Leave one level of governed recursion."""
        self.depth -= 1

    def check_depth(self, depth: int, loc: Loc | None = None) -> bool:
        """Gauge an externally tracked depth (the reader's nesting).

        Returns ``True`` when this budget governs depth at all, so the
        caller knows whether its own fallback limit should apply.
        """
        limit = self.max_depth
        if limit is None:
            return False
        if depth > limit:
            self._exhaust("depth", limit, depth, loc)
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        return True

    # -- the deadline ---------------------------------------------------

    def arm(self) -> None:
        """Start the wall clock (idempotent; scope entry calls this)."""
        if self.deadline_s is not None and self._deadline_at is None:
            self._deadline_at = time.monotonic() + self.deadline_s

    def check_deadline(self, loc: Loc | None = None) -> None:
        """Raise when the wall-clock deadline has passed."""
        at = self._deadline_at
        if at is not None and time.monotonic() > at:
            used = round(self.deadline_s + (time.monotonic() - at), 6)
            self._exhaust("deadline", self.deadline_s, used, loc)

    def deadline_remaining(self) -> float | None:
        """Wall-clock seconds left, or ``None`` when no deadline is
        armed.  Never negative: an expired deadline reads as ``0.0``
        (the next :meth:`check_deadline` raises)."""
        at = self._deadline_at
        if at is None:
            return None
        return max(0.0, at - time.monotonic())

    # -- introspection --------------------------------------------------

    def spent(self) -> dict[str, int]:
        """Consumption so far, for reports and batch records."""
        return {
            "eval_steps": self.used_eval,
            "machine_steps": self.used_machine,
            "subst_nodes": self.used_subst,
            "expand_fuel": self.used_expand,
            "max_depth_seen": self.max_depth_seen,
        }

    def limits(self) -> dict[str, object]:
        """The caps, with ``None`` for ungoverned resources."""
        return {
            "eval_steps": self.eval_steps,
            "machine_steps": self.machine_steps,
            "subst_nodes": self.subst_nodes,
            "expand_fuel": self.expand_fuel,
            "max_depth": self.max_depth,
            "deadline_s": self.deadline_s,
        }

    def headroom(self) -> dict[str, float]:
        """Unspent fraction (0.0–1.0) of each *capped* resource.

        Uncapped resources are omitted; 0.0 means exhausted.  Scope
        exit publishes these as ``budget.headroom.*`` gauges, so a
        metrics snapshot shows how close governed work came to its
        allowances.
        """
        out: dict[str, float] = {}
        for resource, limit, used in (
                ("eval_steps", self.eval_steps, self.used_eval),
                ("machine_steps", self.machine_steps, self.used_machine),
                ("subst_nodes", self.subst_nodes, self.used_subst),
                ("expand_fuel", self.expand_fuel, self.used_expand),
                ("depth", self.max_depth, self.max_depth_seen)):
            if limit:
                out[resource] = max(0.0, 1.0 - used / limit)
        if self._deadline_at is not None and self.deadline_s:
            remaining = self._deadline_at - time.monotonic()
            out["deadline"] = max(0.0, min(1.0,
                                           remaining / self.deadline_s))
        return out


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[Budget | None] = ContextVar("repro_budget",
                                                default=None)

#: Count of entered scopes process-wide.  ``current()`` reads this
#: plain global before touching the contextvar, so the common case — no
#: budget anywhere — costs one global read and one integer test.
_scopes_open = 0


def current() -> Budget | None:
    """The budget in scope, or ``None`` when execution is ungoverned.

    This is the hot-path guard used by every instrumented subsystem.
    """
    if not _scopes_open:
        return None
    return _ACTIVE.get()


def enabled() -> bool:
    """Is a budget currently in scope?"""
    return current() is not None


@contextmanager
def budget_scope(budget: Budget | None = None) -> Iterator[Budget]:
    """Make ``budget`` govern the dynamic extent of the block.

    Entering arms the wall-clock deadline (if any), and a scope whose
    budget caps ``max_depth`` also takes scoped Python recursion
    headroom (:func:`python_recursion_headroom`): the depth gauge must
    trip before CPython's own stack limit, or governance would degrade
    to the bare :class:`RecursionError` it exists to replace.

    Scopes nest: the innermost budget wins, and on exit the previous
    budget — possibly none — is restored exactly, so a library caller
    can never leak governance into its caller.
    """
    global _scopes_open
    b = budget if budget is not None else Budget()
    b.arm()
    with ExitStack() as stack:
        if b.max_depth is not None:
            need = min(b.max_depth * _HEADROOM_PER_DEPTH + 1000,
                       _HEADROOM_CEILING)
            stack.enter_context(python_recursion_headroom(need))
        token = _ACTIVE.set(b)
        _scopes_open += 1
        try:
            yield b
        finally:
            _scopes_open -= 1
            _ACTIVE.reset(token)
            col = _obs_current()
            if col is not None:
                for resource, fraction in b.headroom().items():
                    col.gauge("budget.headroom." + resource,
                              round(fraction, 6))


#: Open :func:`python_recursion_headroom` scopes process-wide, and the
#: recursion limit the first of them found.
_headroom_lock = threading.Lock()
_headroom_open = 0
_headroom_saved = 0


@contextmanager
def python_recursion_headroom(limit: int) -> Iterator[None]:
    """Temporarily raise the Python recursion limit, then restore it.

    Deeply *nested program structure* legitimately needs more
    interpreter stack than CPython's default; :func:`budget_scope`
    takes it for a depth-capped budget.  This is the sanctioned way to
    get it: scoped, never lowering an
    already-higher limit, and always restoring the previous value —
    unlike a bare ``sys.setrecursionlimit`` call, which mutates global
    state for the rest of the process.

    The limit is process-global while scopes are per thread, so open
    scopes are counted under a lock: the first to enter saves the
    limit and the last to exit restores it.  A scope that exits early
    never takes headroom from a concurrent one still running.
    """
    global _headroom_open, _headroom_saved
    with _headroom_lock:
        if not _headroom_open:
            _headroom_saved = sys.getrecursionlimit()
        _headroom_open += 1
        if limit > sys.getrecursionlimit():
            sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        with _headroom_lock:
            _headroom_open -= 1
            if not _headroom_open:
                sys.setrecursionlimit(_headroom_saved)
