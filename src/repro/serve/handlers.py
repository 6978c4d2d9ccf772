"""The pipeline, and per-request execution for the link server.

:func:`run_pipeline` is the one definition of parse → check →
link/eval.  Every host runs it: the server (through
:func:`execute_request`), ``repro run``/``repro check``, ``repro
batch`` (:func:`repro.batch.run_item`), and ``repro bench``
(:func:`repro.bench._pipeline`) — so a number the bench reports is a
number the server pays.  Each stage runs under a ``stage.*`` span,
records its wall seconds in the caller's ``timings`` dict, and ends
with a deadline poll against the budget in scope (if any), so a
request stalled by a slow source or chaos fault converts to a
deterministic ``deadline`` exhaustion at the next boundary instead of
running arbitrarily long.

:func:`execute_request` is the worker-thread entry point: it rebuilds
the request's entire dynamic context from scratch — contextvars do
**not** propagate into executor threads, so everything scope-based
must be re-entered here, which is exactly what makes requests
isolated:

* a fresh collector under ``registry.scope()``, so N concurrent
  traced requests yield disjoint span trees that flush into one
  coherent registry snapshot (the ``metrics`` op reads it);
* the server's shared :class:`~repro.units.cache.CacheStore` via
  :func:`~repro.units.cache.cache_store_scope` — the one piece of
  state requests *do* share, which is why it is the lock-protected
  one;
* the request's chaos plan (if any, and only when the server allows
  it), armed for this thread only;
* a fresh :class:`~repro.limits.Budget` with the request's wall-clock
  deadline and step caps, so one runaway request exhausts its own
  allowance and nothing else.

Failures follow one taxonomy, :data:`RECORDED_ERRORS`: ``LangError``
(including ``BudgetExceeded``), ``RecursionError``, and ``OSError``
become structured ``error`` responses (:func:`repro.serve.protocol
.error_response`, exit-code field included) and batch failure records
(:func:`error_payload`); anything else is a bug and propagates to the
host's last-resort handler.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from repro import limits as _limits
from repro import obs
from repro.dynlink.loader import load_with_retry
from repro.lang.errors import LangError, ParseError
from repro.lang.parser import parse_script
from repro.lang.values import to_write_string
from repro.serve import chaos as _chaos
from repro.units import cache as _ucache
from repro.units.check import check_program

if TYPE_CHECKING:
    from repro.lang.ast import Expr
    from repro.obs import MetricsRegistry
    from repro.serve.server import ServeConfig

#: Exceptions a pipeline run may fail with and still be *answered* (an
#: error response, a batch failure record) rather than crash its host.
#: ``LangError`` covers the repo's whole taxonomy (parse, check, type,
#: link, run-time, archive, and budget errors); ``RecursionError`` is
#: the raw Python failure an ungoverned deep program can still hit;
#: ``OSError`` covers unreadable files.
RECORDED_ERRORS = (LangError, RecursionError, OSError)


def error_payload(err: BaseException) -> dict[str, object]:
    """The structured ``error`` object of a failure record/response."""
    payload: dict[str, object] = {
        "type": type(err).__name__,
        "message": str(err),
    }
    if isinstance(err, _limits.BudgetExceeded):
        payload["resource"] = err.resource
        payload["limit"] = err.limit
        payload["used"] = err.used
    loc = getattr(err, "loc", None)
    if loc is not None:
        payload["loc"] = str(loc)
    return payload


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


@contextmanager
def _stage_span(kind: str, timings: dict[str, float]) -> Iterator[None]:
    """Run one stage: a ``stage.*`` span, its wall seconds under the
    kind's suffix in ``timings`` (only if it completed), then a
    deadline poll."""
    t = time.perf_counter()
    with obs.span(kind):
        yield
    timings[kind[len("stage."):]] = time.perf_counter() - t
    budget = _limits.current()
    if budget is not None:
        budget.check_deadline()


def with_libraries(expr: "Expr",
                   libraries: Sequence[tuple[str, str]]) -> "Expr":
    """Prepend library files' top-level definitions to a script.

    ``libraries`` holds ``(text, origin)`` pairs (``repro run --load``):
    assembly-line programming across files — parts in their own files,
    one file doing the assembly.
    """
    if not libraries:
        return expr
    from repro.lang.ast import Letrec
    from repro.lang.parser import parse_library

    bindings: list = []
    for text, origin in libraries:
        bindings.extend(parse_library(text, origin=origin))
    if isinstance(expr, Letrec):
        combined = bindings + list(expr.bindings)
        names = [name for name, _ in combined]
        if len(set(names)) != len(names):
            raise ParseError("--load: duplicate top-level definition")
        return Letrec(tuple(combined), expr.body)
    return Letrec(tuple(bindings), expr)


def run_pipeline(req: Mapping[str, object], timings: dict[str, float],
                 **retry: Callable) -> tuple[str, str]:
    """Parse, check, then link (``op="link"``) or evaluate (``"run"``).

    ``req`` carries ``op`` (``check``/``link``/``run``) and ``source``;
    optional fields default as a one-shot CLI run would: ``origin``
    (``"<request>"``), ``backend`` (``"interp"``; also ``machine``,
    ``pycode``), ``lenient``, ``archive`` (round-trip a unit-form
    program through the Figure 7 archive before evaluating),
    ``retries`` (extra archive attempts; ``retry`` may inject
    ``sleep``/``rng`` for tests), and ``libraries`` (see
    :func:`with_libraries`).  Returns ``(value, output)`` in written
    syntax: ``"ok"`` for ``check``, the linked program's text for
    ``link``.  Scopes (budget, cache store, collector, chaos) are the
    caller's.
    """
    op = req["op"]
    source = req["source"]
    origin = req.get("origin", "<request>")
    libraries = req.get("libraries", ())
    strict = not req.get("lenient", False)
    # Warm requests re-send the same source text, so parse through the
    # content-addressed parse store: one entry per text (libraries
    # included), carrying the check verdict and the compiled code.
    with _stage_span("stage.parse", timings):
        entry = _ucache.cached_parse(
            "parse_script", origin, source,
            lambda: with_libraries(parse_script(source, origin=origin),
                                   libraries),
            libraries)
    expr = entry.expr
    with _stage_span("stage.check", timings):
        # Figure 10 depends only on syntax, so a text that passed in
        # this strictness mode passes again.
        if strict not in entry.verdict:
            check_program(expr, strict_valuable=strict)
            entry = _ucache.record_entry(
                entry._replace(verdict=entry.verdict | {strict}))
    if op == "check":
        return "ok", ""
    if op == "link":
        from repro.lang.pretty import show
        from repro.units import linker

        link_timings: dict[str, float] = {}
        with _stage_span("stage.link", timings):
            linked, _stats = linker.link_and_optimize(
                expr, timings=link_timings)
            text = show(linked)
        for sub, seconds in link_timings.items():
            timings["link." + sub] = seconds
        return text, ""
    if req.get("archive", False):
        with _stage_span("stage.archive", timings):
            _archive_roundtrip(expr, origin, req.get("retries", 0),
                               **retry)
    with _stage_span("stage.eval", timings):
        value, output = _eval_stage(entry, req.get("backend", "interp"))
    return to_write_string(value), output


def _eval_stage(entry: _ucache.ParseEntry,
                backend: str) -> tuple[object, str]:
    """Evaluate a checked program with the selected backend."""
    expr = entry.expr
    if backend == "pycode":
        # Through the package attribute, resolved per call, so a
        # wrapped ``repro.backend.compile_program`` is the one used.
        from repro import backend as _backend

        program = _backend.compile_program(expr, code=entry.code)
        if entry.code is None:
            _ucache.record_entry(entry._replace(code=program.code))
        return program.run()
    if backend == "machine":
        from repro.lang.ast import Lit
        from repro.lang.machine import machine_eval

        final, output = machine_eval(expr)
        return (final.value if isinstance(final, Lit) else final), output
    from repro.lang.interp import Interpreter

    interp = Interpreter()
    return interp.eval(expr), interp.port.getvalue()


def _archive_roundtrip(expr: "Expr", name: str, retries: int,
                       **retry: Callable) -> None:
    """Round-trip a unit-form program through the archive layer.

    Mirrors ``repro demo``: programs whose (invoked) body is a unit
    exercise the Figure 7 retrieval checks too.  Retrieval runs under
    :func:`~repro.dynlink.loader.load_with_retry` so a transiently
    failing archive tier gets ``retries`` extra attempts.
    """
    from repro.dynlink.archive import UnitArchive
    from repro.units.ast import InvokeExpr, UnitExpr

    unit = expr.expr if isinstance(expr, InvokeExpr) else expr
    if not isinstance(unit, UnitExpr):
        return
    archive = UnitArchive()
    archive.put_unit(name, unit)
    load_with_retry(
        lambda: archive.retrieve_untyped(name, unit.imports, unit.exports),
        retries=retries, **retry)


# ---------------------------------------------------------------------------
# The server's per-request entry point
# ---------------------------------------------------------------------------


#: The nesting/recursion depth every served request may reach.  A
#: budget with a depth cap also governs the reader, in place of its
#: fixed structural limit, so deep link graphs parse.
MAX_DEPTH = 10_000


def request_budget(req: dict[str, object],
                   config: "ServeConfig") -> _limits.Budget:
    """The request's own budget: its deadline (clamped to the server's
    ceiling, defaulted from config), optional step caps, and
    :data:`MAX_DEPTH`."""
    deadline = req.get("deadline_s")
    if deadline is None:
        deadline = config.default_deadline_s
    if config.max_deadline_s is not None:
        deadline = min(float(deadline), config.max_deadline_s)
    return _limits.Budget(
        deadline_s=deadline,
        eval_steps=req.get("eval_steps"),
        machine_steps=req.get("machine_steps"),
        max_depth=MAX_DEPTH)


def execute_request(req: dict[str, object], store: _ucache.CacheStore,
                    registry: "MetricsRegistry",
                    config: "ServeConfig") -> dict[str, object]:
    """Run one validated pipeline request; always returns a response."""
    # The wire protocol imports this module's error taxonomy, so the
    # response constructors are reached at call time.
    from repro.serve import protocol as _protocol

    request_id = req.get("id")
    budget = request_budget(req, config)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    with registry.scope() as col:
        with col.span("serve.request", {"op": req["op"]}) as sp:
            chaos_ctx = nullcontext()
            if req.get("chaos") and config.allow_chaos:
                chaos_ctx = _chaos.chaos_scope(_chaos.ChaosPlan(
                    faults=frozenset(req["chaos"]),
                    slow_s=req["chaos_slow_s"]))
            try:
                with ExitStack() as stack:
                    stack.enter_context(_ucache.cache_store_scope(store))
                    stack.enter_context(chaos_ctx)
                    stack.enter_context(_limits.budget_scope(budget))
                    # Inert everywhere except a marked worker process
                    # (repro.serve.workers), where it kills the worker
                    # mid-request with no response — the pool's
                    # reap/respawn path is the subject under test.
                    if _chaos._armed:
                        _chaos.worker_kill("serve.request")
                    value, output = run_pipeline(req, timings)
            except RECORDED_ERRORS as err:
                sp.annotate(status="error",
                            error=type(err).__name__)
                response = _protocol.error_response(request_id, err)
            else:
                sp.annotate(status="ok")
                response = _protocol.ok_response(
                    request_id, value=value, output=output)
            timings["total"] = time.perf_counter() - t_start
            response["op"] = req["op"]
            response["timings"] = {name: round(seconds, 6)
                                   for name, seconds in timings.items()}
            response["spent"] = budget.spent()
            return response
