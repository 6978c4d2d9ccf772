"""The trace/metrics collector and its contextvar scoping.

Observability is *off by default* and scoped, not global: a
:class:`Collector` becomes the current sink only inside a
``with collecting(collector):`` block (or the lower-level
:func:`activate`/:func:`deactivate` pair), and the scope travels with
the :mod:`contextvars` context — concurrent tasks and threads each see
their own collector, or none.

The disabled path is designed to cost nothing measurable on hot loops:
instrumented code guards every emission with

.. code-block:: python

    col = obs.current()
    if col is not None:
        col.emit("reduce.step", {...})

``current()`` is a single ``ContextVar.get`` plus an identity check —
no allocation, no attribute chase, no dictionary construction.  Event
payload dictionaries are only built *inside* the guard, so a disabled
collector never causes them to exist.  ``tests/test_obs.py`` holds an
allocation guard asserting this stays true.

Causal spans
------------

Beyond flat events, a collector records **spans** — scoped intervals
that nest, mirroring the derivation trees of the paper's semantics (an
``invoke`` reduction *contains* the compound merges it triggers, a
compound check *contains* its per-clause sub-judgments):

.. code-block:: python

    col = obs.current()
    if col is not None:
        with col.span("check.compound", {"imports": 2}):
            ...                       # nested emits/spans attach here

A span emits a pair of events of its kind — ``phase:"enter"`` and
``phase:"exit"`` — stamped with a collector-unique ``span`` id and the
``parent`` span id, so the recorded trace is a well-formed tree.  The
exit event carries ``dur`` (cumulative wall seconds) and ``self``
(cumulative minus time spent in child spans).  Plain events emitted
while a span is open are stamped with the enclosing ``span`` id.  The
kind *counter* is bumped once per span (on enter), so counter
semantics match the pre-span flat events exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.events import TraceEvent, family_of
from repro.obs.metrics import SNAPSHOT_SCHEMA, Gauge, Histogram

_ACTIVE: ContextVar["Collector | None"] = ContextVar(
    "repro_obs_collector", default=None)


def current() -> "Collector | None":
    """The collector in scope, or ``None`` when observability is off.

    This is the hot-path guard; keep it a bare contextvar read.
    """
    return _ACTIVE.get()


def enabled() -> bool:
    """Is a collector currently in scope?"""
    return _ACTIVE.get() is not None


def emit(kind: str, fields: dict[str, object] | None = None) -> None:
    """Emit an event to the current collector, if any.

    Convenience for cold paths.  Hot paths should guard with
    :func:`current` themselves so the ``fields`` dict is never built
    when observability is off.
    """
    col = _ACTIVE.get()
    if col is not None:
        col.emit(kind, fields)


def count(name: str, delta: int = 1) -> None:
    """Bump a counter on the current collector, if any."""
    col = _ACTIVE.get()
    if col is not None:
        col.count(name, delta)


def observe(name: str, seconds: float) -> None:
    """Record a latency sample into the current collector's histogram
    for ``name``, if any."""
    col = _ACTIVE.get()
    if col is not None:
        col.observe(name, seconds)


def gauge(name: str, value: float) -> None:
    """Set a gauge level on the current collector, if any.  Gauge name
    families are registered in :data:`repro.obs.events.GAUGES`."""
    col = _ACTIVE.get()
    if col is not None:
        col.gauge(name, value)


class _NoopSpan:
    """A shared do-nothing span for the disabled path.

    :func:`span` returns this singleton when no collector is in scope,
    so ``with obs.span(...)`` costs one contextvar read and nothing
    else.  Hot paths that want to avoid even building the fields dict
    should guard with :func:`current` and use :meth:`Collector.span`.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def annotate(self, **fields: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(kind: str, fields: dict[str, object] | None = None):
    """Open a span on the current collector; no-op when observability
    is off.  Convenience for cold paths (see :class:`_NoopSpan`)."""
    col = _ACTIVE.get()
    if col is None:
        return _NOOP_SPAN
    return col.span(kind, fields)


class Span:
    """One open causal span.  Created via :meth:`Collector.span`.

    Entering emits the ``phase:"enter"`` event (bumping the kind
    counter); exiting emits ``phase:"exit"`` with ``dur`` and ``self``
    seconds (no counter bump).  :meth:`annotate` adds fields to the
    exit event — useful for results only known when the scope closes.
    If the body raises, the exit event carries ``err`` with the
    exception's ``repr``.
    """

    __slots__ = ("_col", "kind", "fields", "span_id", "parent_id",
                 "_t_enter", "_child_time", "_notes")

    def __init__(self, col: "Collector", kind: str,
                 fields: dict[str, object] | None):
        self._col = col
        self.kind = kind
        self.fields = fields
        self.span_id = -1
        self.parent_id: int | None = None
        self._t_enter = 0.0
        self._child_time = 0.0
        self._notes: dict[str, object] | None = None

    def annotate(self, **fields: object) -> None:
        """Attach extra fields to the (future) exit event."""
        if self._notes is None:
            self._notes = {}
        self._notes.update(fields)

    def __enter__(self) -> "Span":
        col = self._col
        stack = col._spans
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = col._next_span
        col._next_span += 1
        payload: dict[str, object] = dict(self.fields) if self.fields else {}
        payload["span"] = self.span_id
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        payload["phase"] = "enter"
        col._record(self.kind, payload, bump=True)
        stack.append(self)
        self._t_enter = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        col = self._col
        dur = time.perf_counter() - self._t_enter
        stack = col._spans
        # Tolerate a corrupted stack rather than masking the body's
        # exception: only pop if we are the innermost open span.
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1]._child_time += dur
        self_time = dur - self._child_time
        if self_time < 0.0:
            self_time = 0.0
        payload: dict[str, object] = {"span": self.span_id}
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        payload["phase"] = "exit"
        payload["dur"] = dur
        payload["self"] = self_time
        if self._notes:
            for key, value in self._notes.items():
                if key not in ("span", "parent", "phase", "dur", "self"):
                    payload[key] = value
        if exc is not None:
            payload["err"] = repr(exc)
        col._record(self.kind, payload, bump=False)
        # Every span exit also feeds the latency histogram for its
        # kind, so percentiles come for free at existing call-sites.
        hist = col.histograms.get(self.kind)
        if hist is None:
            hist = col.histograms[self.kind] = Histogram()
        hist.record(dur)
        return None


class Collector:
    """Accumulates trace events, monotonic counters, histograms, and
    gauges.

    One collector represents one observation session (a CLI run, a
    benchmark, a test).  It is not thread-safe by design — scoping via
    :func:`collecting` gives each execution context its own instance.

    ``max_events`` bounds memory on pathological traces: beyond the
    bound, events are dropped (counted in ``dropped``, and per kind in
    ``dropped_kinds`` so reports can say *what* was truncated) while
    counters and histograms keep accumulating.

    ``record_events=False`` makes a metrics-only collector: spans,
    counters, histograms, and gauges all work, but event bodies are
    never stored (and are *not* counted as dropped — the caller opted
    out).  :class:`~repro.obs.metrics.MetricsRegistry` uses one as its
    accumulator and opens its scopes with one when it has no parent
    collector, aggregating without per-event allocation.
    """

    def __init__(self, max_events: int = 1_000_000, *,
                 record_events: bool = True):
        self.t0 = time.perf_counter()
        self.events: list[TraceEvent] = []
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, Gauge] = {}
        self.max_events = max_events
        self.record_events = record_events
        self.dropped = 0
        self.dropped_kinds: dict[str, int] = {}
        #: Events recorded by adopted collectors (or decoded snapshots)
        #: whose bodies this collector did not keep.
        self.folded_events = 0
        self._seq = 0
        self._spans: list[Span] = []
        self._next_span = 0

    # -- recording ------------------------------------------------------

    def _record(self, kind: str, fields: dict[str, object], bump: bool
                ) -> TraceEvent | None:
        """Append one event, optionally bumping the kind counter.

        When ``max_events`` is hit the event body is dropped, but the
        drop itself is *not* silent: it is tallied in ``dropped`` and
        in the ``trace.dropped`` counter, both surfaced by
        :meth:`metrics`.
        """
        seq = self._seq
        self._seq = seq + 1
        if bump:
            self.counters[kind] = self.counters.get(kind, 0) + 1
        if not self.record_events:
            return None
        if len(self.events) >= self.max_events:
            self.dropped += 1
            self.counters["trace.dropped"] = \
                self.counters.get("trace.dropped", 0) + 1
            self.dropped_kinds[kind] = self.dropped_kinds.get(kind, 0) + 1
            return None
        event = TraceEvent(kind, seq, time.perf_counter() - self.t0,
                           fields)
        self.events.append(event)
        return event

    def emit(self, kind: str, fields: dict[str, object] | None = None
             ) -> TraceEvent | None:
        """Record one event; returns it (or ``None`` if dropped).

        While a span is open, the event is stamped with the enclosing
        ``span`` id (unless the caller already set one), attributing it
        to its causal scope.
        """
        if fields is None:
            fields = {}
        if self._spans and "span" not in fields:
            fields["span"] = self._spans[-1].span_id
        return self._record(kind, fields, bump=True)

    def span(self, kind: str, fields: dict[str, object] | None = None
             ) -> Span:
        """Open a causal span of ``kind``; use as a context manager.

        See :class:`Span` for the enter/exit event schema.
        """
        return Span(self, kind, fields)

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into the histogram for ``name``.

        Span exits do this automatically (keyed by span kind); call it
        directly for durations that are not spans, like cache service
        times.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(seconds)

    def gauge(self, name: str, value: float) -> None:
        """Set the level of the gauge ``name`` (last value wins)."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        g.set(value)

    def adopt(self, child: "Collector") -> None:
        """Fold a finished child collector into this one.

        When this collector records events, the child's are appended
        with their span ids remapped past this collector's id
        watermark and their timestamps rebased onto this collector's
        clock, so the merged trace is still a well-formed forest: the
        child's span trees arrive intact and *disjoint* from every
        other adoptee's.  A metrics-only collector only counts them.
        All numeric state (counters, histograms, gauges, span and drop
        tallies) merges too; this is the one fold every aggregation
        path uses (:class:`repro.obs.metrics.MetricsRegistry` adopts
        scopes and decoded snapshots alike).

        The child must be finished (no open spans) and must not be
        recording concurrently; :class:`repro.obs.metrics.MetricsRegistry`
        serializes adoptions under its lock.
        """
        offset = self._next_span
        self._next_span += child._next_span
        self.folded_events += child.folded_events
        shift = child.t0 - self.t0
        if self.record_events:
            for event in child.events:
                if len(self.events) >= self.max_events:
                    self.dropped += 1
                    self.counters["trace.dropped"] = \
                        self.counters.get("trace.dropped", 0) + 1
                    self.dropped_kinds[event.kind] = \
                        self.dropped_kinds.get(event.kind, 0) + 1
                    continue
                fields = dict(event.fields)
                if "span" in fields:
                    fields["span"] = fields["span"] + offset  # type: ignore[operator]
                if "parent" in fields:
                    fields["parent"] = fields["parent"] + offset  # type: ignore[operator]
                self.events.append(
                    TraceEvent(event.kind, self._seq, event.t + shift,
                               fields))
                self._seq += 1
        else:
            self.folded_events += len(child.events)
        for name, value in child.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in child.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
        for name, g in child.gauges.items():
            mine_g = self.gauges.get(name)
            if mine_g is None:
                self.gauges[name] = g.copy()
            else:
                mine_g.merge(g)
        self.dropped += child.dropped
        for kind, n in child.dropped_kinds.items():
            self.dropped_kinds[kind] = self.dropped_kinds.get(kind, 0) + n

    # -- reading --------------------------------------------------------

    def kinds(self) -> dict[str, int]:
        """Event kinds seen, with occurrence counts (drops included).

        Only names in a registered event family count as kinds;
        bookkeeping counters (``trace.dropped``) and plain
        :meth:`count` counters are excluded.
        """
        from repro.obs.events import FAMILIES

        out: dict[str, int] = {}
        for name, value in self.counters.items():
            if "." in name and family_of(name) in FAMILIES:
                out[name] = value
        return out

    def families(self) -> set[str]:
        """Event families seen (``reduce``, ``link``, ...)."""
        return {kind.split(".", 1)[0] for kind in self.kinds()}

    def metrics(self) -> dict[str, object]:
        """A JSON-ready ``metrics1`` snapshot of everything but the
        event bodies (see ``docs/METRICS.md`` for the schema)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "events": len(self.events) + self.folded_events,
            "spans": self._next_span,
            "dropped": self.dropped,
            "dropped_by_kind": dict(sorted(self.dropped_kinds.items())),
            "counters": dict(sorted(self.counters.items())),
            "gauges": {name: self.gauges[name].to_json()
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].to_json()
                           for name in sorted(self.histograms)},
        }

    @classmethod
    def from_metrics(cls, payload: dict[str, object]) -> "Collector":
        """Decode a :meth:`metrics` snapshot into a metrics-only
        collector holding its numbers, ready to :meth:`adopt`.

        Raises :class:`ValueError` for a section that is not an
        object, a histogram or gauge missing a field, or a count that
        is not a number.  Sections the format does not define (older
        snapshots carry a self-time section) are ignored.
        """
        sections: dict[str, dict] = {}
        for key in ("counters", "histograms", "gauges", "dropped_by_kind"):
            section = payload.get(key, {})
            if not isinstance(section, dict):
                raise ValueError(f"metrics section {key!r} is not an "
                                 f"object")
            sections[key] = section
        out = cls(record_events=False)
        try:
            out.counters = {name: int(n) for name, n
                            in sections["counters"].items()}
            out.dropped_kinds = {kind: int(n) for kind, n
                                 in sections["dropped_by_kind"].items()}
            out.folded_events = int(payload.get("events", 0))  # type: ignore[arg-type]
            out._next_span = int(payload.get("spans", 0))  # type: ignore[arg-type]
            out.dropped = int(payload.get("dropped", 0))  # type: ignore[arg-type]
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed metrics count: {err}") from err
        for section, decode, into in (
                ("histograms", Histogram.from_json, out.histograms),
                ("gauges", Gauge.from_json, out.gauges)):
            for name, value in sections[section].items():
                try:
                    into[name] = decode(value)
                except ValueError as err:
                    raise ValueError(
                        f"{section} {name!r}: {err}") from err
        return out


# ---------------------------------------------------------------------------
# Scoping
# ---------------------------------------------------------------------------


def activate(collector: Collector):
    """Install ``collector`` as current; returns a reset token."""
    return _ACTIVE.set(collector)


def deactivate(token) -> None:
    """Undo a matching :func:`activate`."""
    _ACTIVE.reset(token)


@contextmanager
def collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Scope a collector: events emitted inside the block land in it.

    Nested scopes shadow (the innermost collector wins); on exit the
    previous collector — possibly ``None`` — is restored exactly.
    """
    col = collector if collector is not None else Collector()
    token = _ACTIVE.set(col)
    try:
        yield col
    finally:
        _ACTIVE.reset(token)
