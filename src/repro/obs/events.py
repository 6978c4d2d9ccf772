"""Structured trace events for the unit pipeline.

An event records one observable action of the evaluation pipeline —
one reduction step, one link edge resolved, one signature-subtype
check, one unit compiled or invoked, one dynamic-linking load.  The
paper's semantics *is* a sequence of such observations (the reduction
steps of Figures 8 and 11, the checks of Figures 10 and 14-19), which
makes the trace both a performance artifact and a fidelity artifact:
differential tests compare event streams across the interpreter, the
rewriting machine, and the static linker.

Event kinds are dotted ``family.action`` strings.  The families are
fixed (``reduce``, ``link``, ``check``, ``unit``, ``dynlink``,
``cache``, ``limit``); the
actions within a family are open-ended, but every kind emitted by the
library is registered in :data:`KINDS` so tools can enumerate them
(``tests/test_obs_registry.py`` lints the source tree for this).

Since the causal-span layer (see :class:`repro.obs.collector.Span`),
events may carry the reserved *span fields* of :data:`SPAN_KEYS`:
``span``/``parent`` ids, a ``phase`` marker (``enter``/``exit``) on
the pair of events a span emits, ``dur``/``self`` seconds on exits,
and ``err`` when a span's body raised.  ``docs/TRACING.md`` documents
the full wire schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Event families, in pipeline order.  ``cache`` is the odd one out:
#: its events describe the *implementation* (content-addressed reuse of
#: check/compile/link/parse results), not the semantics, and
#: differential tests exclude the family when comparing traces.  The
#: ``cache`` field of a ``cache.*`` event names the store (``compile``,
#: ``check``, ``link``, ``dynlink``).
FAMILIES = ("check", "link", "reduce", "unit", "dynlink", "cache",
            "limit", "stage", "metric", "pycode", "serve")

#: Field names reserved by the span layer (instrumentation sites must
#: not use these for their own payload keys).
SPAN_KEYS = ("span", "parent", "phase", "dur", "self", "err")

#: Every event kind the library emits, with a one-line meaning.
KINDS: dict[str, str] = {
    # Figure 10 / Figures 15+19 static checks
    "check.unit": "a unit's import/export/definition premises verified",
    "check.compound": "a compound's with/provides wiring verified",
    "check.invoke": "an invoke's link names verified",
    "check.clause": "a constituent checked against its with/provides",
    "check.subtype": "a signature-subtype judgment was decided",
    "check.unite": "a UNITe program checked (equations permitted)",
    # Linking (Figure 8 graph collapse, Section 4.2.4 static linking)
    "link.compound": "a compound unit value was formed at run time",
    "link.edge": "one import of a constituent resolved to a source",
    "link.static": "the static linker visited a compound",
    # Small-step reduction (Figures 8 and 11)
    "reduce.machine": "one whole machine run (a span over its steps)",
    "reduce.step": "one rewriting step of the machine",
    "reduce.invoke": "the invoke reduction rule fired",
    "reduce.compound": "the compound-merge reduction rule fired",
    # The implementation model (Section 4.1.6, Figure 12)
    "unit.compile": "a unit form was compiled to the cell protocol",
    "unit.invoke": "a unit value was instantiated and invoked",
    # Dynamic linking (Section 3.4, Figure 7)
    "dynlink.load": "an archived unit was retrieved and verified",
    "dynlink.error": "archive retrieval or plug-in installation failed",
    # Content-addressed caches (repro.units.cache)
    "cache.hit": "a cache returned a stored result for a term digest",
    "cache.miss": "a cache had no entry and the result was computed",
    "cache.evict": "a bounded cache dropped its least-recent entry",
    # Resource governance (repro.limits)
    "limit.exceeded": "a resource budget was exhausted and work aborted",
    # Pipeline stages as spans (repro.serve.handlers.run_pipeline:
    # parse -> check -> link, or archive round-trip -> eval; batch
    # wraps each item in stage.item so per-item latency is a span too)
    "stage.item": "one batch item ran end to end",
    "stage.parse": "source text was parsed",
    "stage.check": "the parsed program was checked (or reused the "
                   "check verdict on its parse entry)",
    "stage.link": "the checked program was statically linked",
    "stage.archive": "the program round-tripped the dynlink archive",
    "stage.eval": "the checked program was evaluated",
    # Telemetry lifecycle (repro.obs.metrics)
    "metric.flush": "a collector scope flushed into a MetricsRegistry",
    "metric.dropped": "events of one kind were truncated (count attached)",
    # The Python-closure codegen backend (repro.backend)
    "pycode.codegen": "a program was lowered to Python source and "
                      "compiled (span; fires on cache hits too)",
    "pycode.exec": "a compiled program's _main ran against a Runtime",
    # The link server (repro.serve)
    "serve.request": "one server request executed in a worker thread "
                     "(span; status/op attached)",
    "serve.chaos": "a fault-injection hook fired (fault/site attached)",
}

#: Registered gauge families: last-value instruments recorded via
#: ``obs.gauge(name, value)``.  Names are ``family.property`` or
#: ``family.property.instance`` (the instance suffix is open-ended —
#: e.g. one gauge per named cache or per budget resource); the
#: ``family.property`` prefix must be registered here, and
#: ``tests/test_obs_registry.py`` lints call-sites against this table
#: exactly as it lints event kinds against :data:`KINDS`.
GAUGES: dict[str, str] = {
    "cache.occupancy": "entries resident in a named unit cache",
    "budget.headroom": "fraction of a budget resource still unspent "
                       "when its scope closed",
    "serve.inflight": "requests currently executing in the link "
                      "server's worker pool",
}


def family_of(kind: str) -> str:
    """The family prefix of a kind (``"reduce.step"`` -> ``"reduce"``)."""
    return kind.split(".", 1)[0]


@dataclass
class TraceEvent:
    """One observed action.

    ``t`` is seconds since the owning collector started (monotonic,
    from :func:`time.perf_counter`); ``seq`` is the collector-local
    sequence number, so event ordering is total even when timestamps
    collide.  ``fields`` carries kind-specific detail and must stay
    JSON-serializable (the JSONL sink round-trips it verbatim).
    """

    kind: str
    seq: int
    t: float
    fields: dict[str, object] = field(default_factory=dict)

    @property
    def family(self) -> str:
        return family_of(self.kind)

    def to_json(self) -> dict[str, object]:
        """The JSONL wire form: flat, with reserved keys first."""
        out: dict[str, object] = {"kind": self.kind, "seq": self.seq,
                                  "t": self.t}
        for key, value in self.fields.items():
            if key in ("kind", "seq", "t"):
                raise ValueError(
                    f"event field {key!r} collides with a reserved key")
            out[key] = value
        return out

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`to_json`."""
        fields = {k: v for k, v in payload.items()
                  if k not in ("kind", "seq", "t")}
        return cls(kind=str(payload["kind"]), seq=int(payload["seq"]),
                   t=float(payload["t"]), fields=fields)
