"""Observability for the unit pipeline: tracing, metrics, profiling.

The evaluation pipeline (reader -> checker -> linker ->
interpreter/machine/reducer -> dynlinker) emits structured
:class:`TraceEvent` records when — and only when — a
:class:`Collector` is in scope:

.. code-block:: python

    from repro import obs

    with obs.collecting() as col:
        Interpreter().eval(program)
    col.kinds()       # {"unit.invoke": 3, "link.compound": 2, ...}
    col.metrics()     # JSON-ready metrics1 snapshot (counters,
                      # histograms, gauges)
    obs.write_jsonl(col.events, "trace.jsonl")

With no collector in scope every instrumentation point reduces to one
contextvar read and a ``None`` check; nothing is allocated and nothing
is recorded.  The CLI exposes this as ``--trace FILE`` / ``--metrics``
(see :mod:`repro.cli`), and the benchmark harness attaches a collector
per run when ``REPRO_BENCH_METRICS`` is set (see
``benchmarks/conftest.py``).
"""

from repro.obs.analyze import (
    KindDelta,
    SpanForest,
    SpanNode,
    build_spans,
    critical_path,
    diff_counts,
    fold_stacks,
    kind_counts,
    regressions,
    top_self_time,
    validate_spans,
)
from repro.obs.collector import (
    Collector,
    Span,
    activate,
    collecting,
    count,
    current,
    deactivate,
    emit,
    enabled,
    gauge,
    observe,
    span,
)
from repro.obs.events import (
    FAMILIES,
    GAUGES,
    KINDS,
    SPAN_KEYS,
    TraceEvent,
    family_of,
)
from repro.obs.jsonl import JsonlSink, read_jsonl, write_jsonl, write_metrics
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
    merge_snapshot_files,
    render_metrics_diff,
    render_metrics_report,
    render_percentiles,
    render_prometheus,
)
from repro.obs.profiling import ProfileSession, profiled
from repro.obs.report import render_flame, render_report

__all__ = [
    "Collector",
    "Span",
    "TraceEvent",
    "FAMILIES",
    "KINDS",
    "SPAN_KEYS",
    "family_of",
    "activate",
    "deactivate",
    "collecting",
    "current",
    "enabled",
    "emit",
    "count",
    "span",
    "observe",
    "gauge",
    "read_jsonl",
    "write_jsonl",
    "write_metrics",
    "JsonlSink",
    "ProfileSession",
    "profiled",
    # telemetry core
    "GAUGES",
    "SNAPSHOT_SCHEMA",
    "Histogram",
    "Gauge",
    "MetricsRegistry",
    "load_snapshot",
    "merge_snapshot_files",
    "render_percentiles",
    "render_metrics_report",
    "render_metrics_diff",
    "render_prometheus",
    # trace analysis
    "SpanNode",
    "SpanForest",
    "KindDelta",
    "build_spans",
    "validate_spans",
    "critical_path",
    "top_self_time",
    "fold_stacks",
    "kind_counts",
    "diff_counts",
    "regressions",
    "render_report",
    "render_flame",
]
